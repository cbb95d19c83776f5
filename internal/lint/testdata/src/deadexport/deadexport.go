// Fixture for f2vet/deadexport: exported functions and methods that no
// non-test package references. Lines with `want` must be flagged; lines
// without must not. The user package (deadexport/user) is the rest of the
// program in view.
package deadexport

import "fmt"

// TestOnly is called from deadexport_test.go alone, which the program
// view never loads.
func TestOnly() int { return 1 } // want "TestOnly is exported but referenced only by tests or not at all"

// Unused has no caller anywhere.
func Unused() {} // want "Unused is exported but referenced only by tests or not at all"

// Recursive calls only itself: recursion is not a caller.
func Recursive(n int) int { // want "Recursive is exported but referenced only by tests or not at all"
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// OwnPackage is used by Helper below, inside its own package.
func OwnPackage() int { return 2 }

// Helper is called from deadexport/user.
func Helper() int { return OwnPackage() }

// Generic is instantiated from deadexport/user.
func Generic[T any](v T) T { return v }

// Value is a type whose methods are reached in different ways.
type Value struct{ n int }

// NewValue is called from deadexport/user.
func NewValue(n int) *Value { return &Value{n: n} }

// Get is called from deadexport/user through a method value.
func (v *Value) Get() int { return v.n }

// String satisfies fmt.Stringer: fmt calls it through the interface.
func (v *Value) String() string { return fmt.Sprint(v.n) }

// Close satisfies the interface literal deadexport/user asserts.
func (v *Value) Close() error { return nil }

// Reset has no caller.
func (v *Value) Reset() { v.n = 0 } // want "Value.Reset is exported but referenced only by tests or not at all"

// Kept has no caller in view, and says why it stays.
//
//lint:ignore f2vet/deadexport called from another module
func Kept() {}

// Reasonless has no caller, and its directive gives no reason, so it
// does not suppress.
//
//lint:ignore f2vet/deadexport
func Reasonless() {} // want "Reasonless is exported but referenced only by tests or not at all"

// unexported functions are out of scope.
func unexported() {}
