package deadexport

import "testing"

// A test reference does not keep TestOnly alive: the program view holds
// non-test packages only.
func TestTestOnly(t *testing.T) {
	if TestOnly() != 1 {
		t.Fatal("TestOnly")
	}
}
