package fd

import "f2/internal/relation"

// Closure returns the attribute closure X⁺ under the given FDs: the
// largest set of attributes functionally determined by X. Standard
// fixpoint computation, linear passes over the FD set; the fixpoint does
// not depend on the order of a pass.
func Closure(fds *Set, x relation.AttrSet) relation.AttrSet {
	closure := x
	for changed := true; changed; {
		changed = false
		for f := range fds.fds {
			if f.LHS.SubsetOf(closure) && !closure.Has(f.RHS) {
				closure = closure.Add(f.RHS)
				changed = true
			}
		}
	}
	return closure
}

// Implies reports whether the FD set logically implies f (via closure).
func Implies(fds *Set, f FD) bool {
	return Closure(fds, f.LHS).Has(f.RHS)
}
