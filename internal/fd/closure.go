package fd

import "f2/internal/relation"

// Closure returns the attribute closure X⁺ under the given FDs: the
// largest set of attributes functionally determined by X. Standard
// fixpoint computation, linear passes over the FD list.
func Closure(fds *Set, x relation.AttrSet) relation.AttrSet {
	closure := x
	list := fds.Slice()
	for changed := true; changed; {
		changed = false
		for _, f := range list {
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
