package fd

import (
	"f2/internal/partition"
	"f2/internal/relation"
)

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

// MinimalCover reduces an FD set to a minimal cover: singleton RHSs
// (already our representation), no extraneous LHS attributes, no redundant
// FDs. The result implies exactly the same dependencies.
func MinimalCover(fds *Set) *Set {
	// Left-reduce each FD.
	reduced := NewSet()
	for _, f := range fds.Slice() {
		lhs := f.LHS
		for _, a := range f.LHS.Attrs() {
			smaller := lhs.Remove(a)
			if smaller.IsEmpty() {
				continue
			}
			if Closure(fds, smaller).Has(f.RHS) {
				lhs = smaller
			}
		}
		reduced.Add(FD{LHS: lhs, RHS: f.RHS})
	}
	// Drop redundant FDs: f is redundant if the rest implies it.
	out := NewSet()
	list := reduced.Slice()
	for i, f := range list {
		rest := NewSet()
		for j, g := range list {
			if i != j {
				rest.Add(g)
			}
		}
		for _, g := range out.Slice() { // already-kept FDs count too
			rest.Add(g)
		}
		if !Implies(rest, f) {
			out.Add(f)
		}
	}
	return out
}

// CandidateKeys returns the minimal keys of t: the inclusion-minimal
// attribute sets whose projection is duplicate-free. Implemented as a
// levelwise search with superset pruning; exponential in the worst case,
// fine for the schema widths FD work deals in.
func CandidateKeys(t *relation.Table) []relation.AttrSet {
	m := t.NumAttrs()
	if m == 0 || t.NumRows() == 0 {
		return nil
	}
	plis := partition.NewCache(relation.Encode(t))
	isKey := func(x relation.AttrSet) bool {
		return !plis.Get(x).HasDuplicate()
	}
	var keys []relation.AttrSet
	level := make([]relation.AttrSet, 0, m)
	for a := 0; a < m; a++ {
		level = append(level, relation.SingleAttr(a))
	}
	for len(level) > 0 {
		var next []relation.AttrSet
		for _, x := range level {
			covered := false
			for _, k := range keys {
				if k.SubsetOf(x) {
					covered = true
					break
				}
			}
			if covered {
				continue
			}
			if isKey(x) {
				keys = append(keys, x)
				continue
			}
			for a := x.First() + 1; a < m; a++ {
				if !x.Has(a) {
					next = append(next, x.Add(a))
				}
			}
		}
		level = dedupeSets(next)
	}
	relation.SortAttrSets(keys)
	return keys
}

// dedupeSets drops repeated attribute sets in place, keeping first
// occurrences in order.
func dedupeSets(sets []relation.AttrSet) []relation.AttrSet {
	seen := make(map[relation.AttrSet]bool, len(sets))
	out := sets[:0]
	for _, s := range sets {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// IsBCNF reports whether t is in Boyce-Codd normal form with respect to
// its witnessed FDs: every non-trivial dependency's LHS must be a
// superkey. A witnessed FD's LHS has a duplicate projection by definition,
// so it is never a superkey: every witnessed FD is a violation, and they
// are returned for the schema-refinement use case.
func IsBCNF(t *relation.Table) (bool, []FD) {
	violations := DiscoverWitnessed(t).Slice()
	return len(violations) == 0, violations
}
