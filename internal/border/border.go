// Package border finds the positive border of a monotone (downward-closed)
// predicate over attribute sets: the inclusion-maximal subsets of a
// universe that satisfy the predicate. Two F² steps reduce to exactly this
// problem:
//
//   - Step 1, MAS discovery: "has a duplicate projection" is downward
//     closed; its maximal sets are the MASs (maximal non-unique column
//     combinations);
//   - Step 4, false-positive elimination: for a fixed RHS attribute Y,
//     "X→Y is violated on D" is downward closed in X; its maximal sets
//     are the maximal false-positive dependencies that need artificial
//     records.
//
// The algorithm is Dualize & Advance (Gunopulos et al., TODS 2003), the
// foundation DUCC builds its random walks on: greedy walks classify the
// easy region, then the holes are enumerated as complements of the minimal
// transversals of the discovered negative border, until a fixpoint proves
// completeness.
//
// The minimal transversals are maintained incrementally. Every minimal
// violating set is folded into the transversal family once, by a single
// Berge step, when a downward walk discovers it; an advance round only
// reads the family. Minimal violating sets form an antichain, so nothing
// folded in is ever undone, and the Berge step of an antichain edge
// yields an already-minimal family (see fold), so no global minimization
// is needed.
package border

import (
	"slices"

	"f2/internal/relation"
)

// Finder locates the positive border of pred within universe. pred must be
// downward closed: pred(X) and Y ⊆ X imply pred(Y).
type Finder struct {
	universe relation.AttrSet
	attrs    []int
	pred     func(relation.AttrSet) bool

	cache    map[relation.AttrSet]bool
	positive []relation.AttrSet // verified maximal satisfying sets
	negative []relation.AttrSet // verified minimal violating sets
	// trans holds the minimal transversals of negative: every set in it
	// meets every minimal violating set, and no proper subset does.
	trans []relation.AttrSet
	stats Stats
}

// Stats counts the work of one border search.
type Stats struct {
	Checks   int // predicate evaluations
	Rounds   int // Dualize-&-Advance rounds
	Negative int // minimal violating sets found: the final negative border
}

// Find returns the maximal subsets of universe satisfying pred, sorted,
// along with the search's work counters.
func Find(universe relation.AttrSet, pred func(relation.AttrSet) bool) ([]relation.AttrSet, Stats) {
	f := &Finder{
		universe: universe,
		attrs:    universe.Attrs(),
		pred:     pred,
		cache:    make(map[relation.AttrSet]bool),
		trans:    []relation.AttrSet{0}, // the empty family's sole transversal
	}
	f.run()
	out := f.positive
	relation.SortAttrSets(out)
	f.stats.Negative = len(f.negative)
	return out, f.stats
}

// eval classifies one node, consulting the known borders before calling
// the predicate: subsets of positive sets satisfy, supersets of negative
// sets violate.
func (f *Finder) eval(x relation.AttrSet) bool {
	if v, ok := f.cache[x]; ok {
		return v
	}
	for _, s := range f.positive {
		if x.SubsetOf(s) {
			f.cache[x] = true
			return true
		}
	}
	for _, s := range f.negative {
		if s.SubsetOf(x) {
			f.cache[x] = false
			return false
		}
	}
	f.stats.Checks++
	v := f.pred(x)
	f.cache[x] = v
	return v
}

func (f *Finder) run() {
	if f.universe.IsEmpty() {
		return
	}
	// Fast path: when the whole universe satisfies the predicate, it is
	// the unique maximal set. (Common in the false-positive search, where
	// most dependencies are violated outright.)
	if f.eval(f.universe) {
		f.addPositive(f.universe)
		return
	}
	// Phase 1: greedy walks from the satisfying singletons.
	for _, a := range f.attrs {
		x := relation.SingleAttr(a)
		if f.eval(x) {
			f.walkUp(x)
		} else {
			f.addNegative(x)
		}
	}
	// Phase 2: Dualize & Advance until no hole remains.
	for f.advance() {
	}
}

// supersets returns the immediate supersets of x within the universe.
func (f *Finder) supersets(x relation.AttrSet) []relation.AttrSet {
	out := make([]relation.AttrSet, 0, len(f.attrs))
	for _, a := range f.attrs {
		if !x.Has(a) {
			out = append(out, x.Add(a))
		}
	}
	return out
}

// walkUp climbs from a satisfying node to a maximal one; violating
// supersets met on the way are walked down to minimal violating sets.
func (f *Finder) walkUp(x relation.AttrSet) {
	for {
		climbed := false
		for _, sup := range f.supersets(x) {
			if f.eval(sup) {
				x = sup
				climbed = true
				break
			}
			f.walkDown(sup)
		}
		if !climbed {
			f.addPositive(x)
			return
		}
	}
}

// walkDown descends from a violating node to a minimal violating one.
func (f *Finder) walkDown(x relation.AttrSet) {
	for {
		descended := false
		for _, a := range x.Attrs() {
			sub := x.Remove(a)
			if sub.IsEmpty() {
				continue
			}
			if !f.eval(sub) {
				x = sub
				descended = true
				break
			}
		}
		if !descended {
			f.addNegative(x)
			return
		}
	}
}

// addNegative records a minimal violating set and folds it into the
// transversal family. A walk may end on a set found before; only a new
// one changes the family.
func (f *Finder) addNegative(x relation.AttrSet) {
	if slices.Contains(f.negative, x) {
		return
	}
	f.negative = append(f.negative, x)
	f.trans = fold(f.trans, x)
}

// addPositive records a maximal satisfying set; two walks may end on the
// same one.
func (f *Finder) addPositive(x relation.AttrSet) {
	if !slices.Contains(f.positive, x) {
		f.positive = append(f.positive, x)
	}
}

// fold is one step of Berge's algorithm: given the minimal transversals
// of a hypergraph, it returns those of the hypergraph with edge e added.
// The edges must form an antichain — e neither contains nor is contained
// in an earlier edge — which minimal violating sets do: a downward walk
// stops only where every immediate subset satisfies the predicate.
//
// A transversal t that meets e is kept. Every other t grows into t∪{v}
// for each v ∈ e. No global minimization is needed: if a grown t∪{v}
// contains a kept k, then v ∈ k (otherwise k ⊆ t, two distinct minimal
// transversals of the old family), so only the kept sets containing v
// are tested; and no grown set contains another, since the missed sets
// are pairwise incomparable and contain no vertex of e.
//
// (Under a cancelled search, whose predicate turns constant-false, the
// antichain can break. The family then still consists of transversals,
// so every candidate still avoids every violating set found and the
// search still terminates; its result is discarded anyway.)
func fold(trans []relation.AttrSet, e relation.AttrSet) []relation.AttrSet {
	var kept, missed []relation.AttrSet
	for _, t := range trans {
		if t.Overlaps(e) {
			kept = append(kept, t)
		} else {
			missed = append(missed, t)
		}
	}
	out := make([]relation.AttrSet, len(kept), len(kept)+len(missed)*e.Size())
	copy(out, kept)
	var withV []relation.AttrSet
	for _, v := range e.Attrs() {
		withV = withV[:0]
		for _, k := range kept {
			if k.Has(v) {
				withV = append(withV, k)
			}
		}
	grown:
		for _, t := range missed {
			g := t.Add(v)
			for _, k := range withV {
				if k.SubsetOf(g) {
					continue grown
				}
			}
			out = append(out, g)
		}
	}
	return out
}

// advance runs one Dualize-&-Advance round: enumerate the maximal sets
// containing no minimal violating set. A satisfying candidate is provably
// maximal (any strict superset contains a minimal violating set); a
// violating candidate sharpens the negative border. Returns true while
// progress is possible.
func (f *Finder) advance() bool {
	f.stats.Rounds++
	progress := false
	for _, cand := range f.maximalAvoiding() {
		if slices.Contains(f.positive, cand) {
			continue
		}
		if f.eval(cand) {
			f.addPositive(cand)
			progress = true
		} else {
			f.walkDown(cand)
			return true // negative border sharpened; recompute candidates
		}
	}
	return progress
}

// maximalAvoiding lists, sorted, the maximal subsets of the universe
// containing no minimal violating set: the complements (within the
// universe) of the minimal transversals of the negative border.
func (f *Finder) maximalAvoiding() []relation.AttrSet {
	out := make([]relation.AttrSet, 0, len(f.trans))
	for _, t := range f.trans {
		c := f.universe.Diff(t)
		if !c.IsEmpty() {
			out = append(out, c)
		}
	}
	relation.SortAttrSets(out)
	return out
}
