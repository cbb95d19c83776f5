package border

import (
	"math/rand"
	"reflect"
	"testing"

	"f2/internal/relation"
)

// bruteBorder computes the positive border by exhaustive enumeration.
func bruteBorder(universe relation.AttrSet, pred func(relation.AttrSet) bool) []relation.AttrSet {
	attrs := universe.Attrs()
	var satisfying []relation.AttrSet
	for mask := 1; mask < 1<<uint(len(attrs)); mask++ {
		var s relation.AttrSet
		for i, a := range attrs {
			if mask&(1<<uint(i)) != 0 {
				s = s.Add(a)
			}
		}
		if pred(s) {
			satisfying = append(satisfying, s)
		}
	}
	var out []relation.AttrSet
	for _, x := range satisfying {
		maximal := true
		for _, y := range satisfying {
			if x != y && x.SubsetOf(y) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, x)
		}
	}
	relation.SortAttrSets(out)
	return out
}

// downwardClosed builds a random downward-closed predicate from a set of
// maximal generators: pred(X) ⇔ X ⊆ some generator.
func downwardClosed(gens []relation.AttrSet) func(relation.AttrSet) bool {
	return func(x relation.AttrSet) bool {
		for _, g := range gens {
			if x.SubsetOf(g) {
				return true
			}
		}
		return false
	}
}

func TestFindMatchesBruteForceOnRandomPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	checks := 0
	for trial := 0; trial < 300; trial++ {
		m := 3 + rng.Intn(10) // universe of 3..12 attributes
		universe := relation.FullAttrSet(m)
		nGens := 1 + rng.Intn(5)
		var gens []relation.AttrSet
		for i := 0; i < nGens; i++ {
			g := relation.AttrSet(rng.Intn(1<<uint(m))) & universe
			if !g.IsEmpty() {
				gens = append(gens, g)
			}
		}
		if len(gens) == 0 {
			continue
		}
		pred := downwardClosed(gens)
		got, stats := Find(universe, pred)
		want := bruteBorder(universe, pred)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (m=%d gens=%v):\n got %v\n want %v", trial, m, gens, got, want)
		}
		checks += stats.Checks
	}
	// The walks and rounds must classify exactly the nodes a from-scratch
	// dualization does: this total was measured with the transversal
	// family rebuilt by Berge + minimization on every round.
	if checks != 12395 {
		t.Errorf("predicate evaluations over all trials = %d, want 12395", checks)
	}
}

func TestFindSparseUniverse(t *testing.T) {
	// Universe with holes: attributes {1, 3, 6}.
	universe := relation.NewAttrSet(1, 3, 6)
	pred := downwardClosed([]relation.AttrSet{relation.NewAttrSet(1, 3)})
	got, _ := Find(universe, pred)
	want := []relation.AttrSet{relation.NewAttrSet(1, 3)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestFindEdgeCases(t *testing.T) {
	// Empty universe.
	if got, _ := Find(0, func(relation.AttrSet) bool { return true }); got != nil {
		t.Errorf("empty universe: %v", got)
	}
	// Nothing satisfies.
	got, _ := Find(relation.FullAttrSet(4), func(relation.AttrSet) bool { return false })
	if got != nil {
		t.Errorf("false predicate: %v", got)
	}
	// Everything satisfies: border is the universe (fast path).
	got, stats := Find(relation.FullAttrSet(4), func(relation.AttrSet) bool { return true })
	if len(got) != 1 || got[0] != relation.FullAttrSet(4) {
		t.Errorf("true predicate: %v", got)
	}
	if stats != (Stats{Checks: 1}) {
		t.Errorf("fast path stats = %+v, want one check and no rounds", stats)
	}
}

func TestFindCountsChecks(t *testing.T) {
	universe := relation.FullAttrSet(6)
	gens := []relation.AttrSet{relation.NewAttrSet(0, 1, 2), relation.NewAttrSet(3, 4)}
	calls := 0
	pred := func(x relation.AttrSet) bool {
		calls++
		return downwardClosed(gens)(x)
	}
	_, stats := Find(universe, pred)
	checked := stats.Checks
	if checked != calls {
		t.Errorf("Checked = %d, actual predicate calls = %d", checked, calls)
	}
	// The border search must evaluate far fewer nodes than the 2^6 - 1
	// lattice.
	if checked >= 63 {
		t.Errorf("border search evaluated %d of 63 nodes — no pruning", checked)
	}
}

// minimizeSets removes duplicates and supersets, keeping only the
// inclusion-minimal sets.
func minimizeSets(sets []relation.AttrSet) []relation.AttrSet {
	relation.SortAttrSets(sets) // ascending size: minimal sets come first
	var out []relation.AttrSet
	for _, s := range sets {
		keep := true
		for _, t := range out {
			if t == s || t.SubsetOf(s) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, s)
		}
	}
	return out
}

// bergeFromScratch computes the minimal transversals of edges by the
// textbook Berge algorithm, minimizing after every edge: the reference
// the incremental fold must reproduce.
func bergeFromScratch(edges []relation.AttrSet) []relation.AttrSet {
	trans := []relation.AttrSet{0}
	for _, e := range edges {
		var next []relation.AttrSet
		for _, t := range trans {
			if t.Overlaps(e) {
				next = append(next, t)
				continue
			}
			for _, v := range e.Attrs() {
				next = append(next, t.Add(v))
			}
		}
		trans = minimizeSets(next)
	}
	return trans
}

func TestFoldMatchesBergeFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(16) // universe of 1..16 attributes
		maxSize := 1 + rng.Intn(m)
		trans := []relation.AttrSet{0}
		var edges []relation.AttrSet
		// Draw edges until there are 12 or the small universes saturate.
		for attempt := 0; len(edges) < 12 && attempt < 100; attempt++ {
			var e relation.AttrSet
			for size := 1 + rng.Intn(maxSize); e.Size() < size; {
				e = e.Add(rng.Intn(m))
			}
			// Keep the edges an antichain, as minimal violating sets are.
			comparable := false
			for _, old := range edges {
				if old.SubsetOf(e) || e.SubsetOf(old) {
					comparable = true
					break
				}
			}
			if comparable {
				continue
			}
			edges = append(edges, e)
			trans = fold(trans, e)
			got := append([]relation.AttrSet(nil), trans...)
			relation.SortAttrSets(got)
			if want := bergeFromScratch(edges); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (m=%d) after folding %v:\n got  %v\n want %v", trial, m, edges, got, want)
			}
		}
	}
}

func TestMinimizeSets(t *testing.T) {
	in := []relation.AttrSet{
		relation.NewAttrSet(0, 1),
		relation.NewAttrSet(0),
		relation.NewAttrSet(0, 1, 2),
		relation.NewAttrSet(2),
		relation.NewAttrSet(2),
	}
	out := minimizeSets(in)
	want := []relation.AttrSet{relation.NewAttrSet(0), relation.NewAttrSet(2)}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("minimizeSets = %v, want %v", out, want)
	}
}
