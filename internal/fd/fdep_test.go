package fd

import (
	"math/rand"
	"testing"

	"f2/internal/relation"
)

// FDEP implements the dependency-induction algorithm of Flach & Savnik
// (bottom-up variant): compute the *negative cover* — for every pair of
// rows, the agreement set A(r1,r2) witnesses that A→B is violated for all
// B outside it — then specialize the positive cover against every
// violation. It is a completely independent route to the minimal FDs from
// TANE's levelwise partition refinement, which makes it a strong
// cross-check oracle at mid scale (O(n²·m) pair scanning, so keep n in the
// thousands), and it is one of the seven algorithms surveyed in the
// paper's related work [24].
//
// Like Discover, FDs with an empty LHS (constant columns) are excluded;
// see the TANE note.
func FDEP(t *relation.Table) *Set {
	m := t.NumAttrs()
	n := t.NumRows()
	if m == 0 || n == 0 {
		return NewSet()
	}
	full := relation.FullAttrSet(m)

	// 1. Negative cover: the distinct maximal agreement sets. For each
	// violated pair (agreement set A, attribute B ∉ A) the dependency
	// X→B is invalid for every X ⊆ A. Deduplicate agreement sets and keep
	// only the maximal ones — subsets impose weaker constraints.
	agreeSets := make(map[relation.AttrSet]bool)
	cols := make([][]int32, m)
	coded := relation.Encode(t)
	for a := 0; a < m; a++ {
		cols[a] = coded.Column(a)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var agree relation.AttrSet
			for a := 0; a < m; a++ {
				if cols[a][i] == cols[a][j] {
					agree = agree.Add(a)
				}
			}
			agreeSets[agree] = true
		}
	}
	var allAgree []relation.AttrSet
	for a := range agreeSets {
		allAgree = append(allAgree, a)
	}

	// 2. Positive cover per RHS: maintain a set of minimal LHS candidates,
	// starting from the most general allowed ones (the singletons). Every
	// agreement set A with RHS ∉ A invalidates all candidates X ⊆ A, which
	// are replaced by their minimal specializations X ∪ {c}, c ∉ A∪{RHS}.
	out := NewSet()
	for rhs := 0; rhs < m; rhs++ {
		// Most general candidates: the singletons (empty LHSs — constant
		// columns — are excluded, as in Discover).
		var lhss []relation.AttrSet
		for a := 0; a < m; a++ {
			if a != rhs {
				lhss = append(lhss, relation.SingleAttr(a))
			}
		}
		// Violations for this RHS: agreement sets not containing it.
		// Maximality filtering is per RHS — a witness {A,B} must not be
		// absorbed by a larger agreement set {A,B,RHS} that is harmless
		// for this RHS.
		var violating []relation.AttrSet
		for _, a := range allAgree {
			if !a.Has(rhs) {
				violating = append(violating, a)
			}
		}
		for _, agree := range maximalSets(violating) {
			var next []relation.AttrSet
			for _, x := range lhss {
				if !x.SubsetOf(agree) {
					next = append(next, x) // unaffected
					continue
				}
				// Specialize: add one attribute outside agree ∪ {rhs}.
				for _, c := range full.Diff(agree).Remove(rhs).Attrs() {
					next = append(next, x.Add(c))
				}
			}
			lhss = minimalSets(next)
		}
		for _, x := range lhss {
			if !x.IsEmpty() {
				out.Add(FD{LHS: x, RHS: rhs})
			}
		}
	}
	return out
}

// maximalSets keeps the inclusion-maximal sets of the input.
func maximalSets(sets []relation.AttrSet) []relation.AttrSet {
	relation.SortAttrSets(sets)
	var out []relation.AttrSet
	for i := len(sets) - 1; i >= 0; i-- {
		dominated := false
		for _, big := range out {
			if sets[i].SubsetOf(big) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, sets[i])
		}
	}
	relation.SortAttrSets(out)
	return out
}

// minimalSets deduplicates and keeps the inclusion-minimal sets.
func minimalSets(sets []relation.AttrSet) []relation.AttrSet {
	relation.SortAttrSets(sets)
	var out []relation.AttrSet
	for _, s := range sets {
		dominated := false
		for _, small := range out {
			if small == s || small.SubsetOf(s) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, s)
		}
	}
	return out
}

func TestFDEPMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		attrs := 2 + rng.Intn(4)
		rows := 2 + rng.Intn(25)
		domain := 1 + rng.Intn(4)
		tbl := randomTable(rng, attrs, rows, domain)
		want := bruteForce(tbl, Holds)
		got := FDEP(tbl)
		if !want.Equal(got) {
			t.Fatalf("trial %d (a=%d r=%d d=%d):\n brute: %v\n fdep: %v\n%v",
				trial, attrs, rows, domain, want, got, tbl)
		}
	}
}

func TestFDEPMatchesTANE(t *testing.T) {
	// Cross-check the two independent algorithms on slightly larger
	// tables than brute force can handle.
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 20; trial++ {
		tbl := randomTable(rng, 5+rng.Intn(2), 100+rng.Intn(200), 2+rng.Intn(3))
		tane := Discover(tbl)
		fdep := FDEP(tbl)
		if !tane.Equal(fdep) {
			t.Fatalf("trial %d: TANE %v ≠ FDEP %v", trial, tane, fdep)
		}
	}
}

func TestFDEPEdgeCases(t *testing.T) {
	empty := relation.NewTable(relation.MustSchema("A", "B"))
	if got := FDEP(empty); got.Len() != 0 {
		t.Errorf("empty: %v", got)
	}
	one := relation.MustFromRows(relation.MustSchema("A", "B"), [][]string{{"x", "y"}})
	if got, want := FDEP(one), Discover(one); !got.Equal(want) {
		t.Errorf("single row: fdep %v, tane %v", got, want)
	}
}

// FuzzTANE decodes a table from the fuzz bytes — the first byte picks the
// width (1 to 6 columns), every further byte one cell from a domain of
// four values, at most 64 rows — and checks TANE against FDEP, the
// independent oracle: Discover must equal FDEP, and DiscoverWitnessed must
// equal FDEP's FDs whose LHS has a duplicate.
func FuzzTANE(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 1, 1, 2, 1, 2})
	f.Add([]byte{3, 0, 1, 2, 0, 1, 3, 1, 1, 2, 1, 1, 2})
	f.Add([]byte{5, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 2, 3, 0, 1, 0, 3, 3, 3, 3, 3})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		attrs := 1 + int(data[0]%6)
		names := make([]string, attrs)
		for a := range names {
			names[a] = string(rune('A' + a))
		}
		var rows [][]string
		for cells := data[1:]; len(cells) >= attrs && len(rows) < 64; cells = cells[attrs:] {
			row := make([]string, attrs)
			for a := range row {
				row[a] = string(rune('0' + cells[a]%4))
			}
			rows = append(rows, row)
		}
		tbl := relation.MustFromRows(relation.MustSchema(names...), rows)
		fdep := FDEP(tbl)
		if tane := Discover(tbl); !tane.Equal(fdep) {
			t.Fatalf("TANE %v ≠ FDEP %v on %v", tane, fdep, rows)
		}
		want := NewSet()
		for _, f := range fdep.Slice() {
			if tbl.HasDuplicateOn(f.LHS) {
				want.Add(f)
			}
		}
		if got := DiscoverWitnessed(tbl); !got.Equal(want) {
			t.Fatalf("witnessed TANE %v ≠ witnessed FDEP %v on %v", got, want, rows)
		}
	})
}
