package mas

import (
	"math/rand"
	"reflect"
	"testing"

	"f2/internal/border"
	"f2/internal/fd"
	"f2/internal/relation"
)

func figure1Table() *relation.Table {
	return relation.MustFromRows(relation.MustSchema("A", "B", "C"), [][]string{
		{"a1", "b1", "c1"},
		{"a1", "b1", "c2"},
		{"a1", "b1", "c3"},
		{"a1", "b1", "c1"},
	})
}

// agreementSet returns the attributes on which rows i and j of t agree.
func agreementSet(t *relation.Table, i, j int) relation.AttrSet {
	var s relation.AttrSet
	for a := 0; a < t.NumAttrs(); a++ {
		if t.Cell(i, a) == t.Cell(j, a) {
			s = s.Add(a)
		}
	}
	return s
}

// bruteForce exhaustively enumerates every row pair, collects the
// distinct agreement sets, and returns the inclusion-maximal ones. X is
// non-unique iff some row pair agrees on all of X, so the maximal
// agreement sets are exactly the MASs. O(n²·m).
//
// (An earlier version enumerated all 2^m attribute masks with an upper
// bound of FullAttrSet(m)+1, which wraps to zero at m = relation.MaxAttrs
// — the loop body never ran and a 64-attribute table silently reported no
// MASs. Pair enumeration has no such boundary and is exact for every m.)
func bruteForce(t *relation.Table) []relation.AttrSet {
	seen := make(map[relation.AttrSet]bool)
	for i := 0; i < t.NumRows(); i++ {
		for j := i + 1; j < t.NumRows(); j++ {
			if a := agreementSet(t, i, j); !a.IsEmpty() {
				seen[a] = true
			}
		}
	}
	agree := make([]relation.AttrSet, 0, len(seen))
	for a := range seen {
		agree = append(agree, a)
	}
	// The map drops duplicates in whatever order iteration visits them;
	// sort so the returned MAS list is identical run to run (the oracle
	// is diffed against engine output in tests).
	relation.SortAttrSets(agree)
	var out []relation.AttrSet
	for _, x := range agree {
		maximal := true
		for _, y := range agree {
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

func TestDiscoverFigure1(t *testing.T) {
	// The paper (§3.1): the MAS of Figure 1(a) is {A,B,C}.
	got := Discover(figure1Table())
	want := []relation.AttrSet{relation.NewAttrSet(0, 1, 2)}
	if !reflect.DeepEqual(got.Sets, want) {
		t.Fatalf("MASs = %v, want %v", got.Sets, want)
	}
	if p := got.Partitions[want[0]]; p == nil || p.NumClasses() != 3 {
		t.Fatalf("partition missing or wrong: %+v", p)
	}
}

func TestDiscoverMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		attrs := 2 + rng.Intn(5)
		rows := 2 + rng.Intn(40)
		domain := 1 + rng.Intn(4)
		tbl := randomTable(rng, attrs, rows, domain)
		want := bruteForce(tbl)
		got := Discover(tbl)
		if !reflect.DeepEqual(got.Sets, want) {
			t.Fatalf("trial %d (a=%d r=%d d=%d):\n ducc:  %v\n brute: %v\n%v",
				trial, attrs, rows, domain, got.Sets, want, tbl)
		}
	}
}

func TestLevelwiseMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		tbl := randomTable(rng, 2+rng.Intn(4), 2+rng.Intn(30), 1+rng.Intn(4))
		want := bruteForce(tbl)
		got := DiscoverLevelwise(tbl)
		if !reflect.DeepEqual(got.Sets, want) {
			t.Fatalf("trial %d:\n levelwise: %v\n brute: %v\n%v", trial, got.Sets, want, tbl)
		}
	}
}

func TestDiscoverEdgeCases(t *testing.T) {
	// All-unique table: no MAS.
	uniq := relation.MustFromRows(relation.MustSchema("A", "B"), [][]string{
		{"1", "x"}, {"2", "y"}, {"3", "z"},
	})
	if got := Discover(uniq); len(got.Sets) != 0 {
		t.Errorf("unique table MASs = %v", got.Sets)
	}
	// Fully duplicated rows: the full attribute set is the single MAS.
	dup := relation.MustFromRows(relation.MustSchema("A", "B"), [][]string{
		{"1", "x"}, {"1", "x"},
	})
	if got := Discover(dup); len(got.Sets) != 1 || got.Sets[0] != relation.NewAttrSet(0, 1) {
		t.Errorf("duplicated table MASs = %v", got.Sets)
	}
	// Single-row table: no MAS.
	one := relation.MustFromRows(relation.MustSchema("A"), [][]string{{"v"}})
	if got := Discover(one); len(got.Sets) != 0 {
		t.Errorf("single-row MASs = %v", got.Sets)
	}
	// Empty table.
	empty := relation.NewTable(relation.MustSchema("A", "B"))
	if got := Discover(empty); len(got.Sets) != 0 {
		t.Errorf("empty-table MASs = %v", got.Sets)
	}
}

func TestDiscoverPartitionsMatchSets(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tbl := randomTable(rng, 4, 30, 3)
	got := Discover(tbl)
	if len(got.Partitions) != len(got.Sets) {
		t.Fatalf("%d partitions for %d sets", len(got.Partitions), len(got.Sets))
	}
	for _, m := range got.Sets {
		p, ok := got.Partitions[m]
		if !ok {
			t.Fatalf("missing partition for %v", m)
		}
		if p.Attrs != m {
			t.Errorf("partition attrs %v ≠ %v", p.Attrs, m)
		}
		if p.MaxClassSize() < 2 {
			t.Errorf("MAS %v has no duplicate instance", m)
		}
	}
}

// TestCovering checks the §3.1 fact that makes MAS-wise encryption
// FD-preserving: every witnessed FD X→A of D lies inside some MAS, i.e.
// X∪{A} is a subset of a discovered MAS.
func TestCovering(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	checked := 0
	for trial := 0; trial < 200; trial++ {
		tbl := randomTable(rng, 2+rng.Intn(4), 2+rng.Intn(30), 1+rng.Intn(4))
		sets := Discover(tbl).Sets
		for _, f := range fd.DiscoverWitnessed(tbl).Slice() {
			checked++
			covered := false
			for _, m := range sets {
				covered = covered || f.LHS.Add(f.RHS).SubsetOf(m)
			}
			if !covered {
				t.Fatalf("trial %d: witnessed FD %v lies in no MAS of %v\n%v", trial, f, sets, tbl)
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d witnessed FDs generated", checked)
	}
	t.Logf("%d witnessed FDs, each inside a MAS", checked)
}

// TestDuccCheaperThanLevelwise documents the complexity claim of §3.1: the
// DUCC walk performs no more uniqueness checks than the exhaustive
// levelwise sweep on lattices with large non-unique regions.
func TestDuccCheckCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tbl := randomTable(rng, 8, 200, 2) // small domain ⇒ deep non-unique lattice
	ducc := Discover(tbl)
	level := DiscoverLevelwise(tbl)
	if !reflect.DeepEqual(ducc.Sets, level.Sets) {
		t.Fatalf("disagreement: %v vs %v", ducc.Sets, level.Sets)
	}
	if ducc.Checked > level.Checked {
		t.Logf("note: ducc=%d checks, levelwise=%d checks", ducc.Checked, level.Checked)
	}
}

func randomTable(rng *rand.Rand, attrs, rows, domain int) *relation.Table {
	names := make([]string, attrs)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	tbl := relation.NewTable(relation.MustSchema(names...))
	for r := 0; r < rows; r++ {
		row := make([]string, attrs)
		for a := range row {
			row[a] = string(rune('a'+a)) + string(rune('0'+rng.Intn(domain)))
		}
		tbl.AppendRow(row)
	}
	return tbl
}

// TestDiscoverUnderEvictionMatchesScan runs both discoveries on a wide,
// low-cardinality table whose PLIs outgrow the cache budget, so the
// uniqueness oracle evicts along the walk. Evictions change only what a
// check costs: the DUCC walk returns the same MASs after the same number
// of checks as a walk whose predicate is Table.HasDuplicateOn, which
// caches nothing, and the levelwise sweep matches the brute-force border.
func TestDiscoverUnderEvictionMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tbl := randomTable(rng, 14, 150, 2)
	want, stats := border.Find(relation.FullAttrSet(14), tbl.HasDuplicateOn)
	r := Discover(tbl)
	if r.PLIs.Evictions == 0 {
		t.Fatalf("no eviction over %d products: the table does not exercise the budget", r.PLIs.Products)
	}
	if !reflect.DeepEqual(r.Sets, want) || r.Checked != stats.Checks {
		t.Fatalf("evicting walk: %d MASs after %d checks; scanning walk: %d after %d",
			len(r.Sets), r.Checked, len(want), stats.Checks)
	}
	level := DiscoverLevelwise(tbl)
	if level.PLIs.Evictions == 0 {
		t.Fatalf("levelwise: no eviction over %d products", level.PLIs.Products)
	}
	if brute := bruteForce(tbl); !reflect.DeepEqual(level.Sets, brute) {
		t.Fatalf("levelwise under eviction found %d MASs, brute force %d", len(level.Sets), len(brute))
	}
}
