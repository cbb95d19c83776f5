package mas

import (
	"math/rand"
	"reflect"
	"testing"

	"f2/internal/border"
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
		want := BruteForce(tbl)
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
		want := BruteForce(tbl)
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
		if !p.HasDuplicate() {
			t.Errorf("MAS %v has no duplicate instance", m)
		}
	}
}

func TestOverlappingPairs(t *testing.T) {
	sets := []relation.AttrSet{
		relation.NewAttrSet(0, 1),
		relation.NewAttrSet(1, 2),
		relation.NewAttrSet(3, 4),
	}
	pairs := OverlappingPairs(sets)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v, want one pair", pairs)
	}
	if pairs[0][0] != relation.NewAttrSet(0, 1) || pairs[0][1] != relation.NewAttrSet(1, 2) {
		t.Errorf("pair = %v", pairs[0])
	}
}

func TestCovering(t *testing.T) {
	sets := []relation.AttrSet{relation.NewAttrSet(0, 1, 2), relation.NewAttrSet(2, 3)}
	if m, ok := Covering(sets, relation.NewAttrSet(0, 2)); !ok || m != relation.NewAttrSet(0, 1, 2) {
		t.Errorf("Covering = %v, %v", m, ok)
	}
	if _, ok := Covering(sets, relation.NewAttrSet(0, 3)); ok {
		t.Error("Covering found a cover that does not exist")
	}
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
	if brute := BruteForce(tbl); !reflect.DeepEqual(level.Sets, brute) {
		t.Fatalf("levelwise under eviction found %d MASs, brute force %d", len(level.Sets), len(brute))
	}
}
