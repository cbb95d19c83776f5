package fd

import (
	"context"
	"math/rand"
	"testing"

	"f2/internal/obs"
	"f2/internal/partition"
	"f2/internal/relation"
)

func zipTable() *relation.Table {
	// Zipcode → City holds; City → Zipcode fails.
	return relation.MustFromRows(relation.MustSchema("Zip", "City", "Name"), [][]string{
		{"07030", "Hoboken", "alice"},
		{"07030", "Hoboken", "bob"},
		{"07302", "JerseyCity", "carol"},
		{"07310", "JerseyCity", "dave"},
		{"07310", "JerseyCity", "erin"},
	})
}

func TestHoldsAndWitnessed(t *testing.T) {
	tbl := partition.NewCache(relation.Encode(zipTable()))
	zipCity := FD{LHS: relation.NewAttrSet(0), RHS: 1}
	cityZip := FD{LHS: relation.NewAttrSet(1), RHS: 0}
	if !Holds(tbl, zipCity) {
		t.Error("Zip→City should hold")
	}
	if Holds(tbl, cityZip) {
		t.Error("City→Zip should fail")
	}
	if !Witnessed(tbl, zipCity) {
		t.Error("Zip→City should be witnessed")
	}
	// Name is a key: Name→City holds only vacuously.
	nameCity := FD{LHS: relation.NewAttrSet(2), RHS: 1}
	if !Holds(tbl, nameCity) {
		t.Error("Name→City should hold vacuously")
	}
	if Witnessed(tbl, nameCity) {
		t.Error("Name→City should not be witnessed")
	}
	// Trivial FDs hold but are never witnessed.
	triv := FD{LHS: relation.NewAttrSet(0, 1), RHS: 0}
	if !Holds(tbl, triv) || Witnessed(tbl, triv) {
		t.Error("trivial FD handling wrong")
	}
	// An empty LHS is checked on π_∅: ∅→City fails, and ∅→K holds, and is
	// witnessed, on a constant column of two rows.
	if Holds(tbl, FD{RHS: 1}) {
		t.Error("∅→City should fail")
	}
	konst := partition.NewCache(relation.Encode(relation.MustFromRows(relation.MustSchema("K"), [][]string{{"k"}, {"k"}})))
	if !Holds(konst, FD{RHS: 0}) || !Witnessed(konst, FD{RHS: 0}) {
		t.Error("∅→K should hold and be witnessed on a constant column")
	}
}

func TestSetOperations(t *testing.T) {
	f1 := FD{LHS: relation.NewAttrSet(0), RHS: 1}
	f2 := FD{LHS: relation.NewAttrSet(1), RHS: 2}
	s := NewSet(f1, f2, f1) // duplicate add
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Has(f1) || s.Has(FD{LHS: relation.NewAttrSet(2), RHS: 0}) {
		t.Error("Has wrong")
	}
	o := NewSet(f1)
	if s.Equal(o) {
		t.Error("Equal on different sets")
	}
	if !NewSet(f1, f2).Equal(NewSet(f2, f1)) {
		t.Error("Equal should be order-insensitive")
	}
}

func TestSliceDeterministic(t *testing.T) {
	s := NewSet(
		FD{LHS: relation.NewAttrSet(2), RHS: 0},
		FD{LHS: relation.NewAttrSet(1), RHS: 0},
		FD{LHS: relation.NewAttrSet(1, 2), RHS: 1},
	)
	a := s.Slice()
	b := s.Slice()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Slice not deterministic")
		}
	}
}

// bruteForce is the exhaustive reference for discovery: every minimal
// non-trivial X→A that valid accepts (Holds for all FDs, Witnessed for
// the witnessed ones), found by enumerating each RHS's candidate LHSs by
// ascending size. Exponential in the number of attributes.
func bruteForce(t *relation.Table, valid func(*partition.Cache, FD) bool) *Set {
	m, c := t.NumAttrs(), partition.NewCache(relation.Encode(t))
	out := NewSet()
	for rhs := 0; rhs < m; rhs++ {
		var found []relation.AttrSet
		for _, lhs := range allSubsetsBySize(relation.FullAttrSet(m).Remove(rhs)) {
			covered := false
			for _, y := range found {
				if y.SubsetOf(lhs) {
					covered = true
					break
				}
			}
			if !covered && valid(c, FD{LHS: lhs, RHS: rhs}) {
				found = append(found, lhs)
				out.Add(FD{LHS: lhs, RHS: rhs})
			}
		}
	}
	return out
}

// allSubsetsBySize returns every non-empty subset of universe, ordered by
// ascending size.
func allSubsetsBySize(universe relation.AttrSet) []relation.AttrSet {
	var out []relation.AttrSet
	attrs := universe.Attrs()
	n := len(attrs)
	for mask := 1; mask < 1<<uint(n); mask++ {
		var s relation.AttrSet
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				s = s.Add(attrs[i])
			}
		}
		out = append(out, s)
	}
	relation.SortAttrSets(out)
	return out
}

func TestBruteForceZipTable(t *testing.T) {
	got := bruteForce(zipTable(), Holds)
	if !got.Has(FD{LHS: relation.NewAttrSet(0), RHS: 1}) {
		t.Errorf("BruteForce missing Zip→City: %v", got)
	}
	// Name is a key ⇒ Name→Zip, Name→City minimal.
	if !got.Has(FD{LHS: relation.NewAttrSet(2), RHS: 0}) {
		t.Errorf("BruteForce missing Name→Zip: %v", got)
	}
	// City→Zip must be absent.
	if got.Has(FD{LHS: relation.NewAttrSet(1), RHS: 0}) {
		t.Errorf("BruteForce contains City→Zip: %v", got)
	}
}

func TestTANEMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		attrs := 2 + rng.Intn(4)
		rows := 2 + rng.Intn(30)
		domain := 1 + rng.Intn(4)
		tbl := randomTable(rng, attrs, rows, domain)
		want := bruteForce(tbl, Holds)
		got := Discover(tbl)
		if !want.Equal(got) {
			t.Fatalf("trial %d (a=%d r=%d d=%d):\n brute: %v\n tane:  %v\n%v",
				trial, attrs, rows, domain, want, got, tbl)
		}
	}
}

func TestTANEWitnessedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		tbl := randomTable(rng, 2+rng.Intn(3), 3+rng.Intn(25), 2+rng.Intn(3))
		want := bruteForce(tbl, Witnessed)
		got := DiscoverWitnessed(tbl)
		if !want.Equal(got) {
			t.Fatalf("trial %d:\n brute: %v\n tane: %v\n%v", trial, want, got, tbl)
		}
	}
}

func TestTANEEdgeCases(t *testing.T) {
	// Empty table.
	empty := relation.NewTable(relation.MustSchema("A", "B"))
	if got := Discover(empty); got.Len() != 0 {
		t.Errorf("empty table FDs = %v", got)
	}
	// Single row: every X→A holds vacuously; minimal = singleton LHSs.
	one := relation.MustFromRows(relation.MustSchema("A", "B"), [][]string{{"x", "y"}})
	got := Discover(one)
	if !got.Equal(bruteForce(one, Holds)) {
		t.Errorf("single-row mismatch: tane=%v brute=%v", got, bruteForce(one, Holds))
	}
	// Single column: no non-trivial FDs possible.
	col := relation.MustFromRows(relation.MustSchema("A"), [][]string{{"x"}, {"x"}, {"y"}})
	if got := Discover(col); got.Len() != 0 {
		t.Errorf("single-column FDs = %v", got)
	}
	// Identical columns: A→B and B→A.
	dup := relation.MustFromRows(relation.MustSchema("A", "B"), [][]string{
		{"1", "1"}, {"2", "2"}, {"1", "1"},
	})
	got = Discover(dup)
	if !got.Has(FD{LHS: relation.NewAttrSet(0), RHS: 1}) || !got.Has(FD{LHS: relation.NewAttrSet(1), RHS: 0}) {
		t.Errorf("identical columns: %v", got)
	}
}

// TestTANEFreesPrunedPartitions checks that a finished run holds only the
// partitions of the last level's survivors: candidates PRUNE dropped
// (superkeys, empty C⁺) must not keep their partitions until the run
// ends, nor may earlier levels. It also checks the order every level's
// binary searches rely on: strictly ascending sets of the level's size.
func TestTANEFreesPrunedPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 100; trial++ {
		tbl := randomTable(rng, 3+rng.Intn(4), 5+rng.Intn(60), 2+rng.Intn(4))
		ta, err := runTANE(context.Background(), tbl)
		if err != nil {
			t.Fatal(err)
		}
		for l, level := range ta.lattice {
			last := l == len(ta.lattice)-1
			for i, n := range level {
				if n.x.Size() != l+1 || i > 0 && level[i-1].x >= n.x {
					t.Fatalf("trial %d: level %d holds %v after %v", trial, l+1, n.x, level[max(i-1, 0)].x)
				}
				if n.part != nil && (!last || n.pruned) {
					t.Fatalf("trial %d: %v (level %d of %d, pruned %v) still holds its partition", trial, n.x, l+1, len(ta.lattice), n.pruned)
				}
				if last && !n.pruned && (n.part == nil || n.cplus.IsEmpty() || !n.part.HasDuplicate()) {
					t.Fatalf("trial %d: survivor %v lost its partition or should have been pruned", trial, n.x)
				}
			}
		}
	}
}

// TestDiscoverSpan checks that a traced discovery records an fd.discover
// span with the run's shape. Name is a key, so level 1 prunes it and
// level 2 holds the single candidate {Zip,City}.
func TestDiscoverSpan(t *testing.T) {
	tbl := zipTable()
	ctx, tr := obs.NewTrace(context.Background(), "", "fds")
	if _, err := DiscoverWitnessedCtx(ctx, tbl); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	root := tr.Snapshot().Root
	if len(root.Children) != 1 || root.Children[0].Name != "fd.discover" {
		t.Fatalf("spans = %+v, want one fd.discover", root.Children)
	}
	attrs := root.Children[0].Attrs
	if attrs["rows"] != 5 || attrs["attrs"] != 3 || attrs["levels"] != 2 || attrs["products"] != 1 {
		t.Errorf("fd.discover attrs = %v", attrs)
	}
}

func TestFDStringRendering(t *testing.T) {
	f := FD{LHS: relation.NewAttrSet(0, 2), RHS: 1}
	if got := f.String(); got != "{A0,A2}->A1" {
		t.Errorf("String = %q", got)
	}
	sch := relation.MustSchema("Zip", "City", "Name")
	if got := f.Names(sch); got != "{Zip,Name}->City" {
		t.Errorf("Names = %q", got)
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
