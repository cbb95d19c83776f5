package workload

import (
	"math/rand"
	"reflect"
	"testing"

	"f2/internal/fd"
	"f2/internal/mas"
	"f2/internal/relation"
)

func TestGenerateDispatch(t *testing.T) {
	for _, name := range Names() {
		tbl, err := Generate(name, 100, 1)
		if err != nil {
			t.Fatalf("Generate(%s): %v", name, err)
		}
		if tbl.NumRows() != 100 {
			t.Errorf("%s: %d rows, want 100", name, tbl.NumRows())
		}
	}
	if _, err := Generate("nope", 10, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestOrdersShape(t *testing.T) {
	tbl := Orders(5000, 7)
	if tbl.NumAttrs() != 9 {
		t.Fatalf("Orders has %d attrs, want 9 (Table 1)", tbl.NumAttrs())
	}
	// Low-cardinality categoricals quoted in §5.3.
	if c := tbl.DistinctCount(tbl.Schema().Lookup("O_ORDERSTATUS")); c != 3 {
		t.Errorf("O_ORDERSTATUS distinct = %d, want 3", c)
	}
	if c := tbl.DistinctCount(tbl.Schema().Lookup("O_ORDERPRIORITY")); c != 5 {
		t.Errorf("O_ORDERPRIORITY distinct = %d, want 5", c)
	}
	// O_ORDERKEY unique.
	if c := tbl.DistinctCount(0); c != tbl.NumRows() {
		t.Errorf("O_ORDERKEY distinct = %d, want %d", c, tbl.NumRows())
	}
	// Planted FDs hold and are witnessed.
	sch := tbl.Schema()
	coded := relation.Encode(tbl)
	date := relation.NewAttrSet(sch.Lookup("O_ORDERDATE"))
	prio := relation.NewAttrSet(sch.Lookup("O_ORDERPRIORITY"))
	if !fd.Witnessed(coded, fd.FD{LHS: date, RHS: sch.Lookup("O_ORDERSTATUS")}) {
		t.Error("O_ORDERDATE→O_ORDERSTATUS not witnessed")
	}
	if !fd.Witnessed(coded, fd.FD{LHS: prio, RHS: sch.Lookup("O_SHIPPRIORITY")}) {
		t.Error("O_ORDERPRIORITY→O_SHIPPRIORITY not witnessed")
	}
	// No constant columns (F² cannot preserve ∅→A).
	for a := 0; a < tbl.NumAttrs(); a++ {
		if tbl.DistinctCount(a) < 2 {
			t.Errorf("column %s is constant", sch.Name(a))
		}
	}
}

func TestCustomerShape(t *testing.T) {
	tbl := Customer(5000, 7)
	if tbl.NumAttrs() != 21 {
		t.Fatalf("Customer has %d attrs, want 21 (Table 1)", tbl.NumAttrs())
	}
	sch := tbl.Schema()
	coded := relation.Encode(tbl)
	zip := relation.NewAttrSet(sch.Lookup("C_ZIP"))
	city := relation.NewAttrSet(sch.Lookup("C_CITY"))
	if !fd.Witnessed(coded, fd.FD{LHS: zip, RHS: sch.Lookup("C_CITY")}) {
		t.Error("C_ZIP→C_CITY not witnessed")
	}
	if !fd.Witnessed(coded, fd.FD{LHS: city, RHS: sch.Lookup("C_STATE")}) {
		t.Error("C_CITY→C_STATE not witnessed")
	}
	// C_ZIP→C_CITY must be an FD but C_CITY→C_STATE strictly many-to-one.
	if fd.Holds(coded, fd.FD{LHS: relation.NewAttrSet(sch.Lookup("C_STATE")), RHS: sch.Lookup("C_CITY")}) {
		t.Error("C_STATE→C_CITY should fail (state is many-to-one)")
	}
	for a := 0; a < tbl.NumAttrs(); a++ {
		if tbl.DistinctCount(a) < 2 {
			t.Errorf("column %s is constant", sch.Name(a))
		}
	}
	// Unique key columns stay unique.
	for _, name := range []string{"C_ID", "C_PHONE", "C_DATA"} {
		if c := tbl.DistinctCount(sch.Lookup(name)); c != tbl.NumRows() {
			t.Errorf("%s has %d distinct values, want %d", name, c, tbl.NumRows())
		}
	}
}

func TestCustomerGroundTruthMASs(t *testing.T) {
	sets := CustomerMASs()
	if len(sets) != 15 {
		t.Fatalf("CustomerMASs returns %d sets, want 15 (Table 1)", len(sets))
	}
	for i, s := range sets {
		if s.Size() != 11 {
			t.Errorf("MAS %d has %d attributes, want 11", i, s.Size())
		}
		for j := i + 1; j < len(sets); j++ {
			if !s.Overlaps(sets[j]) {
				t.Errorf("MASs %d and %d do not overlap (paper: all pairwise overlapping)", i, j)
			}
			if s.SubsetOf(sets[j]) || sets[j].SubsetOf(s) {
				t.Errorf("MASs %d and %d are nested", i, j)
			}
		}
	}
	tbl := Customer(3000, 5)
	got := mas.Discover(tbl)
	if !reflect.DeepEqual(got.Sets, sets) {
		t.Fatalf("discovered MASs != scripted ground truth:\n got %v\n want %v", got.Sets, sets)
	}
}

func TestSyntheticGroundTruthMASs(t *testing.T) {
	// SyntheticMinRows guarantees both MASs have duplicated instances;
	// staying below SyntheticMaxRows keeps them from merging.
	tbl := Synthetic(SyntheticMinRows, 3)
	if tbl.NumAttrs() != 7 {
		t.Fatalf("Synthetic has %d attrs, want 7 (Table 1)", tbl.NumAttrs())
	}
	want := []relation.AttrSet{relation.NewAttrSet(0, 1, 2), relation.NewAttrSet(2, 3, 4, 5, 6)}
	if got := mas.Discover(tbl); !reflect.DeepEqual(got.Sets, want) {
		t.Fatalf("MASs = %v, want %v", got.Sets, want)
	}
}

func TestSyntheticPlantedFDs(t *testing.T) {
	coded := relation.Encode(Synthetic(SyntheticMinRows, 4))
	// The two column groups are internally bijective.
	for _, f := range []fd.FD{
		{LHS: relation.NewAttrSet(0), RHS: 1},
		{LHS: relation.NewAttrSet(1), RHS: 0},
		{LHS: relation.NewAttrSet(3), RHS: 4},
		{LHS: relation.NewAttrSet(4), RHS: 3},
		{LHS: relation.NewAttrSet(3), RHS: 5},
		{LHS: relation.NewAttrSet(6), RHS: 4},
	} {
		if !fd.Witnessed(coded, f) {
			t.Errorf("planted FD %v not witnessed", f)
		}
	}
	// Cross-group and shared-attribute dependencies must fail.
	for _, f := range []fd.FD{
		{LHS: relation.NewAttrSet(0), RHS: 3}, // group 1 → group 2
		{LHS: relation.NewAttrSet(3), RHS: 0}, // group 2 → group 1
		{LHS: relation.NewAttrSet(0), RHS: 2}, // driver → shared attribute
		{LHS: relation.NewAttrSet(2), RHS: 0}, // shared attribute → driver
	} {
		if fd.Holds(coded, f) {
			t.Errorf("unexpected FD %v holds", f)
		}
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	a := Orders(200, 42)
	b := Orders(200, 42)
	c := Orders(200, 43)
	if !reflect.DeepEqual(a.SortedRows(), b.SortedRows()) {
		t.Error("same seed produced different Orders tables")
	}
	if reflect.DeepEqual(a.SortedRows(), c.SortedRows()) {
		t.Error("different seeds produced identical Orders tables")
	}
}

func TestTpccLastName(t *testing.T) {
	if got := tpccLastName(0); got != "BARBARBAR" {
		t.Errorf("tpccLastName(0) = %q", got)
	}
	if got := tpccLastName(371); got != "PRICALLYOUGHT" {
		t.Errorf("tpccLastName(371) = %q", got)
	}
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		seen[tpccLastName(i)] = true
	}
	if len(seen) != 1000 {
		t.Errorf("tpccLastName yields %d distinct names, want 1000", len(seen))
	}
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
