package partition

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"f2/internal/relation"
)

func sampleTable() *relation.Table {
	return relation.MustFromRows(relation.MustSchema("A", "B", "C"), [][]string{
		{"a1", "b1", "c1"},
		{"a1", "b1", "c2"},
		{"a1", "b2", "c1"},
		{"a2", "b2", "c3"},
		{"a2", "b2", "c3"},
	})
}

func TestPartitionOf(t *testing.T) {
	tbl := sampleTable()
	p := Of(tbl, relation.NewAttrSet(0))
	if p.NumClasses() != 2 {
		t.Fatalf("π_A has %d classes, want 2", p.NumClasses())
	}
	sizes := []int{p.Classes[0].Size(), p.Classes[1].Size()}
	sort.Ints(sizes)
	if sizes[0] != 2 || sizes[1] != 3 {
		t.Errorf("class sizes = %v, want [2 3]", sizes)
	}
	if p.MaxClassSize() != 3 {
		t.Errorf("MaxClassSize = %d", p.MaxClassSize())
	}
	full := Of(tbl, relation.NewAttrSet(0, 1, 2))
	if full.NumClasses() != 4 {
		t.Errorf("π_ABC has %d classes, want 4", full.NumClasses())
	}
}

func TestPartitionClassesCoverTable(t *testing.T) {
	tbl := sampleTable()
	p := Of(tbl, relation.NewAttrSet(1))
	seen := make(map[int]bool)
	for _, c := range p.Classes {
		for _, r := range c.Rows {
			if seen[r] {
				t.Fatalf("row %d in two classes", r)
			}
			seen[r] = true
		}
	}
	if len(seen) != tbl.NumRows() {
		t.Fatalf("classes cover %d rows, want %d", len(seen), tbl.NumRows())
	}
}

func TestNonSingletonSortedAscending(t *testing.T) {
	tbl := sampleTable()
	p := Of(tbl, relation.NewAttrSet(0))
	ns := p.NonSingletonClasses()
	for i := 1; i < len(ns); i++ {
		if ns[i-1].Size() > ns[i].Size() {
			t.Fatal("NonSingletonClasses not ascending")
		}
	}
}

func TestStrippedColumn(t *testing.T) {
	s := NewCache(relation.Encode(sampleTable())).Get(relation.NewAttrSet(2))
	// c1 ×2, c2 ×1, c3 ×2 ⇒ two stripped classes.
	if len(s.ends) != 2 {
		t.Fatalf("stripped π_C has %d classes, want 2", len(s.ends))
	}
	if len(s.rows) != 4 {
		t.Errorf("||π|| = %d, want 4", len(s.rows))
	}
	if s.ErrorMeasure() != 2 {
		t.Errorf("ErrorMeasure = %d, want 2", s.ErrorMeasure())
	}
	if !s.HasDuplicate() {
		t.Error("should have duplicates")
	}
}

// TestStrippedSingleMatchesGeneric: each single-column PLI the cache
// builds (π_∅ split by the column) is, class for class, the string-key
// grouping of that column with its singletons dropped.
func TestStrippedSingleMatchesGeneric(t *testing.T) {
	tbl := sampleTable()
	cache := NewCache(relation.Encode(tbl))
	for a := 0; a < tbl.NumAttrs(); a++ {
		x := relation.SingleAttr(a)
		s1, s2 := cache.Get(x), modelPLI(tbl, x)
		if s1.Attrs != x || !sameStripped(s1, s2) {
			t.Errorf("attr %d: cache PLI %v vs string-key grouping %v",
				a, classesOf(s1), classesOf(s2))
		}
	}
}

// TestProductMatchesDirect: the product π_X · π_Y, taken by splitting π_X
// by each column of Y in turn, is the stripped partition of X ∪ Y.
func TestProductMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ws := NewWorkspace()
	for trial := 0; trial < 50; trial++ {
		tbl := randomTable(rng, 4, 30, 3)
		c := relation.Encode(tbl)
		x := relation.AttrSet(rng.Intn(15) + 1).Intersect(relation.FullAttrSet(4))
		y := relation.AttrSet(rng.Intn(15) + 1).Intersect(relation.FullAttrSet(4))
		if x.IsEmpty() || y.IsEmpty() {
			continue
		}
		prod := modelPLI(tbl, x)
		for rest := y; !rest.IsEmpty(); rest = rest.Remove(rest.First()) {
			prod = ProductColumn(prod, c, rest.First(), ws)
		}
		direct := modelPLI(tbl, x.Union(y))
		if prod.Attrs != x.Union(y) || !sameStripped(prod, direct) {
			t.Fatalf("trial %d: π_%v · π_%v ≠ direct\nprod: %v\ndirect: %v",
				trial, x, y, classesOf(prod), classesOf(direct))
		}
	}
}

// TestProductColumnMatchesProduct: splitting the stripped partition of X
// by column a's codes gives the product partition π_{X ∪ {a}}, class for
// class, including a ∈ X and the table with no rows.
func TestProductColumnMatchesProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	ws := NewWorkspace()
	for trial := 0; trial < 200; trial++ {
		attrs := 2 + rng.Intn(4)
		tbl := randomTable(rng, attrs, rng.Intn(60), 1+rng.Intn(6))
		c := relation.Encode(tbl)
		x := relation.AttrSet(rng.Int63()).Intersect(relation.FullAttrSet(attrs))
		if x.IsEmpty() {
			continue
		}
		px := modelPLI(tbl, x)
		for a := 0; a < attrs; a++ {
			prod, direct := ProductColumn(px, c, a, ws), modelPLI(tbl, x.Add(a))
			if prod.Attrs != x.Add(a) || !sameStripped(prod, direct) {
				t.Fatalf("trial %d: ProductColumn(%v, %d) ≠ direct\nprod: %v\ndirect: %v",
					trial, x, a, classesOf(prod), classesOf(direct))
			}
		}
	}
}

// TestProductWithWorkspaceReuse chains products through one workspace, so
// scratch left by a wider split must not leak into a narrower one.
func TestProductWithWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tbl := randomTable(rng, 5, 60, 3)
	c := relation.Encode(tbl)
	ws := NewWorkspace()
	for trial := 0; trial < 30; trial++ {
		x := relation.AttrSet(rng.Intn(31) + 1)
		p := modelPLI(tbl, relation.SingleAttr(x.First()))
		for rest := x.Remove(x.First()); !rest.IsEmpty(); rest = rest.Remove(rest.First()) {
			p = ProductColumn(p, c, rest.First(), ws)
		}
		if !sameStripped(p, modelPLI(tbl, x)) {
			t.Fatalf("trial %d: workspace reuse corrupted the product for %v", trial, x)
		}
	}
}

func TestRefinesAttr(t *testing.T) {
	tbl := sampleTable()
	c := relation.Encode(tbl)
	sab := modelPLI(tbl, relation.NewAttrSet(0, 1))
	if !sab.RefinesAttr(c.Column(0)) {
		t.Error("AB → A must hold")
	}
	sa := modelPLI(tbl, relation.NewAttrSet(0))
	if sa.RefinesAttr(c.Column(1)) {
		t.Error("A → B must fail")
	}
}

func sameStripped(a, b *Stripped) bool {
	ca := canonClasses(a)
	cb := canonClasses(b)
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if len(ca[i]) != len(cb[i]) {
			return false
		}
		for j := range ca[i] {
			if ca[i][j] != cb[i][j] {
				return false
			}
		}
	}
	return true
}

func canonClasses(s *Stripped) [][]int32 {
	out := classesOf(s)
	for _, c := range out {
		slices.Sort(c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// classesOf copies the classes of s out of its flat layout, in order.
func classesOf(s *Stripped) [][]int32 {
	out := make([][]int32, 0, len(s.ends))
	start := int32(0)
	for _, end := range s.ends {
		out = append(out, slices.Clone(s.rows[start:end]))
		start = end
	}
	return out
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
