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

func TestStrippedOf(t *testing.T) {
	s := StrippedOf(relation.Encode(sampleTable()), relation.NewAttrSet(2))
	// c1 ×2, c2 ×1, c3 ×2 ⇒ two stripped classes.
	if s.NumClasses() != 2 {
		t.Fatalf("stripped π_C has %d classes, want 2", s.NumClasses())
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

func TestStrippedSingleMatchesGeneric(t *testing.T) {
	tbl := sampleTable()
	c := relation.Encode(tbl)
	for a := 0; a < tbl.NumAttrs(); a++ {
		s1 := StrippedSingle(c, a)
		s2 := StrippedOf(c, relation.SingleAttr(a))
		if len(s1.rows) != len(s2.rows) || s1.NumClasses() != s2.NumClasses() {
			t.Errorf("attr %d: StrippedSingle %d/%d vs StrippedOf %d/%d",
				a, s1.NumClasses(), len(s1.rows), s2.NumClasses(), len(s2.rows))
		}
	}
}

func TestProductMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		c := relation.Encode(randomTable(rng, 4, 30, 3))
		x := relation.AttrSet(rng.Intn(15) + 1).Intersect(relation.FullAttrSet(4))
		y := relation.AttrSet(rng.Intn(15) + 1).Intersect(relation.FullAttrSet(4))
		if x.IsEmpty() || y.IsEmpty() {
			continue
		}
		px := StrippedOf(c, x)
		py := StrippedOf(c, y)
		prod := Product(px, py, nil)
		direct := StrippedOf(c, x.Union(y))
		if !sameStripped(prod, direct) {
			t.Fatalf("trial %d: Product(%v,%v) ≠ direct\nprod: %v\ndirect: %v",
				trial, x, y, classesOf(prod), classesOf(direct))
		}
	}
}

func TestProductWithWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := relation.Encode(randomTable(rng, 5, 60, 3))
	ws := NewWorkspace(c.NumRows())
	for trial := 0; trial < 30; trial++ {
		x := relation.AttrSet(rng.Intn(31) + 1)
		y := relation.AttrSet(rng.Intn(31) + 1)
		px := StrippedOf(c, x)
		py := StrippedOf(c, y)
		if !sameStripped(Product(px, py, ws), StrippedOf(c, x.Union(y))) {
			t.Fatalf("trial %d: workspace reuse corrupted product", trial)
		}
	}
}

func TestRefinesAttr(t *testing.T) {
	c := relation.Encode(sampleTable())
	sab := StrippedOf(c, relation.NewAttrSet(0, 1))
	if !sab.RefinesAttr(c.Column(0)) {
		t.Error("AB → A must hold")
	}
	sa := StrippedOf(c, relation.NewAttrSet(0))
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
	out := make([][]int32, 0, s.NumClasses())
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
