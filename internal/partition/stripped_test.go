package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"f2/internal/relation"
)

// strippedModel is the string-key grouping of attrs (stringKeyClasses)
// with its singleton classes dropped: the classes, in first-row order,
// that π_∅ and the level-1 PLIs must reproduce exactly.
func strippedModel(t *relation.Table, attrs relation.AttrSet) [][]int32 {
	out := [][]int32{}
	for _, c := range stringKeyClasses(t, attrs) {
		if len(c) < 2 {
			continue
		}
		rows := make([]int32, len(c))
		for i, r := range c {
			rows[i] = int32(r)
		}
		out = append(out, rows)
	}
	return out
}

// modelPLI lays strippedModel out as a stripped partition: a reference
// that shares no code with ProductColumn.
func modelPLI(t *relation.Table, attrs relation.AttrSet) *Stripped {
	s := &Stripped{Attrs: attrs, numRows: t.NumRows()}
	for _, c := range strippedModel(t, attrs) {
		s.rows = append(s.rows, c...)
		s.ends = append(s.ends, int32(len(s.rows)))
	}
	return s
}

// productModel is TANE's PRODUCT written plainly over class lists with a
// column's codes as the other side: split each class of x by the code of
// its rows in col, keep the parts of size ≥ 2 in the order their first
// row appears. This is the class and row order ProductColumn produces.
func productModel(x *Stripped, col []int32) [][]int32 {
	out := [][]int32{}
	for _, c := range classesOf(x) {
		var order []int32
		parts := map[int32][]int32{}
		for _, r := range c {
			id := col[r]
			if _, seen := parts[id]; !seen {
				order = append(order, id)
			}
			parts[id] = append(parts[id], r)
		}
		for _, id := range order {
			if len(parts[id]) > 1 {
				out = append(out, parts[id])
			}
		}
	}
	return out
}

// kernelTable builds a random table whose first three columns are
// constant, all-unique and paired (rows 2i and 2i+1 agree), so every
// shape of class structure shows up next to the random columns. Random
// values mix digits and ':' ("1", "1:", ":1", "11", ...), so a key that
// concatenated cells without length prefixes or fixed-width codes would
// merge rows like ("1:", "1") and ("1", ":1").
func kernelTable(rng *rand.Rand, rows, random, domain int) *relation.Table {
	names := []string{"Same", "Unique", "Pair"}
	for i := 0; i < random; i++ {
		names = append(names, fmt.Sprintf("R%d", i))
	}
	values := []string{"1", "1:", ":1", "11", "1:1", "", ":", "2:1"}
	tbl := relation.NewTable(relation.MustSchema(names...))
	for r := 0; r < rows; r++ {
		row := []string{"s", fmt.Sprint(r), fmt.Sprint(r / 2)}
		for i := 0; i < random; i++ {
			row = append(row, values[rng.Intn(min(domain, len(values)))])
		}
		tbl.AppendRow(row)
	}
	return tbl
}

// stringKeyClasses groups rows by their length-prefixed projection string
// (relation.Table.ProjectKey), classes in first-row order: the grouping Of
// must reproduce from codes.
func stringKeyClasses(t *relation.Table, attrs relation.AttrSet) [][]int {
	index := map[string]int{}
	var out [][]int
	for i := 0; i < t.NumRows(); i++ {
		k := t.ProjectKey(i, attrs)
		ci, ok := index[k]
		if !ok {
			ci = len(out)
			index[k] = ci
			out = append(out, nil)
		}
		out[ci] = append(out[ci], i)
	}
	return out
}

// TestStrippedKernelMatchesOf checks π_∅, the level-1 PLIs (π_∅ split by
// each column), ProductColumn and Of against grouping by projection
// strings over random tables, including the empty table, constant and
// all-unique columns. Every product shares one empty workspace, and
// tables grow through the run, so the workspace is refitted both for more
// rows and for a column with more codes than any earlier call.
func TestStrippedKernelMatchesOf(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ws := NewWorkspace()
	for trial := 0; trial < 120; trial++ {
		tbl := kernelTable(rng, trial/2, 1+rng.Intn(3), 1+rng.Intn(8))
		c := relation.Encode(tbl)
		cache := NewCache(c)
		full := relation.FullAttrSet(tbl.NumAttrs())
		for a := -1; a < tbl.NumAttrs(); a++ {
			x := relation.AttrSet(0)
			if a >= 0 {
				x = relation.SingleAttr(a)
			}
			want := strippedModel(tbl, x)
			if got := classesOf(cache.Get(x)); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Get(%v) = %v, want %v", trial, x, got, want)
			}
		}
		for k := 0; k < 8; k++ {
			x := relation.AttrSet(rng.Int63()).Intersect(full)
			y := relation.AttrSet(rng.Int63()).Intersect(full)
			if x.IsEmpty() || y.IsEmpty() {
				continue
			}
			var got [][]int
			for _, cl := range Of(tbl, x).Classes {
				got = append(got, cl.Rows)
			}
			if want := stringKeyClasses(tbl, x); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Of(%v) = %v, string-key grouping %v", trial, x, got, want)
			}
			px := modelPLI(tbl, x)
			a := y.First()
			prod := ProductColumn(px, c, a, ws)
			if got, want := classesOf(prod), productModel(px, c.Column(a)); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: ProductColumn(%v, %d) = %v, want %v", trial, x, a, got, want)
			}
			if !sameStripped(prod, modelPLI(tbl, x.Add(a))) {
				t.Fatalf("trial %d: ProductColumn(%v, %d) ≠ π of the union", trial, x, a)
			}
			if prod.Attrs != x.Add(a) || prod.numRows != tbl.NumRows() {
				t.Fatalf("trial %d: ProductColumn header = %v/%d", trial, prod.Attrs, prod.numRows)
			}
			union := strippedModel(tbl, x.Add(a))
			card := 0
			for _, c := range union {
				card += len(c)
			}
			if len(prod.rows) != card || prod.ErrorMeasure() != card-len(union) {
				t.Fatalf("trial %d: ||π|| = %d, e = %d; want %d, %d",
					trial, len(prod.rows), prod.ErrorMeasure(), card, card-len(union))
			}
		}
	}
}

// TestProductAllocs pins the kernel's allocation budget: with a warmed
// workspace a product allocates its header and one array for rows and
// ends, nothing else.
func TestProductAllocs(t *testing.T) {
	tbl := kernelTable(rand.New(rand.NewSource(5)), 400, 3, 4)
	c := relation.Encode(tbl)
	x := NewCache(c).Get(relation.SingleAttr(3))
	ws := NewWorkspace()
	ProductColumn(x, c, 4, ws)
	if n := testing.AllocsPerRun(50, func() { ProductColumn(x, c, 4, ws) }); n > 2 {
		t.Errorf("ProductColumn allocates %v times per call, want ≤ 2", n)
	}
}
