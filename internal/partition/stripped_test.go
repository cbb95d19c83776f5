package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"f2/internal/relation"
)

// strippedModel strips the Of-derived partition of attrs by filtering its
// classes: the order StripPartition, StrippedOf and StrippedSingle must
// reproduce exactly.
func strippedModel(t *relation.Table, attrs relation.AttrSet) [][]int32 {
	out := [][]int32{}
	for _, c := range Of(t, attrs).Classes {
		if c.Size() < 2 {
			continue
		}
		rows := make([]int32, len(c.Rows))
		for i, r := range c.Rows {
			rows[i] = int32(r)
		}
		out = append(out, rows)
	}
	return out
}

// productModel is TANE's PRODUCT written plainly over class lists: split
// each class of y by the x-class of its rows, keep the parts of size ≥ 2
// in the order their first row appears. This is the class and row order
// Product has always produced.
func productModel(x, y *Stripped) [][]int32 {
	classOf := map[int32]int{}
	for i, c := range classesOf(x) {
		for _, r := range c {
			classOf[r] = i
		}
	}
	out := [][]int32{}
	for _, c := range classesOf(y) {
		var order []int
		parts := map[int][]int32{}
		for _, r := range c {
			id, ok := classOf[r]
			if !ok {
				continue
			}
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

// TestStrippedKernelMatchesOf checks the flat-layout constructors and
// Product against the Of-derived stripped partition over random tables,
// including the empty table, constant and all-unique columns, and Of
// itself against grouping by projection strings. Every call shares one
// workspace sized for no rows at all, and tables grow through the run, so
// the workspace is refitted both for more rows and for an x with more
// classes than any earlier call.
func TestStrippedKernelMatchesOf(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ws := NewWorkspace(0)
	for trial := 0; trial < 120; trial++ {
		tbl := kernelTable(rng, trial/2, 1+rng.Intn(3), 1+rng.Intn(8))
		c := relation.Encode(tbl)
		full := relation.FullAttrSet(tbl.NumAttrs())
		for a := 0; a < tbl.NumAttrs(); a++ {
			want := strippedModel(tbl, relation.SingleAttr(a))
			if got := classesOf(StrippedSingle(c, a)); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: StrippedSingle(%d) = %v, want %v", trial, a, got, want)
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
			px, py := StripPartition(OfCoded(c, x)), StrippedOf(c, y)
			if got, want := classesOf(px), strippedModel(tbl, x); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: StripPartition(%v) = %v, want %v", trial, x, got, want)
			}
			prod := Product(px, py, ws)
			if got, want := classesOf(prod), productModel(px, py); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Product(%v, %v) = %v, want %v", trial, x, y, got, want)
			}
			if !sameStripped(prod, StrippedOf(c, x.Union(y))) {
				t.Fatalf("trial %d: Product(%v, %v) ≠ π of the union", trial, x, y)
			}
			if prod.Attrs != x.Union(y) || prod.numRows != tbl.NumRows() {
				t.Fatalf("trial %d: Product header = %v/%d", trial, prod.Attrs, prod.numRows)
			}
			union := strippedModel(tbl, x.Union(y))
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
// workspace a product allocates its header, rows and ends, nothing else.
func TestProductAllocs(t *testing.T) {
	tbl := kernelTable(rand.New(rand.NewSource(5)), 400, 3, 4)
	c := relation.Encode(tbl)
	x, y := StrippedSingle(c, 3), StrippedSingle(c, 4)
	ws := NewWorkspace(tbl.NumRows())
	Product(x, y, ws)
	if n := testing.AllocsPerRun(50, func() { Product(x, y, ws) }); n > 3 {
		t.Errorf("Product allocates %v times per call, want ≤ 3", n)
	}
}
