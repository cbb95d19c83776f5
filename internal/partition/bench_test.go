package partition

import (
	"testing"

	"f2/internal/relation"
	"f2/internal/workload"
)

// BenchmarkProduct times TANE's second lattice level on a 3,000-row
// customer table: one ProductColumn per pair of columns, splitting the
// smaller of the two stripped partitions by the other column's codes, as
// TANE picks its base, all through one warmed workspace.
func BenchmarkProduct(b *testing.B) {
	tbl, err := workload.Generate(workload.NameCustomer, 3000, 1)
	if err != nil {
		b.Fatal(err)
	}
	c := relation.Encode(tbl)
	cache := NewCache(c)
	singles := make([]*Stripped, tbl.NumAttrs())
	for a := range singles {
		singles[a] = cache.Get(relation.SingleAttr(a))
	}
	ws := NewWorkspace()
	b.ReportAllocs()
	for b.Loop() {
		for i := range singles {
			for j := i + 1; j < len(singles); j++ {
				if singles[i].Size() <= singles[j].Size() {
					ProductColumn(singles[i], c, j, ws)
				} else {
					ProductColumn(singles[j], c, i, ws)
				}
			}
		}
	}
}
