package mas

import (
	"reflect"
	"testing"

	"f2/internal/relation"
	"f2/internal/workload"
)

// TestDiscoverGolden pins Step 1's output on the benchmark tables: the
// MAS list and the number of uniqueness checks. The border search may get
// faster, but it must classify the same lattice nodes in the same order,
// so both stay fixed. Sets are attribute bitmasks in SortAttrSets order.
func TestDiscoverGolden(t *testing.T) {
	customer := []relation.AttrSet{0x17fe, 0xf0fe, 0x1f0fc, 0x3f0f8, 0x7f0f0, 0x807fe, 0xc077e,
		0xe073e, 0xf071e, 0xf870e, 0xfc706, 0xfe702, 0xff0e0, 0xff2c0, 0xff700}
	cases := []struct {
		dataset string
		rows    int
		seed    int64
		sets    []relation.AttrSet
		checked int
	}{
		{workload.NameCustomer, 600, 1, customer, 2049},
		{workload.NameCustomer, 600, 2, customer, 2049},
		{workload.NameCustomer, 600, 3, customer, 2049},
		{workload.NameOrders, 2000, 1, []relation.AttrSet{0x96, 0xae, 0xce, 0xdc, 0xe6, 0xea, 0xec, 0xf4}, 76},
		{workload.NameOrders, 2000, 2, []relation.AttrSet{0x56, 0x5c, 0x9c, 0xf4, 0xee}, 66},
		{workload.NameOrders, 2000, 3, []relation.AttrSet{0xae, 0xb6, 0xbc, 0xce, 0xe6, 0xea, 0xec, 0xf4}, 82},
	}
	for _, c := range cases {
		tbl, err := workload.Generate(c.dataset, c.rows, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		r := Discover(tbl)
		if !reflect.DeepEqual(r.Sets, c.sets) {
			t.Errorf("%s-%d seed %d: MASs = %#v, want %#v", c.dataset, c.rows, c.seed, r.Sets, c.sets)
		}
		if r.Checked != c.checked {
			t.Errorf("%s-%d seed %d: Checked = %d, want %d", c.dataset, c.rows, c.seed, r.Checked, c.checked)
		}
	}
}

// BenchmarkDiscoverCustomer times Step 1 on the audit workload's table.
func BenchmarkDiscoverCustomer(b *testing.B) {
	tbl, err := workload.Generate(workload.NameCustomer, 600, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Discover(tbl)
	}
}
