package partition

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"f2/internal/relation"
)

func randomRefineTable(rng *rand.Rand, attrs, rows, domain int) *relation.Table {
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

// classSets renders a partition as a sorted set-of-sorted-row-sets so
// refined and recomputed partitions compare independent of class order.
func classSets(classes [][]int) [][]int {
	out := make([][]int, 0, len(classes))
	for _, c := range classes {
		s := append([]int(nil), c...)
		sort.Ints(s)
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func fullClassSets(p *Partition) [][]int {
	rows := make([][]int, 0, len(p.Classes))
	for _, c := range p.Classes {
		rows = append(rows, c.Rows)
	}
	return classSets(rows)
}

func TestPartitionRefineMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		attrs := 1 + rng.Intn(4)
		tbl := randomRefineTable(rng, attrs, 3+rng.Intn(25), 1+rng.Intn(3))
		set := relation.AttrSet(rng.Intn(1 << attrs))
		if set.IsEmpty() {
			set = relation.SingleAttr(0)
		}
		old := tbl.NumRows()
		p := Of(tbl, set)
		extra := randomRefineTable(rng, attrs, 1+rng.Intn(5), 1+rng.Intn(3))
		for i := 0; i < extra.NumRows(); i++ {
			tbl.AppendRow(extra.Row(i))
		}
		np, d, err := p.Refine(relation.Encode(tbl), old)
		if err != nil {
			t.Fatal(err)
		}
		want := Of(tbl, set)
		if !reflect.DeepEqual(fullClassSets(np), fullClassSets(want)) {
			t.Fatalf("trial %d: refined ≠ recomputed for %v\n got: %v\nwant: %v",
				trial, set, fullClassSets(np), fullClassSets(want))
		}
		if np.numRows != tbl.NumRows() {
			t.Fatalf("trial %d: refined covers %d rows, want %d", trial, np.numRows, tbl.NumRows())
		}
		// Copy-on-write: the original partition is untouched.
		if p.numRows != old {
			t.Fatalf("trial %d: Refine mutated the source partition", trial)
		}
		total := 0
		for _, c := range p.Classes {
			total += c.Size()
			for _, r := range c.Rows {
				if r >= old {
					t.Fatalf("trial %d: appended row %d leaked into the source partition", trial, r)
				}
			}
		}
		if total != old {
			t.Fatalf("trial %d: source partition now covers %d rows", trial, total)
		}
		// Delta indices point at real changes.
		for _, ci := range d.Grown {
			if ci >= len(p.Classes) || np.Classes[ci].Size() <= p.Classes[ci].Size() {
				t.Fatalf("trial %d: grown class %d did not grow", trial, ci)
			}
		}
		for _, ci := range d.Born {
			if ci < len(p.Classes) {
				t.Fatalf("trial %d: born class %d overlaps pre-existing classes", trial, ci)
			}
			for _, r := range np.Classes[ci].Rows {
				if r < old {
					t.Fatalf("trial %d: born class %d contains old row %d", trial, ci, r)
				}
			}
		}
	}
}

func TestRefineRejectsMismatchedRowCount(t *testing.T) {
	tbl := randomRefineTable(rand.New(rand.NewSource(1)), 2, 6, 2)
	p := Of(tbl, relation.SingleAttr(0))
	if _, _, err := p.Refine(relation.Encode(tbl), 4); err == nil {
		t.Error("Partition.Refine accepted a wrong oldRows")
	}
}

// TestRefineIsPure refines one partition from two goroutines at once, over
// two different appended suffixes, as a retried flush may after an
// abandoned one. Refine only reads its receiver: under -race neither call
// may write shared state, each result must equal grouping from scratch,
// and the receiver must keep its classes.
func TestRefineIsPure(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	base := randomRefineTable(rng, 3, 200, 3)
	set := relation.NewAttrSet(0, 2)
	p := Of(base, set)
	before := make([]*EC, len(p.Classes))
	for i, c := range p.Classes {
		before[i] = &EC{Rows: append([]int(nil), c.Rows...)}
	}
	var tables [2]*relation.Table
	for g := range tables {
		tables[g] = base.Clone()
		extra := randomRefineTable(rng, 3, 50, 4)
		for i := 0; i < extra.NumRows(); i++ {
			tables[g].AppendRow(extra.Row(i))
		}
	}
	var got [2]*Partition
	var errs [2]error
	var wg sync.WaitGroup
	for g := range tables {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], _, errs[g] = p.Refine(relation.Encode(tables[g]), base.NumRows())
		}(g)
	}
	wg.Wait()
	for g := range tables {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if want := Of(tables[g], set); !reflect.DeepEqual(got[g].Classes, want.Classes) {
			t.Errorf("refine %d: classes differ from grouping the whole table", g)
		}
	}
	if !reflect.DeepEqual(p.Classes, before) || p.numRows != base.NumRows() {
		t.Fatal("Refine modified its receiver")
	}
}
