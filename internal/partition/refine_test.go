package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"f2/internal/relation"
)

// refineModel is Refine by definition, over the string-key classes of
// attrs on t, whose first oldRows rows the refined partition covered. The
// classes come in first-row order, which puts every old class first. The
// Delta is read off them by walking the appended rows: the first appended
// row met of a class grows it if the class holds an old row and bears it
// otherwise.
func refineModel(t *relation.Table, attrs relation.AttrSet, oldRows int) ([][]int, Delta) {
	classes := stringKeyClasses(t, attrs)
	of := make([]int, t.NumRows())
	for ci, c := range classes {
		for _, r := range c {
			of[r] = ci
		}
	}
	var d Delta
	met := map[int]bool{}
	for r := oldRows; r < t.NumRows(); r++ {
		ci := of[r]
		if met[ci] {
			continue
		}
		met[ci] = true
		if classes[ci][0] < oldRows {
			d.Grown = append(d.Grown, ci)
		} else {
			d.Born = append(d.Born, ci)
		}
	}
	return classes, d
}

// rowsOf copies the classes of p out, in order.
func rowsOf(p *Partition) [][]int {
	var out [][]int
	for _, c := range p.Classes {
		out = append(out, append([]int(nil), c.Rows...))
	}
	return out
}

// refineError checks one Refine of p, which covers the first oldRows rows
// of t, against refineModel: the classes in order and the exact Delta.
func refineError(t *relation.Table, p *Partition, oldRows int) (*Partition, Delta, error) {
	np, d, err := p.Refine(relation.Encode(t), oldRows)
	if err != nil {
		return nil, Delta{}, err
	}
	want, wantDelta := refineModel(t, p.Attrs, oldRows)
	if got := rowsOf(np); !reflect.DeepEqual(got, want) {
		return nil, Delta{}, fmt.Errorf("refined %v over %d+%d rows = %v, want %v", p.Attrs, oldRows, t.NumRows()-oldRows, got, want)
	}
	if !reflect.DeepEqual(d, wantDelta) {
		return nil, Delta{}, fmt.Errorf("refined %v over %d+%d rows: delta %+v, want %+v", p.Attrs, oldRows, t.NumRows()-oldRows, d, wantDelta)
	}
	if np.numRows != t.NumRows() {
		return nil, Delta{}, fmt.Errorf("refined partition covers %d rows, want %d", np.numRows, t.NumRows())
	}
	return np, d, nil
}

// TestPartitionRefineMatchesRecompute refines partitions through streams
// of appends, including the empty attribute set and tables that start
// empty, and checks every step against the string-key model. The streams
// must grow classes, promote singletons, and coin born classes of one row
// and of several; the source partition must come out untouched.
func TestPartitionRefineMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var grew, promoted, bornSingle, bornShared int
	for trial := 0; trial < 200; trial++ {
		attrs := 1 + rng.Intn(4)
		tbl := randomTable(rng, attrs, rng.Intn(25), 1+rng.Intn(3))
		set := relation.AttrSet(rng.Intn(1 << attrs))
		p := Of(tbl, set)
		for step := 0; step < 4; step++ {
			old := tbl.NumRows()
			extra := randomTable(rng, attrs, rng.Intn(6), 1+rng.Intn(4))
			for i := 0; i < extra.NumRows(); i++ {
				tbl.AppendRow(extra.Row(i))
			}
			before := rowsOf(p)
			np, d, err := refineError(tbl, p, old)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if !reflect.DeepEqual(rowsOf(p), before) || p.numRows != old {
				t.Fatalf("trial %d step %d: Refine mutated the source partition", trial, step)
			}
			for _, ci := range d.Grown {
				if p.Classes[ci].Size() == 1 {
					promoted++
				} else {
					grew++
				}
			}
			for _, ci := range d.Born {
				if np.Classes[ci].Size() == 1 {
					bornSingle++
				} else {
					bornShared++
				}
			}
			p = np
		}
	}
	if grew == 0 || promoted == 0 || bornSingle == 0 || bornShared == 0 {
		t.Fatalf("streams grew %d classes, promoted %d singletons, bore %d single and %d shared classes: want each",
			grew, promoted, bornSingle, bornShared)
	}
}

// FuzzRefine decodes a table of up to four columns and 64 rows, an
// attribute set and a split row from the input, and refines the prefix's
// partition by the rest against the string-key model.
func FuzzRefine(f *testing.F) {
	f.Add([]byte{1, 3, 4, 0, 1, 0, 1, 2, 2, 0, 0, 1, 1, 3, 4})
	f.Add([]byte{0, 0, 0, 7})
	f.Add([]byte{2, 5, 3, 1, 1, 1, 2, 2, 2, 1, 1, 1, 3, 0, 3, 1, 2, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m := 1 + int(data[0])%4
		set := relation.AttrSet(data[1]).Intersect(relation.FullAttrSet(m))
		cells := data[3:]
		names := make([]string, m)
		for a := range names {
			names[a] = fmt.Sprint("A", a)
		}
		tbl := relation.NewTable(relation.MustSchema(names...))
		for r := 0; r < min(len(cells)/m, 64); r++ {
			row := make([]string, m)
			for a := range row {
				row[a] = fmt.Sprint(cells[r*m+a] % 5)
			}
			tbl.AppendRow(row)
		}
		old := int(data[2]) % (tbl.NumRows() + 1)
		prefix := relation.NewTable(tbl.Schema())
		for r := 0; r < old; r++ {
			prefix.AppendRow(tbl.Row(r))
		}
		p := Of(prefix, set)
		if got, want := rowsOf(p), stringKeyClasses(prefix, set); !reflect.DeepEqual(got, want) {
			t.Fatalf("Of(%v) = %v, want %v", set, got, want)
		}
		if _, _, err := refineError(tbl, p, old); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRefineRejectsMismatchedRowCount(t *testing.T) {
	tbl := randomTable(rand.New(rand.NewSource(1)), 2, 6, 2)
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
	base := randomTable(rng, 3, 200, 3)
	set := relation.NewAttrSet(0, 2)
	p := Of(base, set)
	before := make([]*EC, len(p.Classes))
	for i, c := range p.Classes {
		before[i] = &EC{Rows: append([]int(nil), c.Rows...)}
	}
	var tables [2]*relation.Table
	for g := range tables {
		tables[g] = base.Clone()
		extra := randomTable(rng, 3, 50, 4)
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
		if want := stringKeyClasses(tables[g], set); !reflect.DeepEqual(rowsOf(got[g]), want) {
			t.Errorf("refine %d: classes differ from grouping the whole table", g)
		}
	}
	if !reflect.DeepEqual(p.Classes, before) || p.numRows != base.NumRows() {
		t.Fatal("Refine modified its receiver")
	}
}
