package partition

import (
	"fmt"
	"strconv"

	"f2/internal/relation"
)

// Delta describes how an append-aware Refine changed a partition: which
// pre-existing classes absorbed appended rows and which classes the
// appended rows created. Indices refer to the refined partition's Classes
// slice (pre-existing classes keep their positions; born classes are
// appended in first-occurrence order).
type Delta struct {
	// Grown lists classes that existed before the append and gained rows.
	Grown []int
	// Born lists classes created by appended rows. A born class of size ≥ 2
	// means two appended rows share a projection the old table never had.
	Born []int
}

// Changed reports whether the append touched the partition at all.
func (d Delta) Changed() bool { return len(d.Grown) > 0 || len(d.Born) > 0 }

// Refine extends p — which must have been computed over the first oldRows
// rows of t — with the appended rows t[oldRows:]. It returns a fresh
// partition plus the delta; p itself is never modified (untouched classes
// are shared by reference, grown classes are copied before their row lists
// are extended), so a caller that aborts mid-update can keep using p.
//
// Cost is O(|classes| + Δ·|X|): the class index is rebuilt from the stored
// representatives, not by re-hashing the old rows.
func (p *Partition) Refine(t *relation.Table, oldRows int) (*Partition, Delta, error) {
	if p.numRows != oldRows {
		return nil, Delta{}, fmt.Errorf("partition: refine: partition covers %d rows, caller says %d", p.numRows, oldRows)
	}
	if t.NumRows() < oldRows {
		return nil, Delta{}, fmt.Errorf("partition: refine: table has %d rows, fewer than the %d already partitioned", t.NumRows(), oldRows)
	}
	out := &Partition{Attrs: p.Attrs, numRows: t.NumRows()}
	out.Classes = append(make([]*EC, 0, len(p.Classes)), p.Classes...)
	index := p.index
	if index == nil || len(index) != len(p.Classes) {
		index = make(map[string]int, len(p.Classes)+16)
		for i, c := range p.Classes {
			index[relation.KeyOfValues(c.Representative)] = i
		}
		p.index = index
	}
	// Project keys are composed in a reused byte buffer: the map lookup on
	// string(kb) does not allocate, so in the steady state (appended rows
	// landing in existing classes) the whole loop is allocation-free. The
	// key format must match relation.KeyOfValues exactly.
	attrs := p.Attrs.Attrs()
	cols := make([][]string, len(attrs))
	for k, a := range attrs {
		cols[k] = t.Column(a)
	}
	kb := make([]byte, 0, 64)
	var d Delta
	cloned := make(map[int]bool)
	for r := oldRows; r < t.NumRows(); r++ {
		kb = kb[:0]
		for _, col := range cols {
			v := col[r]
			kb = strconv.AppendInt(kb, int64(len(v)), 10)
			kb = append(kb, ':')
			kb = append(kb, v...)
		}
		ci, ok := index[string(kb)]
		if !ok {
			ci = len(out.Classes)
			index[string(kb)] = ci
			out.Classes = append(out.Classes, &EC{Rows: []int{r}, Representative: t.Project(r, p.Attrs)})
			d.Born = append(d.Born, ci)
			continue
		}
		if ci < len(p.Classes) && !cloned[ci] {
			old := p.Classes[ci]
			out.Classes[ci] = &EC{
				Rows:           append(append(make([]int, 0, len(old.Rows)+1), old.Rows...), r),
				Representative: old.Representative,
			}
			cloned[ci] = true
			d.Grown = append(d.Grown, ci)
			continue
		}
		out.Classes[ci].Rows = append(out.Classes[ci].Rows, r)
	}
	out.index = index
	return out, d, nil
}
