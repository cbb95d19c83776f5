package partition

import (
	"fmt"

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

// Refine extends p — which must have been computed over the first oldRows
// rows of c — with the appended rows c[oldRows:]. It returns a fresh
// partition plus the delta; p itself is never modified (untouched classes
// are shared by reference, grown classes are copied before their row lists
// are extended), so a caller that aborts mid-update can keep using p.
//
// Cost is O(|classes|·|X| + Δ·|X|): the class index is keyed from each
// class's first row, whose codes c keeps, not by re-hashing the old rows.
func (p *Partition) Refine(c *relation.Coded, oldRows int) (*Partition, Delta, error) {
	if p.numRows != oldRows {
		return nil, Delta{}, fmt.Errorf("partition: refine: partition covers %d rows, caller says %d", p.numRows, oldRows)
	}
	if c.NumRows() < oldRows {
		return nil, Delta{}, fmt.Errorf("partition: refine: table has %d rows, fewer than the %d already partitioned", c.NumRows(), oldRows)
	}
	out := &Partition{Attrs: p.Attrs, numRows: c.NumRows()}
	out.Classes = append(make([]*EC, 0, len(p.Classes)), p.Classes...)
	cols := p.Attrs.Attrs()
	// Keys are composed in a reused buffer: the lookup on string(key) does
	// not allocate, so an appended row landing in an existing class costs
	// no allocation.
	key := make([]byte, 0, 4*len(cols))
	index := make(map[string]int, len(p.Classes)+16)
	for i, cl := range p.Classes {
		key = c.AppendKey(key[:0], cl.Rows[0], cols)
		index[string(key)] = i
	}
	var d Delta
	cloned := make(map[int]bool)
	for r := oldRows; r < c.NumRows(); r++ {
		key = c.AppendKey(key[:0], r, cols)
		ci, ok := index[string(key)]
		if !ok {
			ci = len(out.Classes)
			index[string(key)] = ci
			out.Classes = append(out.Classes, &EC{Rows: []int{r}})
			d.Born = append(d.Born, ci)
			continue
		}
		if ci < len(p.Classes) && !cloned[ci] {
			old := p.Classes[ci].Rows
			out.Classes[ci] = &EC{Rows: append(append(make([]int, 0, len(old)+1), old...), r)}
			cloned[ci] = true
			d.Grown = append(d.Grown, ci)
			continue
		}
		out.Classes[ci].Rows = append(out.Classes[ci].Rows, r)
	}
	return out, d, nil
}
