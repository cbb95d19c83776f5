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
// Cost is O(|classes|·|X| + Δ·|X|) time and O(Δ) allocations: the appended
// rows are grouped by their packed codes over X, which allocates one key
// per distinct appended projection, and each old class is then looked up
// by the key of its first row, composed in a reused buffer — a lookup that
// does not allocate. No old row is re-hashed.
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
	key := make([]byte, 0, 4*len(cols))

	// Group the appended rows: group[i] is the group of row oldRows+i, in
	// first-occurrence order.
	index := make(map[string]int)
	group := make([]int, c.NumRows()-oldRows)
	for i := range group {
		key = c.AppendKey(key[:0], oldRows+i, cols)
		g, ok := index[string(key)]
		if !ok {
			g = len(index)
			index[string(key)] = g
		}
		group[i] = g
	}
	// class[g] is the class group g joins: an old class with its key, or
	// -1 until the group's first row founds a born class.
	class := make([]int, len(index))
	for g := range class {
		class[g] = -1
	}
	for ci, matched := 0, 0; ci < len(p.Classes) && matched < len(class); ci++ {
		key = c.AppendKey(key[:0], p.Classes[ci].Rows[0], cols)
		if g, ok := index[string(key)]; ok {
			class[g] = ci
			matched++
		}
	}

	var d Delta
	cloned := make(map[int]bool)
	for i, g := range group {
		r, ci := oldRows+i, class[g]
		if ci < 0 {
			ci = len(out.Classes)
			class[g] = ci
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
