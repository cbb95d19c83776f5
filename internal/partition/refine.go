package partition

import (
	"fmt"
	"sort"

	"f2/internal/relation"
)

// Delta describes how an append-aware Refine changed a partition: which
// pre-existing classes absorbed appended rows and which classes the
// appended rows created. Indices refer to the refined partition's Classes
// slice (pre-existing classes keep their positions; born classes are
// appended in first-occurrence order).
type Delta struct {
	// Grown lists classes that existed before the append and gained rows,
	// in the order of the first appended row each gained.
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
// The first row of every old class stands for its class, and the appended
// rows follow: this ascending list is one class of π_∅, and splitting it
// by X's columns with ProductColumn groups each appended row with the old
// class it joins, or with the appended rows it shares a born class with.
// A part that holds an old first row is that class, grown (two first rows
// differ on X, so a part holds at most one); every other part, and every
// appended row left alone, is born. Cost is O((|classes| + Δ)·|X|) time
// and no old row but a class's first is read.
func (p *Partition) Refine(c *relation.Coded, oldRows int) (*Partition, Delta, error) {
	return p.RefineIn(c, oldRows, NewWorkspace())
}

// RefineIn is Refine with the scratch space of its splits in ws, so a
// caller refining many partitions in turn (one per MAS) reuses one
// workspace instead of sizing a fresh one to every column each time. A
// workspace serves one goroutine at a time.
func (p *Partition) RefineIn(c *relation.Coded, oldRows int, ws *Workspace) (*Partition, Delta, error) {
	if p.numRows != oldRows {
		return nil, Delta{}, fmt.Errorf("partition: refine: partition covers %d rows, caller says %d", p.numRows, oldRows)
	}
	n := c.NumRows()
	if n < oldRows {
		return nil, Delta{}, fmt.Errorf("partition: refine: table has %d rows, fewer than the %d already partitioned", n, oldRows)
	}
	list := make([]int32, 0, len(p.Classes)+n-oldRows)
	for _, cl := range p.Classes {
		list = append(list, int32(cl.Rows[0]))
	}
	for r := oldRows; r < n; r++ {
		list = append(list, int32(r))
	}
	s := oneClass(list, n)
	for _, a := range p.Attrs.Attrs() {
		s = ProductColumn(s, c, a, ws)
	}

	// part[i] is the part of appended row oldRows+i, or -1 if it is alone;
	// born counts the rows and classes of born parts and lone rows.
	part := make([]int32, n-oldRows)
	for i := range part {
		part[i] = -1
	}
	bornRows, bornClasses := len(part), len(part)
	start := int32(0)
	for k, end := range s.ends {
		rows := s.rows[start:end]
		start = end
		if rows[0] < int32(oldRows) { // an old class, grown
			rows = rows[1:]
			bornRows -= len(rows)
			bornClasses -= len(rows)
		} else {
			bornClasses -= len(rows) - 1
		}
		for _, r := range rows {
			part[int(r)-oldRows] = int32(k)
		}
	}

	// Walk the appended rows in order: the first row met of each part
	// builds its whole class, so Grown and Born come out in
	// first-occurrence order. Born classes are carved from two exact-size
	// blocks.
	out := &Partition{Attrs: p.Attrs, numRows: n, Classes: make([]*EC, len(p.Classes), len(p.Classes)+bornClasses)}
	copy(out.Classes, p.Classes)
	ecs := make([]EC, bornClasses)
	buf := make([]int, bornRows)
	var d Delta
	done := make([]bool, len(s.ends))
	for i, k := range part {
		var rows []int32
		if k >= 0 {
			if done[k] {
				continue
			}
			done[k] = true
			lo := int32(0)
			if k > 0 {
				lo = s.ends[k-1]
			}
			rows = s.rows[lo:s.ends[k]]
			if first := int(rows[0]); first < oldRows {
				ci := sort.Search(len(p.Classes), func(j int) bool { return p.Classes[j].Rows[0] >= first })
				grown := append(make([]int, 0, p.Classes[ci].Size()+len(rows)-1), p.Classes[ci].Rows...)
				for _, r := range rows[1:] {
					grown = append(grown, int(r))
				}
				out.Classes[ci] = &EC{Rows: grown}
				d.Grown = append(d.Grown, ci)
				continue
			}
		}
		size := max(len(rows), 1)
		cl := &ecs[0]
		cl.Rows, buf, ecs = buf[:size:size], buf[size:], ecs[1:]
		cl.Rows[0] = oldRows + i
		for j, r := range rows {
			cl.Rows[j] = int(r)
		}
		d.Born = append(d.Born, len(out.Classes))
		out.Classes = append(out.Classes, cl)
	}
	return out, d, nil
}
