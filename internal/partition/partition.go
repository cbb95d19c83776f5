// Package partition implements equivalence classes and partitions of a
// relation under attribute sets (Def. 3.3 of the F² paper), including the
// stripped-partition representation and partition product used by TANE
// (Huhtala et al., 1999). Partitions are the shared machinery behind FD
// discovery, MAS discovery, and the F² encryptor itself.
//
// Invariants the rest of the system leans on:
//
//   - within one class, Rows is ascending, and Representative is the
//     projection (in ascending attribute order) shared by every row of
//     the class;
//   - representatives are unique within one partition — the encryptor's
//     incremental engine uses them as stable member identities across
//     refinements;
//   - Refine is append-aware and copy-on-write: refining with appended
//     rows never mutates the receiver, keeps every pre-existing row
//     *before* every appended row inside a grown class, and reports the
//     grown/born class indices as a Delta. The incremental encryptor's
//     positional old/new split (core.appendedSuffix) is correct only
//     because of that ordering guarantee;
//   - stripped partitions store row indices as int32, so they cover
//     tables of at most math.MaxInt32 rows; the constructors panic past
//     that bound and fd's TANE refuses such tables with an error.
package partition

import (
	"sort"

	"f2/internal/relation"
)

// EC is an equivalence class: the rows of the table that share the same
// value tuple over some attribute set X. Rows are stored as ascending row
// indices. Representative is the shared value tuple (in ascending attribute
// order of X).
type EC struct {
	Rows           []int
	Representative []string
}

// Size returns the number of rows in the class (the instance frequency f).
func (c *EC) Size() int { return len(c.Rows) }

// Partition is π_X: the set of disjoint ECs covering the table. Attrs
// records X. Classes are ordered deterministically (by first row index).
type Partition struct {
	Attrs   relation.AttrSet
	Classes []*EC
	numRows int

	// index maps each class's canonical representative key to its position
	// in Classes. Built by the first Refine and shared down the refinement
	// lineage so successive flushes skip the O(|classes|) rebuild; it is
	// trusted only while len(index) == len(Classes) — an aborted refine
	// leaves extra entries behind, which the next Refine detects and
	// rebuilds from scratch.
	index map[string]int
}

// Of computes π_X for table t by hashing projected row keys.
func Of(t *relation.Table, attrs relation.AttrSet) *Partition {
	groups := make(map[string]*EC)
	order := make([]string, 0)
	for i := 0; i < t.NumRows(); i++ {
		k := t.ProjectKey(i, attrs)
		c, ok := groups[k]
		if !ok {
			c = &EC{Representative: t.Project(i, attrs)}
			groups[k] = c
			order = append(order, k)
		}
		c.Rows = append(c.Rows, i)
	}
	p := &Partition{Attrs: attrs, numRows: t.NumRows()}
	p.Classes = make([]*EC, 0, len(order))
	for _, k := range order {
		p.Classes = append(p.Classes, groups[k])
	}
	return p
}

// NumRows returns the number of rows of the underlying table.
func (p *Partition) NumRows() int { return p.numRows }

// NumClasses returns |π_X|, the number of equivalence classes.
func (p *Partition) NumClasses() int { return len(p.Classes) }

// MaxClassSize returns the size of the largest EC (0 for an empty table).
func (p *Partition) MaxClassSize() int {
	max := 0
	for _, c := range p.Classes {
		if c.Size() > max {
			max = c.Size()
		}
	}
	return max
}

// HasDuplicate reports whether any EC has size > 1 — i.e. whether X is a
// non-unique column combination (the MAS condition (1) of Def. 3.2).
func (p *Partition) HasDuplicate() bool {
	for _, c := range p.Classes {
		if c.Size() > 1 {
			return true
		}
	}
	return false
}

// NonSingletonClasses returns the ECs with size ≥ 2, sorted by ascending
// size (ties broken by first row) — the grouping order of Step 2.1.
func (p *Partition) NonSingletonClasses() []*EC {
	out := make([]*EC, 0, len(p.Classes))
	for _, c := range p.Classes {
		if c.Size() > 1 {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Size() != out[j].Size() {
			return out[i].Size() < out[j].Size()
		}
		return out[i].Rows[0] < out[j].Rows[0]
	})
	return out
}

// SingletonClasses returns the ECs with size 1.
func (p *Partition) SingletonClasses() []*EC {
	out := make([]*EC, 0)
	for _, c := range p.Classes {
		if c.Size() == 1 {
			out = append(out, c)
		}
	}
	return out
}

// Refines reports whether p refines q: every EC of p is contained in some
// EC of q. X → A holds iff π_X refines π_{A} (Huhtala et al.). Both
// partitions must be over the same table.
func (p *Partition) Refines(q *Partition) bool {
	// Map each row to its class id in q, then check every class of p lands
	// in a single q-class.
	rowClass := make([]int, q.numRows)
	for ci, c := range q.Classes {
		for _, r := range c.Rows {
			rowClass[r] = ci
		}
	}
	for _, c := range p.Classes {
		want := rowClass[c.Rows[0]]
		for _, r := range c.Rows[1:] {
			if rowClass[r] != want {
				return false
			}
		}
	}
	return true
}

// Error returns the minimum number of rows to remove from the table so that
// p refines q (TANE's e measure scaled by |r|): Σ over classes of p of
// (|c| - size of the largest q-subclass inside c).
func (p *Partition) Error(q *Partition) int {
	rowClass := make([]int, q.numRows)
	for ci, c := range q.Classes {
		for _, r := range c.Rows {
			rowClass[r] = ci
		}
	}
	total := 0
	counts := make(map[int]int)
	for _, c := range p.Classes {
		if c.Size() == 1 {
			continue
		}
		for k := range counts {
			delete(counts, k)
		}
		best := 0
		for _, r := range c.Rows {
			counts[rowClass[r]]++
			if counts[rowClass[r]] > best {
				best = counts[rowClass[r]]
			}
		}
		total += c.Size() - best
	}
	return total
}
