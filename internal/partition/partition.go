// Package partition implements equivalence classes and partitions of a
// relation under attribute sets (Def. 3.3 of the F² paper), including the
// stripped-partition representation and partition product used by TANE
// (Huhtala et al., 1999). Partitions are the shared machinery behind FD
// discovery, MAS discovery, and the F² encryptor itself.
//
// Rows are grouped one way only: ProductColumn splits every class of a
// stripped partition by the dictionary codes (relation.Coded) one column
// gives its rows, never by cell strings or keys. Chains start at π_∅,
// one class of every row. The Cache's single-column PLIs are π_∅ split by
// each column, and Refine — hence OfCoded and Of — splits one class of
// the old classes' first rows and the appended rows by X's columns.
// Invariants the rest of the system leans on:
//
//   - within one class, Rows is ascending, and classes are ordered by
//     their first row — the first-occurrence order of their projections;
//   - Refine is append-aware and copy-on-write: refining with appended
//     rows never mutates the receiver, keeps every pre-existing row
//     *before* every appended row inside a grown class, and reports the
//     grown/born class indices as a Delta. A class's first row therefore
//     never changes, which is what makes it the incremental encryptor's
//     stable member identity, and the positional old/new split
//     (core.appendedSuffix) is correct only because of that ordering;
//   - stripped partitions store row indices as int32, so partitions
//     cover tables of at most math.MaxInt32 rows; Refine, OfCoded and
//     NewCache panic past that bound and fd's TANE refuses such tables
//     with an error.
package partition

import (
	"sort"

	"f2/internal/relation"
)

// EC is an equivalence class: the rows of the table that share the same
// value tuple over some attribute set X, as ascending row indices. The
// shared tuple is the projection of any member, e.g. of Rows[0].
type EC struct {
	Rows []int
}

// Size returns the number of rows in the class (the instance frequency f).
func (c *EC) Size() int { return len(c.Rows) }

// Partition is π_X: the set of disjoint ECs covering the table. Attrs
// records X. Classes are ordered deterministically (by first row index).
type Partition struct {
	Attrs   relation.AttrSet
	Classes []*EC
	numRows int
}

// Of computes π_X for table t. Callers grouping one table under several
// attribute sets encode it once and call OfCoded.
//
//lint:ignore f2vet/deadexport benchmark/upload.go, in the separate benchmark module, times it in the upload probe
func Of(t *relation.Table, attrs relation.AttrSet) *Partition {
	return OfCoded(relation.Encode(t), attrs)
}

// OfCoded computes π_X over the coded view c: it is Refine applied to
// the empty partition, so π_∅ split by each column of X.
func OfCoded(c *relation.Coded, attrs relation.AttrSet) *Partition {
	p, _, _ := (&Partition{Attrs: attrs}).Refine(c, 0) // cannot fail: the empty partition covers 0 rows
	return p
}

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
