package partition

import (
	"fmt"
	"math"

	"f2/internal/relation"
)

// Stripped is a stripped partition: the partition π_X with all singleton
// equivalence classes removed. TANE's central data structure — partition
// products and FD validity checks run in time linear in ||π|| (the number
// of rows appearing in non-singleton classes), which shrinks rapidly as X
// grows.
//
// The layout is flat and pointer-free: rows holds the members of every
// class back to back, class after class, and ends[i] is the offset in rows
// one past the last member of class i. A stripped partition is therefore
// two allocations however many classes it has, the garbage collector never
// scans it, and ||π|| and the class count are slice lengths.
// ProductColumn builds its result in a caller-owned workspace of scratch
// arrays, reused across every product of a TANE run or a cache's walk,
// and copies it out at its exact size.
type Stripped struct {
	Attrs   relation.AttrSet
	rows    []int32 // class members, class by class; each class has ≥ 2
	ends    []int32 // ends[i] is the end offset of class i in rows
	numRows int
}

// oneClass returns rows as a stripped partition of a single class, over
// a table of numRows rows: π_∅ when rows lists every row.
func oneClass(rows []int32, numRows int) *Stripped {
	checkRows(numRows)
	s := &Stripped{numRows: numRows}
	if len(rows) > 1 {
		s.rows, s.ends = rows, []int32{int32(len(rows))}
	}
	return s
}

// checkRows panics if a table is too large for int32 row indices.
func checkRows(n int) {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("partition: %d rows exceed the stripped-partition bound of %d", n, math.MaxInt32))
	}
}

// HasDuplicate reports whether the underlying attribute set is non-unique.
func (s *Stripped) HasDuplicate() bool { return len(s.ends) > 0 }

// Size returns ||π||, the number of rows in non-singleton classes: what a
// ProductColumn over s costs.
func (s *Stripped) Size() int { return len(s.rows) }

// ErrorMeasure returns e(X)·|r| as used by TANE's key pruning:
// ||π|| - |π stripped classes|, the number of rows that must be removed for
// X to become a superkey.
func (s *Stripped) ErrorMeasure() int { return len(s.rows) - len(s.ends) }

// Workspace holds scratch arrays reused across ProductColumn calls, so a
// product allocates only its result. Class ids are the codes of the
// column a product splits by.
type Workspace struct {
	count []int32 // class id -> members seen in the current class
	pos   []int32 // class id -> next free slot of its output class
	touch []int32 // class ids met in the current class, first-met order
	rows  []int32 // the product's rows, before the exact-size copy
	ends  []int32 // the product's class ends, likewise
}

// NewWorkspace returns empty scratch space for ProductColumn; it grows to
// fit the largest product it serves.
func NewWorkspace() *Workspace { return &Workspace{} }

// fit grows the workspace for a split into at most ids class ids of a
// partition with rows rows, which caps the result's size.
func (ws *Workspace) fit(ids, rows int) {
	if len(ws.count) < ids {
		ws.count = make([]int32, ids)
		ws.pos = make([]int32, ids)
	}
	if len(ws.rows) < rows {
		ws.rows = make([]int32, rows)
		ws.ends = make([]int32, 0, rows/2)
	}
}

// ProductColumn computes the stripped partition of X ∪ {a} from stripped
// π_X and the codes of column a: TANE's linear-time PRODUCT with the
// column's full partition as the probe side, whose class ids are simply
// the codes. It costs O(||π_X||): no probe is written, and the column's
// singleton values are met once and dropped. Each class of x is split in
// two passes: the first counts how many of its rows hold each code, the
// second places every row whose code is held by at least two at its slot
// in the output. Output classes come in x's class order, then in the order
// their first row appears in the x class; rows keep x's order, so
// ascending classes stay ascending. With a warmed workspace the result —
// its header and one exact-size array holding rows and ends — is the only
// allocation.
func ProductColumn(x *Stripped, c *relation.Coded, a int, ws *Workspace) *Stripped {
	out := &Stripped{Attrs: x.Attrs.Add(a), numRows: x.numRows}
	if len(x.rows) < 2 {
		return out
	}
	ws.fit(c.Cardinality(a), len(x.rows))
	ws.split(x, c.Column(a), out)
	return out
}

// split divides every class of y by the codes col assigns to its rows,
// keeping the parts of at least two rows, and stores the result in out at
// its exact size.
func (ws *Workspace) split(y *Stripped, col []int32, out *Stripped) {
	count, pos := ws.count, ws.pos
	rows, ends := ws.rows, ws.ends[:0]
	off := int32(0)
	touch := ws.touch[:0]
	start := int32(0)
	for _, end := range y.ends {
		c := y.rows[start:end]
		start = end
		if len(c) == 2 {
			// Most classes of a wide table are pairs; a pair survives
			// whole or not at all.
			if col[c[0]] == col[c[1]] {
				rows[off], rows[off+1] = c[0], c[1]
				off += 2
				ends = append(ends, off)
			}
			continue
		}
		for _, r := range c {
			id := col[r]
			if count[id] == 0 {
				touch = append(touch, id)
			}
			count[id]++
		}
		for _, id := range touch {
			if count[id] > 1 {
				pos[id] = off
				off += count[id]
				ends = append(ends, off)
			}
		}
		for _, r := range c {
			if id := col[r]; count[id] > 1 {
				rows[pos[id]] = r
				pos[id]++
			}
		}
		for _, id := range touch {
			count[id] = 0
		}
		touch = touch[:0]
	}
	ws.touch = touch
	ws.ends = ends
	// Rows and ends share one exact-size allocation.
	buf := make([]int32, int(off)+len(ends))
	copy(buf, rows[:off])
	copy(buf[off:], ends)
	out.rows, out.ends = buf[:off:off], buf[off:]
}

// RefinesAttr reports whether π_X refines π_{A} for a single attribute
// column, i.e. whether X → A holds. col must be the codes of column A
// (relation.Coded.Column). Linear in ||π_X||.
func (s *Stripped) RefinesAttr(col []int32) bool {
	start := int32(0)
	for _, end := range s.ends {
		v := col[s.rows[start]]
		for _, r := range s.rows[start+1 : end] {
			if col[r] != v {
				return false
			}
		}
		start = end
	}
	return true
}
