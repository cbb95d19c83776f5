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
// scans it, and ||π|| and the class count are slice lengths. Product
// builds its result in a caller-owned workspace of scratch arrays, reused
// across every product of a TANE run, and copies it out at its exact size.
type Stripped struct {
	Attrs   relation.AttrSet
	rows    []int32 // class members, class by class; each class has ≥ 2
	ends    []int32 // ends[i] is the end offset of class i in rows
	numRows int
}

// StrippedOf computes the stripped partition of the coded view c under
// attrs.
func StrippedOf(c *relation.Coded, attrs relation.AttrSet) *Stripped {
	return StripPartition(OfCoded(c, attrs))
}

// StripPartition converts a full partition into stripped form, keeping
// the order of its classes and of the rows within each.
func StripPartition(p *Partition) *Stripped {
	checkRows(p.numRows)
	n, k := 0, 0
	for _, c := range p.Classes {
		if c.Size() > 1 {
			n += c.Size()
			k++
		}
	}
	s := &Stripped{Attrs: p.Attrs, numRows: p.numRows, rows: make([]int32, 0, n), ends: make([]int32, 0, k)}
	for _, c := range p.Classes {
		if c.Size() > 1 {
			for _, r := range c.Rows {
				s.rows = append(s.rows, int32(r))
			}
			s.ends = append(s.ends, int32(len(s.rows)))
		}
	}
	return s
}

// StrippedSingle computes the stripped partition of a single column without
// materializing a full Partition, as TANE does at level 1: the column's
// codes are counted and each row is placed at its class's next free slot.
// Codes are in first-occurrence order, so classes come out in
// first-occurrence order with ascending rows, exactly as StrippedOf orders
// them.
func StrippedSingle(c *relation.Coded, a int) *Stripped {
	checkRows(c.NumRows())
	codes := c.Column(a)
	count := make([]int32, c.Cardinality(a)) // count[code] = rows holding it
	for _, code := range codes {
		count[code]++
	}
	// Turn counts into start offsets; -1 marks a singleton value.
	var ends []int32
	off := int32(0)
	for code, n := range count {
		if n < 2 {
			count[code] = -1
			continue
		}
		count[code] = off
		off += n
		ends = append(ends, off)
	}
	rows := make([]int32, off)
	for i, code := range codes {
		if p := count[code]; p >= 0 {
			rows[p] = int32(i)
			count[code]++
		}
	}
	return &Stripped{Attrs: relation.SingleAttr(a), rows: rows, ends: ends, numRows: c.NumRows()}
}

// checkRows panics if a table is too large for int32 row indices.
func checkRows(n int) {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("partition: %d rows exceed the stripped-partition bound of %d", n, math.MaxInt32))
	}
}

// NumClasses returns the number of non-singleton classes.
func (s *Stripped) NumClasses() int { return len(s.ends) }

// HasDuplicate reports whether the underlying attribute set is non-unique.
func (s *Stripped) HasDuplicate() bool { return len(s.ends) > 0 }

// ErrorMeasure returns e(X)·|r| as used by TANE's key pruning:
// ||π|| - |π stripped classes|, the number of rows that must be removed for
// X to become a superkey.
func (s *Stripped) ErrorMeasure() int { return len(s.rows) - len(s.ends) }

// workspace holds scratch arrays reused across Product and ProductColumn
// calls, so a product allocates only its result. Product's class ids are
// 1-based; 0 in probe means the row is in no class of the left operand.
// ProductColumn's class ids are a column's codes and need no probe.
type workspace struct {
	probe []int32 // row -> class id in x
	count []int32 // class id -> members seen in the current y class
	pos   []int32 // class id -> next free slot of its output class
	touch []int32 // class ids met in the current y class, first-met order
	rows  []int32 // the product's rows, before the exact-size copy
	ends  []int32 // the product's class ends, likewise
}

// NewWorkspace allocates scratch space for Product over tables with n rows.
func NewWorkspace(n int) *workspace {
	return &workspace{probe: make([]int32, n)}
}

// fit grows the workspace for a split into at most ids class ids of a
// partition of cardinality at least bound, which caps the result's
// cardinality.
func (ws *workspace) fit(ids, bound int) {
	if len(ws.count) < ids {
		ws.count = make([]int32, ids)
		ws.pos = make([]int32, ids)
	}
	if len(ws.rows) < bound {
		ws.rows = make([]int32, bound)
		ws.ends = make([]int32, 0, bound/2)
	}
}

// Product computes the stripped partition of X ∪ Y from stripped π_X and
// π_Y using TANE's linear-time PRODUCT procedure. Each class of y is split
// by x in two passes: the first counts how many of its rows fall in each
// class of x, the second places every row that lands in a class of at
// least two at its slot in the output. Output classes come in y's class
// order, then in the order their first row appears in the y class; rows
// keep y's order. ws may be nil, in which case temporary space is
// allocated; with a warmed workspace the result — header, rows and ends,
// each at its exact size — is the only allocation.
func Product(x, y *Stripped, ws *workspace) *Stripped {
	out := &Stripped{Attrs: x.Attrs.Union(y.Attrs), numRows: x.numRows}
	bound := min(len(x.rows), len(y.rows))
	if bound < 2 {
		return out
	}
	if ws == nil {
		ws = NewWorkspace(x.numRows)
	}
	if len(ws.probe) < x.numRows {
		ws.probe = make([]int32, x.numRows)
	}
	ws.fit(x.NumClasses()+1, bound)
	probe := ws.probe
	start := int32(0)
	for i, end := range x.ends {
		for _, r := range x.rows[start:end] {
			probe[r] = int32(i + 1)
		}
		start = end
	}
	ws.split(y, probe, 0, out)
	for _, r := range x.rows {
		probe[r] = 0
	}
	return out
}

// ProductColumn computes the stripped partition of X ∪ {a} from stripped
// π_X and the codes of column a. It equals Product(StrippedSingle(c, a),
// x, ws) — column a's codes are the class ids of its full partition — but
// costs O(||π_X||) instead of O(||π_X|| + ||π_a||): no probe is written,
// and the column's singleton values are simply met once and dropped. Rows
// keep x's order, so ascending classes stay ascending. ws must not be nil.
func ProductColumn(x *Stripped, c *relation.Coded, a int, ws *workspace) *Stripped {
	out := &Stripped{Attrs: x.Attrs.Add(a), numRows: x.numRows}
	if len(x.rows) < 2 {
		return out
	}
	ws.fit(c.Cardinality(a), len(x.rows))
	ws.split(x, c.Column(a), -1, out)
	return out
}

// split divides every class of y by the class ids probe assigns to its
// rows, keeping the parts of at least two rows, and stores the result in
// out at its exact size. A row whose id is none belongs to no class.
func (ws *workspace) split(y *Stripped, probe []int32, none int32, out *Stripped) {
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
			if id := probe[c[0]]; id != none && id == probe[c[1]] {
				rows[off], rows[off+1] = c[0], c[1]
				off += 2
				ends = append(ends, off)
			}
			continue
		}
		for _, r := range c {
			if id := probe[r]; id != none {
				if count[id] == 0 {
					touch = append(touch, id)
				}
				count[id]++
			}
		}
		for _, id := range touch {
			if count[id] > 1 {
				pos[id] = off
				off += count[id]
				ends = append(ends, off)
			}
		}
		for _, r := range c {
			if id := probe[r]; id != none && count[id] > 1 {
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
	out.rows = append(make([]int32, 0, off), rows[:off]...)
	out.ends = append(make([]int32, 0, len(ends)), ends...)
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
