package relation

import (
	"encoding/binary"
	"slices"
)

// Coded is a dictionary-encoded view of a table: every column's values are
// mapped to dense int32 codes, and it is the one place in the system where
// a cell string becomes a code. Everything F² asks of a cell is equality,
// so MAS discovery, border maintenance, partitions, TANE and Step 4 all
// read codes from a Coded instead of comparing or hashing strings.
//
// Codes are assigned in first-occurrence order: a column's code k is the
// k-th distinct value met scanning rows from 0. Appending rows therefore
// never renumbers a code, and Extend codes only the appended suffix.
//
// Extend shares the code columns' backing arrays and the dictionaries with
// the view it extends, the way Table.CloneShared shares columns. Readers
// of any view are safe, but each lineage has a single writer: at most one
// live extension of a view may be extended further. An extension that is
// abandoned (a flush attempt that failed) is detected by Extend's guard,
// which rebuilds from scratch rather than trust a dictionary another
// extension has grown.
//
// Duplicate-projection checks — the inner loop of MAS discovery — hash one
// exact uint64 per row, the mixed-radix number its codes spell, instead of
// a variable-length string; only a projection whose cardinality product
// overflows 63 bits falls back to the packed-code key of AppendKey.
type Coded struct {
	n     int
	cols  [][]int32
	cards []int
	dicts []map[string]int32
}

// Encode dictionary-encodes all columns of t. The encoding is a snapshot:
// rows appended to t later are covered only by Extend.
func Encode(t *Table) *Coded {
	c := &Coded{
		cols:  make([][]int32, t.NumAttrs()),
		cards: make([]int, t.NumAttrs()),
		dicts: make([]map[string]int32, t.NumAttrs()),
	}
	for a := range c.dicts {
		c.dicts[a] = make(map[string]int32)
	}
	return c.Extend(t, 0)
}

// Extend returns a view of t given that c encodes its first oldRows rows,
// coding only the appended rows t[oldRows:]; c itself still reads as
// before. The codes of the old rows are kept, so the result equals
// Encode(t). If c does not cover exactly oldRows rows of a table as wide
// as t, or another extension of c has grown its dictionaries, Extend
// rebuilds with Encode instead.
func (c *Coded) Extend(t *Table, oldRows int) *Coded {
	if c.n != oldRows || len(c.cols) != t.NumAttrs() || !c.dictsCurrent() {
		return Encode(t)
	}
	out := &Coded{n: t.NumRows(), cols: make([][]int32, len(c.cols)), cards: make([]int, len(c.cols)), dicts: c.dicts}
	for a, dict := range c.dicts {
		col := slices.Grow(c.cols[a][:c.n], t.NumRows()-oldRows)
		for _, v := range t.Column(a)[oldRows:] {
			code, ok := dict[v]
			if !ok {
				code = int32(len(dict))
				dict[v] = code
			}
			col = append(col, code)
		}
		out.cols[a] = col
		out.cards[a] = len(dict)
	}
	return out
}

// dictsCurrent reports whether every dictionary holds exactly the values
// c's rows code, i.e. no other extension of c has added to them.
func (c *Coded) dictsCurrent() bool {
	for a, dict := range c.dicts {
		if len(dict) != c.cards[a] {
			return false
		}
	}
	return true
}

// NumRows returns the number of rows.
func (c *Coded) NumRows() int { return c.n }

// Cardinality returns the number of distinct values in column a.
func (c *Coded) Cardinality(a int) int { return c.cards[a] }

// Column returns the dictionary codes of column a. Callers must not
// modify the returned slice.
func (c *Coded) Column(a int) []int32 { return c.cols[a] }

// AppendKey appends row's codes over cols to key as little-endian int32s
// and returns the extended slice: two rows get equal keys iff they agree
// on every column of cols. It is the map key of every grouping over
// codes; a lookup as m[string(key)] does not allocate.
func (c *Coded) AppendKey(key []byte, row int, cols []int) []byte {
	for _, a := range cols {
		key = binary.LittleEndian.AppendUint32(key, uint32(c.cols[a][row]))
	}
	return key
}

// HasDuplicateOn reports whether some value tuple over attrs occurs in
// more than one row, i.e. whether attrs is a non-unique column
// combination.
func (c *Coded) HasDuplicateOn(attrs AttrSet) bool {
	if c.n < 2 {
		return false
	}
	cols := attrs.Attrs()
	// Free bounds before scanning: a set containing a key column is
	// unique; a set whose cardinality product is below the row count must
	// have a duplicate (pigeonhole).
	product := 1
	for _, a := range cols {
		if c.cards[a] == c.n {
			return false
		}
		if product < c.n {
			product *= c.cards[a]
		}
	}
	if product < c.n {
		return true
	}
	if len(cols) == 1 {
		return c.cards[cols[0]] < c.n
	}
	if c.radixFits(cols) {
		return c.hasDuplicateRadix(cols)
	}
	return c.hasDuplicateBytes(cols)
}

// radixFits reports whether the mixed-radix key over cols — digit a
// ranging over column a's codes — fits in 63 bits, i.e. whether the
// product of the columns' cardinalities is at most 1<<63.
func (c *Coded) radixFits(cols []int) bool {
	var product uint64 = 1
	for _, a := range cols {
		card := uint64(c.cards[a])
		if product > (1<<63)/card {
			return false
		}
		product *= card
	}
	return true
}

// hasDuplicateRadix keys each row by its exact mixed-radix uint64: two
// rows get the same key iff they agree on every column of cols.
func (c *Coded) hasDuplicateRadix(cols []int) bool {
	seen := make(map[uint64]struct{}, c.n)
	for i := 0; i < c.n; i++ {
		var key uint64
		for _, a := range cols {
			key = key*uint64(c.cards[a]) + uint64(c.cols[a][i])
		}
		if _, dup := seen[key]; dup {
			return true
		}
		seen[key] = struct{}{}
	}
	return false
}

// hasDuplicateBytes keys each row by its packed codes: the fallback when
// the mixed-radix key would overflow.
func (c *Coded) hasDuplicateBytes(cols []int) bool {
	seen := make(map[string]struct{}, c.n)
	key := make([]byte, 0, 4*len(cols))
	for i := 0; i < c.n; i++ {
		key = c.AppendKey(key[:0], i, cols)
		if _, dup := seen[string(key)]; dup {
			return true
		}
		seen[string(key)] = struct{}{}
	}
	return false
}
