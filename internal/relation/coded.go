package relation

// Coded is a dictionary-encoded view of a table: every column's values are
// mapped to dense int32 codes. Duplicate-projection checks — the inner
// loop of MAS discovery — then hash one exact uint64 per row, the
// mixed-radix number its codes spell, instead of a variable-length
// string; only a projection whose cardinality product overflows 63 bits
// falls back to hashing the packed codes.
type Coded struct {
	n     int
	cols  [][]int32
	cards []int
}

// Encode dictionary-encodes all columns of t. The encoding is a snapshot:
// later mutations of t are not reflected.
func Encode(t *Table) *Coded {
	c := &Coded{n: t.NumRows()}
	c.cols = make([][]int32, t.NumAttrs())
	c.cards = make([]int, t.NumAttrs())
	for a := 0; a < t.NumAttrs(); a++ {
		dict := make(map[string]int32)
		col := make([]int32, c.n)
		src := t.Column(a)
		for i, v := range src {
			code, ok := dict[v]
			if !ok {
				code = int32(len(dict))
				dict[v] = code
			}
			col[i] = code
		}
		c.cols[a] = col
		c.cards[a] = len(dict)
	}
	return c
}

// NumRows returns the number of rows.
func (c *Coded) NumRows() int { return c.n }

// Cardinality returns the number of distinct values in column a.
func (c *Coded) Cardinality(a int) int { return c.cards[a] }

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

// hasDuplicateBytes keys each row by its codes packed into a byte string:
// the fallback when the mixed-radix key would overflow.
func (c *Coded) hasDuplicateBytes(cols []int) bool {
	seen := make(map[string]struct{}, c.n)
	key := make([]byte, 0, 4*len(cols))
	for i := 0; i < c.n; i++ {
		key = key[:0]
		for _, a := range cols {
			v := c.cols[a][i]
			key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		if _, dup := seen[string(key)]; dup {
			return true
		}
		seen[string(key)] = struct{}{}
	}
	return false
}

// Column returns the dictionary codes of column a. Callers must not
// modify the returned slice.
func (c *Coded) Column(a int) []int32 { return c.cols[a] }
