package relation

import "slices"

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
		c.dicts[a] = make(map[string]int32, dictHint(t.Column(a)))
	}
	return c.Extend(t, 0)
}

// dictSample is the number of cells dictHint reads from a column.
const dictSample = 64

// dictHint sizes a column's dictionary once, so that coding the column
// does not rehash a growing map about log₂(distinct) times, and without
// reserving a slot per row for a column of a few values (the dictionary
// lives as long as the view). It reads dictSample cells and applies the
// bias-corrected Chao1 estimator of the number of distinct values,
// d + f₁(f₁−1)/(2(f₂+1)), where d values were seen, f₁ once and f₂ twice.
// On so small a sample the estimate can be twice the truth, and an
// oversized map is held for good while an undersized one costs a growth
// step, so the hint is half the estimate, capped at the row count: a
// column of up to about a thousand rows whose sample repeats nothing is
// sized for every row, and one whose sample repeats every value is sized
// for half of what it saw. A column of at most dictSample cells is sized
// for all of them.
func dictHint(col []string) int {
	n := len(col)
	if n <= dictSample {
		return n
	}
	var sample [dictSample]string
	for i := range sample {
		// One cell from each of dictSample equal strata, at a scrambled
		// offset: an evenly strided sample of a periodic column (row i
		// holding i mod p) would see no repeats at all.
		lo, hi := i*n/dictSample, (i+1)*n/dictSample
		sample[i] = col[lo+int(uint64(i+1)*0x9E3779B97F4A7C15>>33%uint64(hi-lo))]
	}
	slices.Sort(sample[:])
	d, f1, f2 := 0, 0, 0
	for i := 0; i < len(sample); {
		j := i + 1
		for j < len(sample) && sample[j] == sample[i] {
			j++
		}
		d++
		switch j - i {
		case 1:
			f1++
		case 2:
			f2++
		}
		i = j
	}
	return min(n, (d+f1*(f1-1)/(2*(f2+1)))/2)
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

// NumAttrs returns the number of columns.
func (c *Coded) NumAttrs() int { return len(c.cols) }

// Cardinality returns the number of distinct values in column a.
func (c *Coded) Cardinality(a int) int { return c.cards[a] }

// Column returns the dictionary codes of column a. Callers must not
// modify the returned slice.
func (c *Coded) Column(a int) []int32 { return c.cols[a] }
