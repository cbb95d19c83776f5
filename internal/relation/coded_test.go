package relation

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
)

func randomCodedTable(rng *rand.Rand, attrs, rows, domain int) *Table {
	names := make([]string, attrs)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	tbl := NewTable(MustSchema(names...))
	for r := 0; r < rows; r++ {
		row := make([]string, attrs)
		for a := range row {
			row[a] = string(rune('a'+a)) + string(rune('0'+rng.Intn(domain)))
		}
		tbl.AppendRow(row)
	}
	return tbl
}

func TestCodedCardinality(t *testing.T) {
	tbl := MustFromRows(MustSchema("A", "B"), [][]string{
		{"x", "1"}, {"y", "1"}, {"x", "2"},
	})
	c := Encode(tbl)
	if c.Cardinality(0) != 2 || c.Cardinality(1) != 2 {
		t.Errorf("cardinalities = %d, %d", c.Cardinality(0), c.Cardinality(1))
	}
	if c.NumRows() != 3 {
		t.Errorf("NumRows = %d", c.NumRows())
	}
}

// Property: encoding is faithful — rows agree on a column iff their codes
// agree.
func TestCodedFaithfulQuick(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		tbl := NewTable(MustSchema("A"))
		for _, v := range vals {
			tbl.AppendRow([]string{string(rune('a' + v%5))})
		}
		c := Encode(tbl)
		col := tbl.Column(0)
		for i := range col {
			for j := range col {
				if (col[i] == col[j]) != (c.cols[0][i] == c.cols[0][j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// sameCodes reports whether two views code the same rows identically,
// with the same cardinalities.
// TestDictHint pins the dictionary sizing rule on the column shapes it
// must tell apart: a unique column of up to about a thousand rows gets a
// slot per row, a short column gets one per cell, a column of a few values
// gets no more than it has, and a periodic column (row i holds i mod p,
// as in the synthetic workload) is not mistaken for a unique one, which an
// evenly strided sample would do.
func TestDictHint(t *testing.T) {
	column := func(n int, value func(i int) int) []string {
		col := make([]string, n)
		for i := range col {
			col[i] = strconv.Itoa(value(i))
		}
		return col
	}
	cases := []struct {
		name     string
		col      []string
		min, max int
	}{
		{"unique-870", column(870, func(i int) int { return i }), 870, 870},
		{"unique-5000", column(5000, func(i int) int { return i }), 1000, 1100},
		{"short", column(40, func(i int) int { return i % 3 }), 40, 40},
		{"constant", column(3000, func(int) int { return 7 }), 0, 1},
		{"five-values", column(3000, func(i int) int { return i * 7 % 5 }), 0, 5},
		{"period-251", column(3000, func(i int) int { return i % 251 }), 1, 251},
		{"period-1021", column(3000, func(i int) int { return i % 1021 }), 1, 1100},
	}
	for _, c := range cases {
		if got := dictHint(c.col); got < c.min || got > c.max {
			t.Errorf("%s: dictHint = %d, want %d..%d", c.name, got, c.min, c.max)
		}
	}
}

func sameCodes(a, b *Coded) bool {
	if a.n != b.n || len(a.cols) != len(b.cols) {
		return false
	}
	for c := range a.cols {
		if a.cards[c] != b.cards[c] || !slices.Equal(a.cols[c][:a.n], b.cols[c][:b.n]) {
			return false
		}
	}
	return true
}

// withRows returns a table with t's schema holding t's first k rows
// followed by extra.
func withRows(t *Table, k int, extra ...[]string) *Table {
	out := NewTable(t.Schema())
	for i := 0; i < k; i++ {
		out.AppendRow(t.Row(i))
	}
	out.AppendRows(extra)
	return out
}

// TestExtendMatchesEncode checks that extending the encoding of a prefix
// equals encoding the whole table, at every split point, and that an
// abandoned extension cannot corrupt a later one: extending the same
// view again over a different suffix must still equal a fresh encoding
// (Extend's guard rebuilds when the abandoned extension grew the shared
// dictionaries, and may overwrite its shared storage when it did not).
func TestExtendMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		attrs := 1 + rng.Intn(4)
		tbl := randomCodedTable(rng, attrs, rng.Intn(30), 1+rng.Intn(6))
		want := Encode(tbl)
		for k := 0; k <= tbl.NumRows(); k++ {
			base := Encode(withRows(tbl, k))
			before := Encode(withRows(tbl, k))
			if got := base.Extend(tbl, k); !sameCodes(got, want) {
				t.Fatalf("trial %d: Encode(t[:%d]).Extend ≠ Encode(t)", trial, k)
			}
			if !sameCodes(base, before) {
				t.Fatalf("trial %d: Extend changed the view it extended (k=%d)", trial, k)
			}
			// The view stays extendable over the same suffix, and a view
			// of the wrong length rebuilds instead of misreading rows.
			if !sameCodes(base.Extend(tbl, k), want) || !sameCodes(before.Extend(tbl, k/2), want) {
				t.Fatalf("trial %d: repeated or mismatched Extend ≠ Encode(t) (k=%d)", trial, k)
			}

			// Abandon an extension over a random suffix, then extend the
			// same view over another.
			row := func() []string {
				r := make([]string, attrs)
				for a := range r {
					r[a] = string(rune('a'+a)) + strconv.Itoa(rng.Intn(8))
				}
				return r
			}
			base.Extend(withRows(tbl, k, row(), row()), k)
			t2 := withRows(tbl, k, row(), row(), row())
			if got := base.Extend(t2, k); !sameCodes(got, Encode(t2)) {
				t.Fatalf("trial %d: Extend after an abandoned extension ≠ Encode (k=%d)", trial, k)
			}
		}
	}

	// The planted case: the abandoned suffix coins "new1", the kept one
	// coins "new2" first. Reusing the grown dictionary would code new2
	// after new1.
	tbl := MustFromRows(MustSchema("A"), [][]string{{"x"}, {"y"}})
	base := Encode(tbl)
	base.Extend(withRows(tbl, 2, []string{"new1"}), 2)
	t2 := withRows(tbl, 2, []string{"new2"}, []string{"new1"})
	if got, want := base.Extend(t2, 2), Encode(t2); !sameCodes(got, want) {
		t.Fatalf("after an abandoned extension: codes %v, want %v", got.cols[0], want.cols[0])
	}
}

// FuzzCodedExtend decodes a table from the fuzz bytes — the first byte
// picks the width, every further byte one cell — and checks that
// extending the encoding of its first split rows equals encoding it
// whole, also after an abandoned extension over the reversed suffix.
func FuzzCodedExtend(f *testing.F) {
	f.Add([]byte{2, 1, 2, 1, 3, 1, 2, 4, 4}, uint(2))
	f.Add([]byte{0, 0, 0, 0, 1}, uint(1))
	f.Add([]byte{3, ':', '1', ':', '1', ':', 1, 1, 1, 2, 9, 9, 9}, uint(7))
	f.Fuzz(func(t *testing.T, data []byte, split uint) {
		if len(data) == 0 {
			return
		}
		attrs := 1 + int(data[0]%4)
		names := make([]string, attrs)
		for a := range names {
			names[a] = string(rune('A' + a))
		}
		var rows [][]string
		for cells := data[1:]; len(cells) >= attrs; cells = cells[attrs:] {
			row := make([]string, attrs)
			for a := range row {
				row[a] = strconv.Itoa(int(cells[a] % 16))
			}
			rows = append(rows, row)
		}
		tbl := MustFromRows(MustSchema(names...), rows)
		k := int(split % uint(len(rows)+1))
		if !sameCodes(Encode(withRows(tbl, k)).Extend(tbl, k), Encode(tbl)) {
			t.Fatalf("Encode(t[:%d]).Extend ≠ Encode(t) on %v", k, rows)
		}
		base := Encode(withRows(tbl, k))
		reversed := slices.Clone(rows[k:])
		slices.Reverse(reversed)
		base.Extend(withRows(tbl, k, reversed...), k)
		if !sameCodes(base.Extend(tbl, k), Encode(tbl)) {
			t.Fatalf("Extend after an abandoned extension ≠ Encode(t) at split %d on %v", k, rows)
		}
	})
}
