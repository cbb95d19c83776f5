package relation

import (
	"math/rand"
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

func TestCodedMatchesTableDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		attrs := 1 + rng.Intn(5)
		tbl := randomCodedTable(rng, attrs, 1+rng.Intn(40), 1+rng.Intn(4))
		coded := Encode(tbl)
		for mask := AttrSet(1); mask < FullAttrSet(attrs); mask++ {
			if coded.HasDuplicateOn(mask) != tbl.HasDuplicateOn(mask) {
				t.Fatalf("trial %d: disagreement on %v\n%v", trial, mask, tbl)
			}
		}
	}
}

// TestRadixKeyMatchesByteKey checks the mixed-radix duplicate scan
// against the byte-string fallback on random tables, and the overflow
// test that picks between them on a table whose full cardinality product
// exceeds 63 bits.
func TestRadixKeyMatchesByteKey(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		attrs := 2 + rng.Intn(5)
		c := Encode(randomCodedTable(rng, attrs, 2+rng.Intn(60), 1+rng.Intn(8)))
		for mask := AttrSet(1); mask <= FullAttrSet(attrs); mask++ {
			cols := mask.Attrs()
			if !c.radixFits(cols) {
				t.Fatalf("trial %d: small product on %v reported as overflowing", trial, mask)
			}
			if c.hasDuplicateRadix(cols) != c.hasDuplicateBytes(cols) {
				t.Fatalf("trial %d: radix and byte keys disagree on %v", trial, mask)
			}
		}
	}

	// Six columns of about 2000 distinct values over 3000 rows: four
	// columns fit in 63 bits (2000⁴ ≈ 2⁴⁴), all six do not (2000⁶ ≈ 2⁶⁶).
	// Every third row repeats its predecessor on the first five columns,
	// so wide projections have duplicates only if the sixth is left out.
	tbl := NewTable(MustSchema("A", "B", "C", "D", "E", "F"))
	var prev []string
	for r := 0; r < 3000; r++ {
		row := make([]string, 6)
		for a := range row {
			row[a] = string(rune('a'+a)) + strconv.Itoa(rng.Intn(100000))
		}
		if r%3 == 2 {
			copy(row, prev[:5])
		}
		tbl.AppendRow(row)
		prev = row
	}
	c := Encode(tbl)
	full := FullAttrSet(6)
	if c.radixFits(full.Attrs()) {
		t.Fatalf("cardinalities %v: full product should overflow 63 bits", c.cards)
	}
	for mask := AttrSet(1); mask <= full; mask++ {
		cols := mask.Attrs()
		want := c.hasDuplicateBytes(cols)
		if c.radixFits(cols) && c.hasDuplicateRadix(cols) != want {
			t.Fatalf("radix and byte keys disagree on %v", mask)
		}
		if c.HasDuplicateOn(mask) != want || tbl.HasDuplicateOn(mask) != want {
			t.Fatalf("HasDuplicateOn(%v) disagrees with the byte key (%v)", mask, want)
		}
	}
	if !c.HasDuplicateOn(NewAttrSet(0, 1, 2, 3, 4)) || c.HasDuplicateOn(full) {
		t.Fatal("planted duplicates not classified")
	}
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

func TestCodedPigeonholeBound(t *testing.T) {
	// 10 rows over a 2×2 domain: product 4 < 10 forces duplicates without
	// scanning; the answer must still be correct.
	tbl := NewTable(MustSchema("A", "B"))
	for i := 0; i < 10; i++ {
		tbl.AppendRow([]string{string(rune('a' + i%2)), string(rune('x' + (i/2)%2))})
	}
	c := Encode(tbl)
	if !c.HasDuplicateOn(NewAttrSet(0, 1)) {
		t.Error("pigeonhole case misclassified")
	}
}

func TestCodedKeyColumnBound(t *testing.T) {
	tbl := MustFromRows(MustSchema("K", "V"), [][]string{
		{"1", "x"}, {"2", "x"}, {"3", "x"},
	})
	c := Encode(tbl)
	if c.HasDuplicateOn(NewAttrSet(0)) {
		t.Error("key column reported duplicated")
	}
	if c.HasDuplicateOn(NewAttrSet(0, 1)) {
		t.Error("set containing key column reported duplicated")
	}
	if !c.HasDuplicateOn(NewAttrSet(1)) {
		t.Error("constant-ish column not duplicated")
	}
}

func TestCodedTinyTables(t *testing.T) {
	empty := NewTable(MustSchema("A"))
	if Encode(empty).HasDuplicateOn(NewAttrSet(0)) {
		t.Error("empty table has duplicates")
	}
	one := MustFromRows(MustSchema("A"), [][]string{{"v"}})
	if Encode(one).HasDuplicateOn(NewAttrSet(0)) {
		t.Error("single row has duplicates")
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
