package relation_test

// The uniqueness oracle over a coded view is partition.Cache: X is
// non-unique iff its stripped partition has a class. These tests pin it
// against Table.HasDuplicateOn, the string-keyed scan, and against the
// mixed-radix and packed-byte scans Coded used to run, kept here as
// references.

import (
	"encoding/binary"
	"math/rand"
	"strconv"
	"testing"

	"f2/internal/partition"
	"f2/internal/relation"
)

func randomTable(rng *rand.Rand, attrs, rows, domain int) *relation.Table {
	names := make([]string, attrs)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	tbl := relation.NewTable(relation.MustSchema(names...))
	for r := 0; r < rows; r++ {
		row := make([]string, attrs)
		for a := range row {
			row[a] = string(rune('a'+a)) + string(rune('0'+rng.Intn(domain)))
		}
		tbl.AppendRow(row)
	}
	return tbl
}

// nonUnique asks a fresh PLI cache whether attrs has a duplicate.
func nonUnique(c *relation.Coded, attrs relation.AttrSet) bool {
	return partition.NewCache(c).Get(attrs).HasDuplicate()
}

// radixFits reports whether the mixed-radix key over cols fits in 63
// bits: whether the product of the columns' cardinalities is at most
// 1<<63.
func radixFits(c *relation.Coded, cols []int) bool {
	var product uint64 = 1
	for _, a := range cols {
		card := uint64(c.Cardinality(a))
		if product > (1<<63)/card {
			return false
		}
		product *= card
	}
	return true
}

// hasDuplicateRadix keys each row by its exact mixed-radix uint64.
func hasDuplicateRadix(c *relation.Coded, cols []int) bool {
	seen := make(map[uint64]struct{}, c.NumRows())
	for i := 0; i < c.NumRows(); i++ {
		var key uint64
		for _, a := range cols {
			key = key*uint64(c.Cardinality(a)) + uint64(c.Column(a)[i])
		}
		if _, dup := seen[key]; dup {
			return true
		}
		seen[key] = struct{}{}
	}
	return false
}

// hasDuplicateBytes keys each row by its packed codes.
func hasDuplicateBytes(c *relation.Coded, cols []int) bool {
	seen := make(map[string]struct{}, c.NumRows())
	key := make([]byte, 0, 4*len(cols))
	for i := 0; i < c.NumRows(); i++ {
		key = key[:0]
		for _, a := range cols {
			key = binary.LittleEndian.AppendUint32(key, uint32(c.Column(a)[i]))
		}
		if _, dup := seen[string(key)]; dup {
			return true
		}
		seen[string(key)] = struct{}{}
	}
	return false
}

func TestCodedMatchesTableDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		attrs := 1 + rng.Intn(5)
		tbl := randomTable(rng, attrs, 1+rng.Intn(40), 1+rng.Intn(4))
		cache := partition.NewCache(relation.Encode(tbl))
		for mask := relation.AttrSet(1); mask < relation.FullAttrSet(attrs); mask++ {
			if cache.Get(mask).HasDuplicate() != tbl.HasDuplicateOn(mask) {
				t.Fatalf("trial %d: disagreement on %v\n%v", trial, mask, tbl)
			}
		}
	}
}

// TestRadixKeyMatchesByteKey checks the PLI oracle against the
// mixed-radix and byte-string reference scans on random tables, and on a
// table whose full cardinality product exceeds 63 bits, where only the
// byte key exists.
func TestRadixKeyMatchesByteKey(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		attrs := 2 + rng.Intn(5)
		c := relation.Encode(randomTable(rng, attrs, 2+rng.Intn(60), 1+rng.Intn(8)))
		cache := partition.NewCache(c)
		for mask := relation.AttrSet(1); mask <= relation.FullAttrSet(attrs); mask++ {
			cols := mask.Attrs()
			if !radixFits(c, cols) {
				t.Fatalf("trial %d: small product on %v reported as overflowing", trial, mask)
			}
			want := hasDuplicateBytes(c, cols)
			if hasDuplicateRadix(c, cols) != want || cache.Get(mask).HasDuplicate() != want {
				t.Fatalf("trial %d: radix key, byte key and PLI disagree on %v", trial, mask)
			}
		}
	}

	// Six columns of about 2000 distinct values over 3000 rows: four
	// columns fit in 63 bits (2000⁴ ≈ 2⁴⁴), all six do not (2000⁶ ≈ 2⁶⁶).
	// Every third row repeats its predecessor on the first five columns,
	// so wide projections have duplicates only if the sixth is left out.
	tbl := relation.NewTable(relation.MustSchema("A", "B", "C", "D", "E", "F"))
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
	c := relation.Encode(tbl)
	cache := partition.NewCache(c)
	full := relation.FullAttrSet(6)
	if radixFits(c, full.Attrs()) {
		t.Fatal("full cardinality product should overflow 63 bits")
	}
	for mask := relation.AttrSet(1); mask <= full; mask++ {
		cols := mask.Attrs()
		want := hasDuplicateBytes(c, cols)
		if radixFits(c, cols) && hasDuplicateRadix(c, cols) != want {
			t.Fatalf("radix and byte keys disagree on %v", mask)
		}
		if cache.Get(mask).HasDuplicate() != want || tbl.HasDuplicateOn(mask) != want {
			t.Fatalf("PLI or Table.HasDuplicateOn(%v) disagrees with the byte key (%v)", mask, want)
		}
	}
	if !cache.Get(relation.NewAttrSet(0, 1, 2, 3, 4)).HasDuplicate() || cache.Get(full).HasDuplicate() {
		t.Fatal("planted duplicates not classified")
	}
}

func TestCodedPigeonholeBound(t *testing.T) {
	// 10 rows over a 2×2 domain: product 4 < 10 forces duplicates.
	tbl := relation.NewTable(relation.MustSchema("A", "B"))
	for i := 0; i < 10; i++ {
		tbl.AppendRow([]string{string(rune('a' + i%2)), string(rune('x' + (i/2)%2))})
	}
	if !nonUnique(relation.Encode(tbl), relation.NewAttrSet(0, 1)) {
		t.Error("pigeonhole case misclassified")
	}
}

func TestCodedKeyColumnBound(t *testing.T) {
	tbl := relation.MustFromRows(relation.MustSchema("K", "V"), [][]string{
		{"1", "x"}, {"2", "x"}, {"3", "x"},
	})
	c := relation.Encode(tbl)
	if nonUnique(c, relation.NewAttrSet(0)) {
		t.Error("key column reported duplicated")
	}
	if nonUnique(c, relation.NewAttrSet(0, 1)) {
		t.Error("set containing key column reported duplicated")
	}
	if !nonUnique(c, relation.NewAttrSet(1)) {
		t.Error("constant-ish column not duplicated")
	}
}

func TestCodedTinyTables(t *testing.T) {
	empty := relation.NewTable(relation.MustSchema("A"))
	if nonUnique(relation.Encode(empty), relation.NewAttrSet(0)) {
		t.Error("empty table has duplicates")
	}
	one := relation.MustFromRows(relation.MustSchema("A"), [][]string{{"v"}})
	if nonUnique(relation.Encode(one), relation.NewAttrSet(0)) {
		t.Error("single row has duplicates")
	}
}
