package partition

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"f2/internal/relation"
)

// shuffledMasks returns every non-empty subset of m attributes in random
// order, so consecutive cache lookups build PLIs from varying subsets.
func shuffledMasks(rng *rand.Rand, m int) []relation.AttrSet {
	var out []relation.AttrSet
	for x := relation.AttrSet(1); x <= relation.FullAttrSet(m); x++ {
		out = append(out, x)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// cachePLIError checks one lookup against the table: the PLI holds the
// classes of π_x, ascending within each, and is non-empty iff the table's
// string-keyed scan finds a duplicate.
func cachePLIError(tbl *relation.Table, c *relation.Coded, s *Stripped, x relation.AttrSet) error {
	if s.Attrs != x {
		return fmt.Errorf("Get(%v) returned the PLI of %v", x, s.Attrs)
	}
	if want := tbl.HasDuplicateOn(x); s.HasDuplicate() != want {
		return fmt.Errorf("Get(%v).HasDuplicate() = %v, Table.HasDuplicateOn = %v", x, !want, want)
	}
	if want := modelPLI(tbl, x); !sameStripped(s, want) {
		return fmt.Errorf("Get(%v) = %v, want the classes of %v", x, classesOf(s), classesOf(want))
	}
	for _, class := range classesOf(s) {
		if !slices.IsSorted(class) {
			return fmt.Errorf("Get(%v): class %v is not ascending", x, class)
		}
	}
	return nil
}

// TestCacheMatchesTableDuplicates: on random tables queried in random
// order, every PLI the cache returns equals π_X and answers uniqueness as
// Table.HasDuplicateOn does.
func TestCacheMatchesTableDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		attrs := 1 + rng.Intn(7)
		tbl := randomTable(rng, attrs, rng.Intn(60), 1+rng.Intn(5))
		c := relation.Encode(tbl)
		cache := NewCache(c)
		for _, x := range shuffledMasks(rng, attrs) {
			if err := cachePLIError(tbl, c, cache.Get(x), x); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCacheOverflowingProduct: six columns of about 2000 distinct values
// over 3000 rows, so the cardinality product of five or six columns
// overflows 63 bits and no mixed-radix key exists. Every third row
// repeats its predecessor on the first five columns, so wide projections
// have duplicates only if the sixth is left out. PLIs need no key.
func TestCacheOverflowingProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
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
	product := 1.0
	for a := 0; a < 6; a++ {
		product *= float64(c.Cardinality(a))
	}
	if product < 1<<63 {
		t.Fatalf("cardinality product %g fits in 63 bits", product)
	}
	cache := NewCache(c)
	for _, x := range shuffledMasks(rng, 6) {
		if err := cachePLIError(tbl, c, cache.Get(x), x); err != nil {
			t.Fatal(err)
		}
	}
	if !cache.Get(relation.NewAttrSet(0, 1, 2, 3, 4)).HasDuplicate() || cache.Get(relation.FullAttrSet(6)).HasDuplicate() {
		t.Fatal("planted duplicates not classified")
	}
}

// TestCacheEvictionKeepsAnswers walks every subset of a wide,
// low-cardinality table, whose PLIs outgrow the budget many times over,
// twice in different orders: the cache evicts, and every answer still
// equals the table's. Releasing the cache returns its whole budget.
func TestCacheEvictionKeepsAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tbl := randomTable(rng, 10, 120, 2)
	c := relation.Encode(tbl)
	cache := NewCache(c)
	full := cache.free.Load()
	for pass := 0; pass < 2; pass++ {
		for _, x := range shuffledMasks(rng, 10) {
			if err := cachePLIError(tbl, c, cache.Get(x), x); err != nil {
				t.Fatal(err)
			}
		}
	}
	if cache.Stats().Evictions == 0 {
		t.Fatalf("no eviction over %d products with a budget of %d words", cache.Stats().Products, full)
	}
	if free := cache.free.Load(); free < 0 || free > full {
		t.Fatalf("free budget %d outside [0, %d]", free, full)
	}
	cache.Release()
	if free := cache.free.Load(); free != full {
		t.Fatalf("after Release the budget is %d words, want %d", free, full)
	}
	if len(cache.plis) != 0 || len(cache.keys) != 0 {
		t.Fatal("Release left entries behind")
	}
}

// TestCacheForksConcurrently runs forks of one cache on separate
// goroutines (the race detector covers the shared singles and budget):
// each answers as the table does, and releasing them all restores the
// family's budget.
func TestCacheForksConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	tbl := randomTable(rng, 8, 150, 3)
	c := relation.Encode(tbl)
	root := NewCache(c)
	full := root.free.Load()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		fork := root.Fork()
		order := shuffledMasks(rng, 8)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer fork.Release()
			for _, x := range order {
				if err := cachePLIError(tbl, c, fork.Get(x), x); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if free := root.free.Load(); free != full {
		t.Fatalf("after releasing every fork the budget is %d words, want %d", free, full)
	}
}

// violationModel is the witness rule by definition, over the string-key
// classes of X: r is the smallest row whose Y cell differs from that of
// the first row of its X class, and f is that first row.
func violationModel(tbl *relation.Table, x relation.AttrSet, y int) (f, r int, violated bool) {
	col := tbl.Column(y)
	first := make([]int, tbl.NumRows())
	for _, cl := range stringKeyClasses(tbl, x) {
		for _, row := range cl {
			first[row] = cl[0]
		}
	}
	for row := 0; row < tbl.NumRows(); row++ {
		if col[row] != col[first[row]] {
			return first[row], row, true
		}
	}
	return 0, 0, false
}

// TestViolationIgnoresClassOrder: the witness of X→Y equals the model on
// random tables, whether the PLI of X comes from the cache or from a
// product that adds X's smallest or its largest attribute last, which
// order classes differently.
func TestViolationIgnoresClassOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ws := NewWorkspace()
	for trial := 0; trial < 300; trial++ {
		attrs := 3 + rng.Intn(5)
		tbl := randomTable(rng, attrs, rng.Intn(50), 1+rng.Intn(4))
		c := relation.Encode(tbl)
		cache := NewCache(c)
		full := relation.FullAttrSet(attrs)
		for k := 0; k < 10; k++ {
			y := rng.Intn(attrs)
			x := relation.AttrSet(rng.Int63()).Intersect(full).Remove(y)
			if x.Size() < 2 {
				continue
			}
			first, last := x.First(), bits.Len64(uint64(x))-1
			wf, wr, want := violationModel(tbl, x, y)
			for _, s := range []*Stripped{
				cache.Get(x),
				ProductColumn(modelPLI(tbl, x.Remove(first)), c, first, ws),
				ProductColumn(modelPLI(tbl, x.Remove(last)), c, last, ws),
			} {
				if gf, gr, got := s.Violation(c.Column(y)); got != want || got && (gf != wf || gr != wr) {
					t.Fatalf("trial %d: %v→%d witness (%d, %d, %v), want (%d, %d, %v)", trial, x, y, gf, gr, got, wf, wr, want)
				}
			}
		}
	}
}
