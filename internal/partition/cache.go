package partition

import (
	"math"
	"sync/atomic"

	"f2/internal/relation"
)

// Cache holds the stripped partitions (position list indexes, PLIs) met
// along one border walk over a coded table, and answers both of F²'s
// border predicates from them instead of scanning the table:
//
//   - Step 1: X is non-unique iff its PLI has a class (HasDuplicate);
//   - Step 4: X→Y is violated iff some class of the PLI of X holds two Y
//     codes (Violation).
//
// This is how DUCC (Heise et al., VLDB 2013) answers uniqueness checks and
// how TANE (Huhtala et al., 1999) tests dependencies. A walk moves one
// attribute at a time, so the PLI of X is built from the cached strict
// subset of X with the fewest rows, one column per ProductColumn; each
// step shrinks it, and sets that grow a unique subset cost nothing. Every
// chain starts at π_∅, one class of every row: the single-column PLIs are
// its products with each column.
//
// Memory is bounded with no knob. π_∅ and the single-column PLIs take at
// most n + 1.5·n·m int32 words for n rows and m columns; every other PLI is
// charged its rows and ends plus a fixed bookkeeping share against a
// budget of budgetTables·n·m words. When a new PLI does not fit, the
// cache drops every entry it holds and starts over; one that does not fit
// even then is returned uncached. A miss or an eviction changes what a
// lookup costs, never what it answers.
//
// A Cache is owned by one goroutine. Fork hands another goroutine an
// empty cache over the same table that shares π_∅ and the single-column
// PLIs (read-only) and the budget (an atomic counter), so concurrent walks
// need no lock and together stay within one budget.
type Cache struct {
	coded   *relation.Coded
	whole   *Stripped   // π_∅; shared read-only by forks
	singles []*Stripped // π_a for every column a; likewise
	plis    map[relation.AttrSet]*Stripped
	keys    []relation.AttrSet // the cached sets, for subset scans
	held    int64              // budget words this cache holds
	free    *atomic.Int64      // budget words not yet charged, shared by forks
	ws      *Workspace
	stats   CacheStats
}

// CacheStats counts a cache's work.
type CacheStats struct {
	Products  int // PLIs built by ProductColumn
	Evictions int // entries dropped to make room
}

// budgetTables is the cache budget in copies of the coded table (n·m
// int32 words), and entryWords the bookkeeping words charged per entry on
// top of its rows and ends: the map slot, the key and the Stripped
// header.
const (
	budgetTables = 4
	entryWords   = 32
)

// NewCache builds π_∅ and the single-column PLIs of c and returns an
// empty cache over them.
func NewCache(c *relation.Coded) *Cache {
	rows := make([]int32, c.NumRows())
	for i := range rows {
		rows[i] = int32(i)
	}
	free := new(atomic.Int64)
	free.Store(budgetTables * int64(c.NumRows()) * int64(c.NumAttrs()))
	cache := newCache(c, oneClass(rows, c.NumRows()), make([]*Stripped, c.NumAttrs()), free)
	for a := range cache.singles {
		cache.singles[a] = ProductColumn(cache.whole, c, a, cache.ws)
	}
	return cache
}

func newCache(c *relation.Coded, whole *Stripped, singles []*Stripped, free *atomic.Int64) *Cache {
	return &Cache{coded: c, whole: whole, singles: singles, plis: make(map[relation.AttrSet]*Stripped), free: free, ws: NewWorkspace()}
}

// Fork returns an empty cache over the same table that shares c's
// π_∅, single-column PLIs and budget. c and its forks may each be used
// by a different goroutine.
func (c *Cache) Fork() *Cache {
	return newCache(c.coded, c.whole, c.singles, c.free)
}

// Release empties the cache and returns the budget its entries held to
// the family it was forked from. A fork that is done must be released, or
// its share stays charged until the whole family is dropped.
func (c *Cache) Release() {
	clear(c.plis)
	c.keys = c.keys[:0]
	c.free.Add(c.held)
	c.held = 0
}

// Stats returns the cache's counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// Coded returns the table the cache partitions.
func (c *Cache) Coded() *relation.Coded { return c.coded }

// Get returns the stripped partition of x; for the empty set, π_∅. Rows
// are ascending within every class. The order of the classes depends on
// the subset the PLI was built from, so callers must not depend on it.
func (c *Cache) Get(x relation.AttrSet) *Stripped {
	switch x.Size() {
	case 0:
		return c.whole
	case 1:
		return c.singles[x.First()]
	}
	if s, ok := c.plis[x]; ok {
		return s
	}
	s := c.base(x)
	for rest := x.Diff(s.Attrs); !rest.IsEmpty(); {
		if !s.HasDuplicate() {
			// A unique subset makes every superset unique.
			s = &Stripped{Attrs: x, numRows: s.numRows}
			c.put(s)
			break
		}
		a := c.narrowest(rest)
		rest = rest.Remove(a)
		if next, ok := c.plis[s.Attrs.Add(a)]; ok {
			s = next
			continue
		}
		s = ProductColumn(s, c.coded, a, c.ws)
		c.stats.Products++
		c.put(s)
	}
	return s
}

// base returns the cheapest PLI to build x from: the cached strict subset
// of x with the fewest rows, or, if none is cached, the single column of
// x with the fewest rows. A walk moves one attribute at a time, so the
// immediate subsets are tried first; only when none of them is cached
// are all entries scanned. Ties go to the larger set, which needs fewer
// products.
func (c *Cache) base(x relation.AttrSet) *Stripped {
	var best *Stripped
	better := func(s *Stripped) bool {
		return best == nil || len(s.rows) < len(best.rows) ||
			len(s.rows) == len(best.rows) && s.Attrs.Size() > best.Attrs.Size()
	}
	for rest := x; !rest.IsEmpty(); {
		a := rest.First()
		rest = rest.Remove(a)
		if s, ok := c.plis[x.Remove(a)]; ok && better(s) {
			best = s
		}
	}
	if best == nil {
		for _, k := range c.keys {
			if k.ProperSubsetOf(x) && better(c.plis[k]) {
				best = c.plis[k]
			}
		}
	}
	if best == nil {
		return c.singles[c.narrowest(x)]
	}
	return best
}

// narrowest returns the attribute of x whose single-column PLI has the
// fewest rows: the column that splits a PLI finest.
func (c *Cache) narrowest(x relation.AttrSet) int {
	best, rows := -1, math.MaxInt
	for rest := x; !rest.IsEmpty(); {
		a := rest.First()
		rest = rest.Remove(a)
		if n := len(c.singles[a].rows); n < rows {
			best, rows = a, n
		}
	}
	return best
}

// put caches s. When the budget cannot hold it, the cache is emptied
// first; if it still cannot, s stays uncached.
func (c *Cache) put(s *Stripped) {
	w := words(s)
	if c.free.Add(-w) < 0 {
		c.free.Add(w)
		if len(c.plis) > 0 {
			c.stats.Evictions += len(c.plis)
			c.Release()
		}
		if c.free.Add(-w) < 0 {
			c.free.Add(w)
			return
		}
	}
	c.held += w
	c.plis[s.Attrs] = s
	c.keys = append(c.keys, s.Attrs)
}

// words is what a cached PLI is charged against the budget.
func words(s *Stripped) int64 {
	return int64(len(s.rows) + len(s.ends) + entryWords)
}

// Violation reports whether X→Y fails on s = π_X, given col, the codes of
// column Y: whether some class holds two codes. Its witness is the pair
// (f, r) where r is the smallest row whose code differs from that of f,
// the first row of r's class. The pair does not depend on the order of
// the classes, only on rows being ascending within each, which every
// Cache PLI guarantees: each class offers its first row and the first
// later row with a different code, and the smallest such row wins.
func (s *Stripped) Violation(col []int32) (f, r int, violated bool) {
	bestF, bestR := int32(-1), int32(math.MaxInt32)
	start := int32(0)
	for _, end := range s.ends {
		class := s.rows[start:end]
		start = end
		first := class[0]
		if first >= bestR {
			continue
		}
		v := col[first]
		for _, row := range class[1:] {
			if row >= bestR {
				break
			}
			if col[row] != v {
				bestF, bestR = first, row
				break
			}
		}
	}
	if bestF < 0 {
		return 0, 0, false
	}
	return int(bestF), int(bestR), true
}
