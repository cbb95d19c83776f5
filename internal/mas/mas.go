// Package mas discovers Maximal Attribute Sets (Def. 3.2 of the F² paper):
// maximal column combinations whose projection contains at least one
// duplicate. These are exactly the maximal non-unique column combinations
// of Heise et al. (DUCC, VLDB 2013); F² adapts DUCC for Step 1 because the
// complexity of the random walk depends on the size of the solution border
// rather than on the number of attributes.
//
// Two implementations are provided:
//
//   - Discover: a DUCC-style random walk over the column-combination
//     lattice with upward/downward pruning (the encryptor's Step 1);
//   - DiscoverLevelwise: a bottom-up Apriori-style sweep (simple, used as a
//     cross-check and in the ablation benchmark).
//
// The tests hold a third, exhaustive enumeration, as the oracle for small
// schemas.
//
// Non-uniqueness is downward closed: if X has a duplicate projection then
// every subset of X does. The MASs form the positive border of that
// monotone property. Discover and DiscoverLevelwise answer it the way
// DUCC does: X is non-unique iff its stripped partition, read from a
// partition.Cache kept for the whole search, has a class.
package mas

import (
	"context"
	"fmt"

	"f2/internal/border"

	"f2/internal/partition"
	"f2/internal/relation"
)

// Result carries the discovered MASs together with their partitions, which
// the F² encryptor (and several benchmarks) need immediately afterwards.
type Result struct {
	Sets []relation.AttrSet
	// Partitions maps each MAS to its full partition π_M.
	Partitions map[relation.AttrSet]*partition.Partition
	// Coded is the dictionary-encoded table the sets were found on.
	// MaintainBorder extends it with the appended rows, and Step 4 builds
	// its stripped partitions from it.
	Coded *relation.Coded
	// Checked counts uniqueness checks performed (work measure for the
	// DUCC-vs-levelwise ablation).
	Checked int
	// Border holds the border search's counters (Discover only; zero
	// for the levelwise sweep and for MaintainBorder).
	Border border.Stats
	// PLIs counts the work of the uniqueness oracle's partition cache
	// (zero for MaintainBorder).
	PLIs partition.CacheStats
	// postings caches MaintainBorder's per-column postings so
	// back-to-back incremental maintains skip the O(n·m) rebuild. Shared
	// across a Result lineage; the rows guard makes a stale copy (an
	// aborted flush attempt left extra rows behind) rebuild instead of
	// corrupting the scan.
	postings *postingsIndex
}

// postingsIndex is a per-column index over the codes of Result.Coded,
// covering rows 0..rows-1: post[a][code] is the ascending list of rows
// whose column-a cell has that code.
//
// acc is the scan's scratch accumulator, kept here so successive
// maintains don't allocate and zero O(n) words each; it is all-zero
// between uses by construction. setMinJ/setGen/gen implement the O(1)
// per-row agreement-set table: an AttrSet over m attributes is an index
// below 1<<m, so for small m a generation-stamped array replaces a
// linear scan over the row's distinct sets.
type postingsIndex struct {
	rows int
	post [][][]int32
	acc  []relation.AttrSet

	setMinJ []int32
	setGen  []uint32
	gen     uint32
}

// Discover finds all MASs of t with the DUCC-style border search of
// package border: greedy walks classify the lattice, a Dualize-&-Advance
// completion finds the holes, and the returned positive border is provably
// the full set of maximal non-unique column combinations.
func Discover(t *relation.Table) *Result {
	//lint:ignore f2vet/ctxflow convenience wrapper; cancellable callers use DiscoverCtx
	r, _ := DiscoverCtx(context.Background(), t)
	return r
}

// DiscoverCtx is Discover with cancellation: a done context makes the
// uniqueness oracle constant-false so the border search drains quickly,
// and the bogus result is discarded.
func DiscoverCtx(ctx context.Context, t *relation.Table) (*Result, error) {
	coded := relation.Encode(t)
	r := &Result{Partitions: make(map[relation.AttrSet]*partition.Partition), Coded: coded}
	if t.NumRows() < 2 || t.NumAttrs() == 0 {
		return r, nil
	}
	plis := partition.NewCache(coded)
	sets, stats := border.Find(relation.FullAttrSet(t.NumAttrs()), func(x relation.AttrSet) bool {
		return ctx.Err() == nil && plis.Get(x).HasDuplicate()
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mas: discovery: %w", err)
	}
	r.Sets = sets
	r.Checked = stats.Checks
	r.Border = stats
	r.PLIs = plis.Stats()
	ws := partition.NewWorkspace()
	for _, x := range r.Sets {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mas: discovery: %w", err)
		}
		r.Partitions[x] = partition.OfCoded(coded, x, ws)
	}
	return r, nil
}

// DiscoverLevelwise finds all MASs via a bottom-up Apriori sweep over
// non-unique column combinations: level ℓ+1 candidates are joins of
// non-unique level-ℓ sets all of whose immediate subsets are non-unique.
// A set is maximal if no generated superset is non-unique.
func DiscoverLevelwise(t *relation.Table) *Result {
	coded := relation.Encode(t)
	r := &Result{Partitions: make(map[relation.AttrSet]*partition.Partition), Coded: coded}
	if t.NumRows() < 2 {
		return r
	}
	m := t.NumAttrs()
	plis := partition.NewCache(coded)
	var level []relation.AttrSet
	for a := 0; a < m; a++ {
		x := relation.SingleAttr(a)
		r.Checked++
		if plis.Get(x).HasDuplicate() {
			level = append(level, x)
		}
	}
	candidates := make(map[relation.AttrSet]bool) // all non-unique sets found
	for _, x := range level {
		candidates[x] = true
	}
	for len(level) > 0 {
		inLevel := make(map[relation.AttrSet]bool, len(level))
		for _, x := range level {
			inLevel[x] = true
		}
		seen := make(map[relation.AttrSet]bool)
		var next []relation.AttrSet
		for i := 0; i < len(level); i++ {
			for j := i + 1; j < len(level); j++ {
				cand := level[i].Union(level[j])
				if cand.Size() != level[i].Size()+1 || seen[cand] {
					continue
				}
				seen[cand] = true
				ok := true
				for _, sub := range cand.ImmediateSubsets() {
					if !inLevel[sub] {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				r.Checked++
				if plis.Get(cand).HasDuplicate() {
					next = append(next, cand)
					candidates[cand] = true
				}
			}
		}
		level = next
	}
	r.PLIs = plis.Stats()
	// Maximal = non-unique sets with no non-unique strict superset.
	for x := range candidates {
		maximal := true
		for y := range candidates {
			if x != y && x.ProperSubsetOf(y) {
				maximal = false
				break
			}
		}
		if maximal {
			r.Sets = append(r.Sets, x)
		}
	}
	relation.SortAttrSets(r.Sets)
	ws := partition.NewWorkspace()
	for _, x := range r.Sets {
		r.Partitions[x] = partition.OfCoded(coded, x, ws)
	}
	return r
}
