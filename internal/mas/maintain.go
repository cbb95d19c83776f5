package mas

import (
	"context"
	"fmt"
	"slices"

	"f2/internal/partition"
	"f2/internal/relation"
)

// Refreshed is the outcome of a successful MaintainBorder call: the same
// MAS border as before, with every cached partition refined to cover the
// appended rows, plus the bookkeeping an incremental re-encryption needs.
type Refreshed struct {
	// Result carries the unchanged Sets with refined Partitions. Its
	// Checked field holds the number of pair-agreement probes performed —
	// the incremental analogue of discovery's full-table uniqueness checks.
	Result *Result
	// Deltas maps each MAS to what the append did to its partition.
	Deltas map[relation.AttrSet]partition.Delta
	// Agreements maps every distinct non-empty agreement set realized by a
	// row pair involving at least one appended row to one witnessing pair
	// {i, j} with i < j. These are exactly the projection collisions the
	// append introduced, so they drive incremental false-positive
	// elimination (core Step 4) for free.
	Agreements map[relation.AttrSet][2]int
}

// setStampMaxAttrs bounds the schemas served by the O(1) stamped
// agreement-set table: 1<<m array entries must stay small. Wider schemas
// fall back to a linear scan over the row's few distinct sets.
const setStampMaxAttrs = 16

// MaintainBorder incrementally maintains a MAS border after the rows
// t[oldRows:] were appended: prev must be the discovery result for the
// first oldRows rows of t. Non-uniqueness is monotone under appends, so
// every old MAS stays non-unique; the border moves iff some set outside
// the downward closure of prev.Sets became non-unique. Any such set is
// contained in the agreement set of a row pair involving an appended row,
// and an agreement set is itself non-unique (witnessed by its pair) — so
// the border is unchanged iff every such agreement set is covered by an
// existing MAS. This is the exact form of "re-test maximality for the
// MASs whose partitions changed and probe their supersets": the agreement
// set of a merging pair is precisely the superset a probe would find.
//
// On success it returns the refreshed border (ok=true); ok=false with a
// nil error means the border changed and the caller must fall back to
// full discovery. The scan is logically O(Δ·n) pair probes — Checked
// still counts them, so reports stay comparable — but is executed
// through per-column value postings, so only pairs that agree on at
// least one cell cost anything: worst case O(Δ·n) integer bit-sets on a
// constant column, and on high-cardinality data orders of magnitude
// fewer than the pairwise cell-comparison scan this replaces.
func MaintainBorder(ctx context.Context, prev *Result, t *relation.Table, oldRows int) (*Refreshed, bool, error) {
	n := t.NumRows()
	if oldRows > n {
		return nil, false, fmt.Errorf("mas: maintain: old row count %d exceeds table rows %d", oldRows, n)
	}
	coded := prev.Coded.Extend(t, oldRows)
	ref := &Refreshed{
		Result:     &Result{Sets: prev.Sets, Partitions: make(map[relation.AttrSet]*partition.Partition, len(prev.Sets)), Coded: coded},
		Deltas:     make(map[relation.AttrSet]partition.Delta, len(prev.Sets)),
		Agreements: make(map[relation.AttrSet][2]int),
	}
	m := t.NumAttrs()
	cols := make([][]int32, m)
	for a := range cols {
		cols[a] = coded.Column(a)
	}
	// The postings are cached on the Result lineage; they are reusable
	// only when they cover exactly the already-encrypted prefix (an
	// aborted attempt leaves rows != oldRows behind, which must rebuild —
	// the stale entries reference dead data). Codes are first-occurrence,
	// so cached postings stay valid even when Extend had to re-encode.
	idx := prev.postings
	if idx == nil || idx.rows != oldRows || len(idx.post) != m {
		idx = &postingsIndex{rows: oldRows, post: make([][][]int32, m)}
		for a, col := range cols {
			idx.post[a] = make([][]int32, coded.Cardinality(a))
			for i, code := range col[:oldRows] {
				idx.post[a][code] = append(idx.post[a][code], int32(i))
			}
		}
	}
	// Codes the append coined get empty postings.
	for a := range idx.post {
		if grow := coded.Cardinality(a) - len(idx.post[a]); grow > 0 {
			idx.post[a] = append(idx.post[a], make([][]int32, grow)...)
		}
	}
	if len(idx.acc) < n {
		idx.acc = make([]relation.AttrSet, n+n/4)
	}
	acc := idx.acc
	touched := make([]int32, 0, 64)

	// Per-row distinct agreement sets with their smallest witnessing j.
	// The pairwise scan recorded the first (ascending-j) witness of each
	// globally new set, and the ciphertext the encryptor derives from
	// Agreements depends on that exact pair. The first j recorded for a
	// set is already its smallest: rows sharing an agreement set were all
	// first touched through the same column (the smallest non-heavy one
	// they agree on), whose posting is ascending, and the heavy-only set
	// is recorded once, from an ascending walk. For m small enough, the
	// set value itself indexes a generation-stamped array, making each
	// record O(1); wider schemas scan the row's few distinct sets
	// linearly.
	rowSets := make([]relation.AttrSet, 0, 16)
	var rowMinJ []int32 // linear-scan fallback only
	stamped := m <= setStampMaxAttrs
	if stamped {
		if len(idx.setMinJ) < 1<<m {
			idx.setMinJ = make([]int32, 1<<m)
			idx.setGen = make([]uint32, 1<<m)
			idx.gen = 0
		}
	} else {
		rowMinJ = make([]int32, 0, 16)
	}
	record := func(a relation.AttrSet, j int32) {
		if stamped {
			if idx.setGen[a] != idx.gen {
				idx.setGen[a] = idx.gen
				idx.setMinJ[a] = j
				rowSets = append(rowSets, a)
			}
			return
		}
		if !slices.Contains(rowSets, a) {
			rowSets = append(rowSets, a)
			rowMinJ = append(rowMinJ, j)
		}
	}
	minJOf := func(k int, a relation.AttrSet) int32 {
		if stamped {
			return idx.setMinJ[a]
		}
		return rowMinJ[k]
	}

	// A value whose posting reaches heavyCut rows (think a 3-valued status
	// column at scale) makes the accumulation degenerate to O(n) per
	// appended row. The single longest such posting is excluded from
	// accumulation: touched rows get its bit back by one symbol
	// comparison, and rows that agree ONLY on the heavy value — the one
	// pattern accumulation now misses — are recovered by walking the heavy
	// posting ascending and stopping at the first row with no other
	// agreement, which by ascending order is that pattern's min witness.
	const heavyCut = 64
	for i := oldRows; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, false, fmt.Errorf("mas: maintain: %w", err)
		}
		ref.Result.Checked += i // logical probes: row i against every predecessor
		heavy, heavyLen := -1, heavyCut
		for a, col := range cols {
			if lst := idx.post[a][col[i]]; len(lst) >= heavyLen {
				heavy, heavyLen = a, len(lst)
			}
		}
		if stamped {
			idx.gen++
			if idx.gen == 0 { // generation wrapped: stale stamps could collide
				clear(idx.setGen)
				idx.gen = 1
			}
		}
		for a, col := range cols {
			if a == heavy {
				continue
			}
			for _, j := range idx.post[a][col[i]] {
				if acc[j].IsEmpty() {
					touched = append(touched, j)
				}
				acc[j] = acc[j].Add(a)
			}
		}
		if heavy >= 0 {
			hv := cols[heavy]
			hid := hv[i]
			for _, j := range touched {
				a := acc[j]
				if hv[j] == hid {
					a = a.Add(heavy)
					acc[j] = a // keep nonzero: the walk below skips touched rows
				}
				record(a, j)
			}
			// The heavy-only pattern {heavy}: its min witness is the first
			// posting entry that agrees with row i on nothing else.
			for _, j := range idx.post[heavy][hid] {
				if acc[j].IsEmpty() {
					record(relation.AttrSet(0).Add(heavy), j)
					break
				}
			}
		} else {
			for _, j := range touched {
				record(acc[j], j)
			}
		}
		for _, j := range touched {
			acc[j] = 0
		}
		touched = touched[:0]
		for k, a := range rowSets {
			if _, seen := ref.Agreements[a]; seen {
				continue
			}
			covered := false
			for _, mas := range prev.Sets {
				if a.SubsetOf(mas) {
					covered = true
					break
				}
			}
			if !covered {
				// The pair (j, i) witnesses a non-unique set outside every
				// known MAS: the positive border moved.
				return nil, false, nil
			}
			ref.Agreements[a] = [2]int{int(minJOf(k, a)), i}
		}
		rowSets = rowSets[:0]
		if !stamped {
			rowMinJ = rowMinJ[:0]
		}
		for a, col := range cols {
			idx.post[a][col[i]] = append(idx.post[a][col[i]], int32(i))
		}
		// Track insertions eagerly: if we bail out mid-scan (border moved,
		// cancellation), the cache honestly reports how far it got and the
		// next call's rows guard forces a rebuild.
		idx.rows = i + 1
	}
	ref.Result.postings = idx
	for _, mas := range prev.Sets {
		p, ok := prev.Partitions[mas]
		if !ok {
			return nil, false, fmt.Errorf("mas: maintain: no cached partition for %v", mas)
		}
		np, d, err := p.Refine(coded, oldRows)
		if err != nil {
			return nil, false, fmt.Errorf("mas: maintain: %w", err)
		}
		ref.Result.Partitions[mas] = np
		ref.Deltas[mas] = d
	}
	return ref, true, nil
}
