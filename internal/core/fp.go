package core

import (
	"context"
	"fmt"

	"f2/internal/border"
	"f2/internal/obs"
	"f2/internal/partition"
	"f2/internal/relation"
)

// fpNode is a node X:Y of the FD lattice of §3.4.
type fpNode struct {
	X relation.AttrSet
	Y int
}

// fpWitness records one plaintext row pair witnessing a violation.
type fpWitness struct {
	ri, rj int
}

// eliminateFalsePositives implements Step 4. Steps 1–3 erase every FD
// violation of D among original tuples: instances are collision-free, so a
// dependency X→Y inside a MAS that fails on D would (falsely) hold on the
// ciphertext. For every *maximal* violated dependency of each MAS's FD
// lattice, the owner inserts k = ⌈1/α⌉ artificial record pairs that
// re-witness the violation.
//
// Instead of the paper's top-down lattice sweep, the maximal violated
// dependencies are found with the same Dualize-&-Advance border search as
// MAS discovery: for fixed Y, "X→Y is violated" is downward closed in X
// (a pair agreeing on X agrees on every subset), so the maximal violated
// X form the positive border of that predicate. This touches a number of
// nodes proportional to the border, not to the holding region of the
// lattice, and subsumes the paper's "mark descendants checked" pruning.
//
// The predicate reads the stripped partition (PLI) of X from a
// partition.Cache: X→Y is violated iff some class of π_X holds two Y
// codes. Its witness is the pair (f, r) where r is the smallest row whose
// Y code differs from that of f, the first row of r's X class. That pair
// is fixed by D alone — not by the order of the PLI's classes, which
// depends on the subset it was built from — so the ciphertext does not
// depend on what the cache held or evicted.
//
// The per-Y border searches are independent — violation is a property of
// (X, Y) pairs on D — so they fan out across the pool, one RHS attribute
// per task. Each task reads PLIs from its own fork of one cache, sharing
// only the read-only single-column PLIs, and keeps its own witnesses, so
// the probe results do not depend on how the searches are scheduled. The
// searches mint nothing; the artificial pairs are then emitted serially
// in ascending-Y, sorted-X order.
//
// Deviation from the paper (documented in docs/DESIGN.md): the paper's
// artificial pairs agree exactly on X and differ everywhere else, which
// can incidentally break a *real* FD X'→Z (X' ⊆ X, Z outside X∪{Y}) and
// so contradicts its own Theorem 3.7. We instead copy the agreement
// pattern of an actual violating row pair of D: the artificial pair agrees
// on attribute a iff the template rows agree on a. Every agreement pattern
// the artificial records exhibit is therefore already realized by real
// tuples, so no FD and no MAS of D is disturbed, while the
// X-agreement/Y-difference that kills the false positive is preserved.
//
// A pair agreeing exactly on pattern A witnesses every violation X→Y with
// X ⊆ A and Y ∉ A, so maximal nodes whose witnesses share a pattern need
// only one pair set between them: one k-pair set is emitted per distinct
// agreement pattern, not per maximal node (docs/DESIGN.md). It returns
// the set of emitted patterns; the incremental engine keeps that set to
// decide which newly violated dependencies still need witnessing after
// an append.
func (e *Encryptor) eliminateFalsePositives(ctx context.Context, t *relation.Table, coded *relation.Coded, plans []*masPlan, out *relation.Table, res *Result) (map[relation.AttrSet]bool, partition.CacheStats, error) {
	// The predicate asks only about X with X∪{Y} inside some MAS (Step 1
	// already computed them all): a few bitmask operations, and the
	// containment keeps the predicate downward closed.
	masSets := make([]relation.AttrSet, 0, len(plans))
	for _, p := range plans {
		masSets = append(masSets, p.attrs)
	}
	covered := func(x relation.AttrSet) bool {
		for _, m := range masSets {
			if x.SubsetOf(m) {
				return true
			}
		}
		return false
	}

	// One border search per RHS attribute Y over the union of the MASs
	// containing Y. The predicate — "some MAS covers X∪{Y} and X→Y is
	// violated on D" — stays downward closed in X, so the positive border
	// is exactly the set of globally maximal false-positive dependencies,
	// with no duplicated work across overlapping MASs. Each search reads
	// the PLIs of its X from a fork of one cache: the single-column PLIs
	// are built once and shared read-only, the rest stay with their task.
	type fpFound struct {
		x relation.AttrSet
		w fpWitness
	}
	plis := partition.NewCache(coded)
	found := make([][]fpFound, t.NumAttrs())
	checks := make([]int, t.NumAttrs())
	pliStats := make([]partition.CacheStats, t.NumAttrs())
	err := e.pool.ForEach(ctx, t.NumAttrs(), func(ctx context.Context, y int) error {
		universe := relation.AttrSet(0)
		for _, m := range masSets {
			if m.Has(y) && m.Size() >= 2 {
				universe = universe.Union(m)
			}
		}
		universe = universe.Remove(y)
		if universe.IsEmpty() {
			return nil
		}
		cache := plis.Fork()
		defer cache.Release()
		ycol := coded.Column(y)
		witness := make(map[relation.AttrSet]fpWitness)
		sets, stats := border.Find(universe, func(x relation.AttrSet) bool {
			// A cancelled ctx makes the oracle constant-false so the
			// border search drains quickly; the ctx.Err() check after
			// Find discards the bogus result.
			if ctx.Err() != nil || !covered(x.Add(y)) {
				return false
			}
			ri, rj, violated := cache.Get(x).Violation(ycol)
			if violated {
				witness[x] = fpWitness{ri, rj}
			}
			return violated
		})
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, x := range sets {
			found[y] = append(found[y], fpFound{x, witness[x]})
		}
		checks[y] = stats.Checks
		pliStats[y] = cache.Stats()
		return nil
	})
	if err != nil {
		return nil, partition.CacheStats{}, fmt.Errorf("core: encrypt: %w", err)
	}
	var pli partition.CacheStats
	for _, s := range pliStats {
		pli.Products += s.Products
		pli.Evictions += s.Evictions
	}

	// One pair set per distinct agreement pattern, kept at its first
	// witness in ascending-Y, border order: nodes whose witnesses share a
	// pattern would otherwise get identical row shapes with fresh values.
	patterns := make(map[relation.AttrSet]bool)
	var jobs []fpWitness
	for y := range found {
		res.Report.FPChecks += checks[y]
		for _, f := range found[y] {
			res.Report.FPNodes++
			if p := agreementPattern(t, f.w.ri, f.w.rj); !patterns[p] {
				patterns[p] = true
				jobs = append(jobs, f.w)
			}
		}
	}
	res.Report.FPPatterns += len(jobs)
	if err := e.emitFPJobs(ctx, t, jobs, out, res); err != nil {
		return nil, pli, fmt.Errorf("core: encrypt: %w", err)
	}
	return patterns, pli, nil
}

// agreementPattern returns the attributes on which rows ri and rj of t
// agree — the row shape an artificial pair templated on them replicates.
func agreementPattern(t *relation.Table, ri, rj int) relation.AttrSet {
	var p relation.AttrSet
	for a := 0; a < t.NumAttrs(); a++ {
		if t.Cell(ri, a) == t.Cell(rj, a) {
			p = p.Add(a)
		}
	}
	return p
}

// fpCovered reports whether node (x, y) is witnessed by an emitted
// pattern: a pair agreeing exactly on P agrees on every x ⊆ P and differs
// on every y ∉ P, so it violates x→y.
func fpCovered(patterns map[relation.AttrSet]bool, x relation.AttrSet, y int) bool {
	for p := range patterns {
		if x.SubsetOf(p) && !p.Has(y) {
			return true
		}
	}
	return false
}

// emitFPJobs appends the artificial record pairs for every witness, in
// order.
func (e *Encryptor) emitFPJobs(ctx context.Context, t *relation.Table, jobs []fpWitness, out *relation.Table, res *Result) error {
	if len(jobs) == 0 {
		return ctx.Err()
	}
	_, sp := obs.Start(ctx, "emit.shard")
	sp.SetAttr("units", len(jobs))
	defer sp.End()
	r1 := make([]string, t.NumAttrs())
	r2 := make([]string, t.NumAttrs())
	for _, j := range jobs {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.emitFPPairs(t, j.ri, j.rj, r1, r2, out, res)
	}
	return nil
}

// emitFPPairs appends k = ⌈1/α⌉ artificial record pairs replicating the
// agreement pattern of the template rows (ri, rj) with fresh values. r1
// and r2 are scratch rows of width NumAttrs.
func (e *Encryptor) emitFPPairs(t *relation.Table, ri, rj int, r1, r2 []string, out *relation.Table, res *Result) {
	for i := 0; i < e.cfg.K(); i++ {
		for a := range r1 {
			if t.Cell(ri, a) == t.Cell(rj, a) {
				c := e.freshCipher(a)
				r1[a], r2[a] = c, c
			} else {
				r1[a] = e.freshCipher(a)
				r2[a] = e.freshCipher(a)
			}
		}
		out.AppendRow(r1)
		out.AppendRow(r2)
		res.Origins = append(res.Origins,
			RowOrigin{Kind: RowFPArtificial, SourceRow: -1, Carried: 0},
			RowOrigin{Kind: RowFPArtificial, SourceRow: -1, Carried: 0})
		res.Report.FPRows += 2
	}
}
