package fd

import (
	"context"
	"fmt"
	"math"

	"f2/internal/obs"
	"f2/internal/partition"
	"f2/internal/relation"
)

// TANE discovers all minimal non-trivial FDs of a relation using the
// levelwise algorithm of Huhtala, Kärkkäinen, Porkka and Toivonen (1999):
// candidate right-hand-side sets C+(X), stripped partitions with
// linear-time products, and key-based pruning.
//
// Deviation from the original: FDs with an empty left-hand side (constant
// columns) are not emitted. F² cannot preserve them — splitting a constant
// column's single equivalence class necessarily breaks ∅→A — and the
// paper's evaluation datasets have none. See docs/DESIGN.md.
type TANE struct {
	coded *relation.Coded
	m     int
	ctx   context.Context

	// Per-level state.
	parts map[relation.AttrSet]*partition.Stripped
	cplus map[relation.AttrSet]relation.AttrSet

	out *Set
	// wit collects the witnessed subset of out as FDs are emitted: an FD
	// is witnessed iff its LHS is non-unique, and the LHS's stripped
	// partition — which answers exactly that — is already in hand when the
	// FD is validated. Collecting it here makes DiscoverWitnessed free of
	// the re-encode + re-probe pass it used to run afterwards.
	wit *Set

	// levels and products count lattice levels visited and partition
	// products computed, for the fd.discover span.
	levels, products int
}

// Discover runs TANE on t and returns the set of minimal non-trivial FDs
// (non-empty LHS).
func Discover(t *relation.Table) *Set {
	//lint:ignore f2vet/ctxflow convenience wrapper; cancellable callers use DiscoverCtx
	s, _ := DiscoverCtx(context.Background(), t)
	return s
}

// DiscoverCtx is Discover with cancellation: the context is checked
// between lattice levels, bounding the cancellation latency to one
// levelwise pass.
func DiscoverCtx(ctx context.Context, t *relation.Table) (*Set, error) {
	tane, err := runTANE(ctx, t)
	if err != nil {
		return nil, err
	}
	return tane.out, nil
}

// DiscoverWitnessed runs TANE and keeps only witnessed FDs: minimal FDs
// whose LHS has at least one duplicate projection in t. (Non-unique LHS
// sets are downward closed, so the minimal witnessed FDs are exactly the
// minimal FDs with non-unique LHS.)
func DiscoverWitnessed(t *relation.Table) *Set {
	//lint:ignore f2vet/ctxflow convenience wrapper; cancellable callers use DiscoverWitnessedCtx
	s, _ := DiscoverWitnessedCtx(context.Background(), t)
	return s
}

// DiscoverWitnessedCtx is DiscoverWitnessed with cancellation. The
// witnessed subset falls out of the TANE run itself — each emitted FD's
// LHS partition already answers non-uniqueness — so no separate encoding
// or per-LHS duplicate probing happens.
func DiscoverWitnessedCtx(ctx context.Context, t *relation.Table) (*Set, error) {
	tane, err := runTANE(ctx, t)
	if err != nil {
		return nil, err
	}
	return tane.wit, nil
}

func runTANE(ctx context.Context, t *relation.Table) (*TANE, error) {
	if t.NumRows() > math.MaxInt32 {
		return nil, fmt.Errorf("fd: discovery: %d rows exceed the stripped-partition bound of %d", t.NumRows(), math.MaxInt32)
	}
	ctx, sp := obs.Start(ctx, "fd.discover")
	sp.SetAttr("rows", t.NumRows())
	sp.SetAttr("attrs", t.NumAttrs())
	tane := &TANE{
		coded: relation.Encode(t),
		m:     t.NumAttrs(),
		ctx:   ctx,
		parts: make(map[relation.AttrSet]*partition.Stripped),
		cplus: make(map[relation.AttrSet]relation.AttrSet),
		out:   NewSet(),
		wit:   NewSet(),
	}
	err := tane.run()
	sp.SetAttr("levels", tane.levels)
	sp.SetAttr("products", tane.products)
	sp.End()
	if err != nil {
		return nil, err
	}
	return tane, nil
}

func (ta *TANE) run() error {
	if ta.coded.NumRows() == 0 || ta.m == 0 {
		return nil
	}
	all := relation.FullAttrSet(ta.m)

	// Level 1: single attributes.
	ta.cplus[0] = all
	level := make([]relation.AttrSet, 0, ta.m)
	for a := 0; a < ta.m; a++ {
		x := relation.SingleAttr(a)
		ta.parts[x] = partition.StrippedSingle(ta.coded, a)
		ta.cplus[x] = all
		level = append(level, x)
	}
	ta.levels = 1
	// No dependency checks at level 1: that would test ∅→A (constant
	// columns), which we deliberately exclude.
	level = ta.prune(level)

	ws := partition.NewWorkspace(ta.coded.NumRows())
	for len(level) > 0 {
		if err := ta.ctx.Err(); err != nil {
			return fmt.Errorf("fd: discovery: %w", err)
		}
		next := ta.generateNextLevel(level)
		if len(next) == 0 {
			break
		}
		ta.levels++
		// Compute partitions for the next level via products of subsets.
		for _, x := range next {
			a := x.First()
			y := x.Remove(a)
			px, py := ta.parts[relation.SingleAttr(a)], ta.parts[y]
			if py == nil {
				// Parent partition was pruned away; recompute directly.
				py = partition.StrippedOf(ta.coded, y)
			}
			ta.parts[x] = partition.Product(py, px, ws)
			ta.products++
		}
		ta.computeDependencies(next)
		next = ta.prune(next)
		// Free the partitions of the previous level's survivors; prune
		// already freed the rest. Singleton partitions are kept: every
		// product at level ℓ+1 joins a level-ℓ partition with a singleton.
		for _, x := range level {
			if x.Size() > 1 {
				delete(ta.parts, x)
			}
		}
		level = next
	}
	return nil
}

// computeDependencies implements COMPUTE_DEPENDENCIES(Lℓ).
func (ta *TANE) computeDependencies(level []relation.AttrSet) {
	all := relation.FullAttrSet(ta.m)
	for _, x := range level {
		// C+(X) = ∩_{A∈X} C+(X\{A})
		c := all
		for _, a := range x.Attrs() {
			c = c.Intersect(ta.cplusOf(x.Remove(a)))
		}
		ta.cplus[x] = c

		for _, a := range x.Intersect(c).Attrs() {
			lhs := x.Remove(a)
			if lhs.IsEmpty() {
				continue
			}
			if ta.valid(lhs, x) {
				ta.out.Add(FD{LHS: lhs, RHS: a})
				if ta.lookupPartition(lhs).HasDuplicate() {
					ta.wit.Add(FD{LHS: lhs, RHS: a})
				}
				c = c.Remove(a)
				c = c.Diff(all.Diff(x)) // remove all B ∈ R \ X
			}
		}
		ta.cplus[x] = c
	}
}

// valid reports whether X\{A} → A holds, using the error-measure identity
// e(X\{A}) == e(X).
func (ta *TANE) valid(lhs, x relation.AttrSet) bool {
	pl := ta.lookupPartition(lhs)
	px := ta.lookupPartition(x)
	return pl.ErrorMeasure() == px.ErrorMeasure()
}

// cplusOf returns C+(X), computing it by the intersection formula when X
// was never generated at its level (its dependency checks never ran, so the
// formula is exactly its value).
func (ta *TANE) cplusOf(x relation.AttrSet) relation.AttrSet {
	if c, ok := ta.cplus[x]; ok {
		return c
	}
	c := relation.FullAttrSet(ta.m)
	if !x.IsEmpty() {
		for _, a := range x.Attrs() {
			c = c.Intersect(ta.cplusOf(x.Remove(a)))
		}
	}
	ta.cplus[x] = c
	return c
}

func (ta *TANE) lookupPartition(x relation.AttrSet) *partition.Stripped {
	if p, ok := ta.parts[x]; ok {
		return p
	}
	p := partition.StrippedOf(ta.coded, x)
	ta.parts[x] = p
	return p
}

// prune implements PRUNE(Lℓ): drop X with empty C+(X); for superkeys X,
// emit the key-implied dependencies and drop X. A dropped X's partition is
// freed on the spot (singletons excepted): level ℓ+1 only generates
// candidates whose every immediate subset survived, so nothing reads it
// again.
func (ta *TANE) prune(level []relation.AttrSet) []relation.AttrSet {
	out := level[:0]
	for _, x := range level {
		if ta.prunable(x) {
			if x.Size() > 1 {
				delete(ta.parts, x)
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// prunable reports whether PRUNE drops X, emitting X's key-implied
// dependencies when X is a superkey.
func (ta *TANE) prunable(x relation.AttrSet) bool {
	c := ta.cplus[x]
	if c.IsEmpty() {
		return true
	}
	if ta.isSuperkey(x) {
		for _, a := range c.Diff(x).Attrs() {
			// A ∈ ∩_{B∈X} C+(X ∪ {A} \ {B}) ?
			in := true
			for _, b := range x.Attrs() {
				if !ta.cplusOf(x.Add(a).Remove(b)).Has(a) {
					in = false
					break
				}
			}
			if in && !x.IsEmpty() {
				// Superkey LHS ⇒ unique projection ⇒ never witnessed,
				// so key-implied FDs skip ta.wit.
				ta.out.Add(FD{LHS: x, RHS: a})
			}
		}
		return true
	}
	return false
}

func (ta *TANE) isSuperkey(x relation.AttrSet) bool {
	return !ta.lookupPartition(x).HasDuplicate()
}

// generateNextLevel implements the apriori-gen candidate generation: join
// pairs sharing all but the last attribute, keep candidates whose every
// immediate subset survived the current level.
func (ta *TANE) generateNextLevel(level []relation.AttrSet) []relation.AttrSet {
	inLevel := make(map[relation.AttrSet]bool, len(level))
	for _, x := range level {
		inLevel[x] = true
	}
	// Group by prefix (set minus the largest attribute).
	prefix := make(map[relation.AttrSet][]int)
	for _, x := range level {
		attrs := x.Attrs()
		last := attrs[len(attrs)-1]
		prefix[x.Remove(last)] = append(prefix[x.Remove(last)], last)
	}
	seen := make(map[relation.AttrSet]bool)
	var next []relation.AttrSet
	for p, lasts := range prefix {
		for i := 0; i < len(lasts); i++ {
			for j := i + 1; j < len(lasts); j++ {
				cand := p.Add(lasts[i]).Add(lasts[j])
				if seen[cand] {
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
				if ok {
					next = append(next, cand)
				}
			}
		}
	}
	relation.SortAttrSets(next)
	return next
}
