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
//
// The lattice is held in slices. Level ℓ is every candidate generated at
// that level, pruned ones included, in ascending AttrSet order; a set is
// found by binary search in its level, and C+ and the partition live on
// its node. Only key pruning's C+ of sets no level generated goes through
// a map.
type TANE struct {
	coded *relation.Coded
	m     int
	ctx   context.Context

	// lattice[ℓ-1] is level ℓ. Only the newest level's survivors hold a
	// partition once a level is done; C+ stays on every node, because
	// key pruning reads the C+ of siblings and of their subsets.
	lattice [][]node
	// unseen memoizes C+ for sets no level generated (see cplusOf).
	unseen map[relation.AttrSet]relation.AttrSet
	// products counts partition products, for the fd.discover span.
	products int

	out *Set
	// wit collects the witnessed subset of out as FDs are emitted: an FD
	// is witnessed iff its LHS is non-unique. COMPUTE_DEPENDENCIES only
	// tests LHSs that survived the previous level's PRUNE, which drops
	// every superkey, so all its FDs are witnessed; the key-implied FDs
	// PRUNE emits have a unique LHS and never are. DiscoverWitnessed
	// therefore needs no re-encode or re-probe pass afterwards.
	wit *Set
}

// node is one candidate X of a lattice level.
type node struct {
	x      relation.AttrSet
	cplus  relation.AttrSet    // C+(X)
	part   *partition.Stripped // π_X; nil once no later step reads it
	pruned bool                // PRUNE dropped X
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
		out:   NewSet(),
		wit:   NewSet(),
	}
	err := tane.run()
	sp.SetAttr("levels", len(tane.lattice))
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

	// Level 1: single attributes, in ascending order, each partition the
	// product of π_∅ with its column. No dependency checks: that would
	// test ∅→A (constant columns), which we deliberately exclude.
	plis := partition.NewCache(ta.coded)
	level := make([]node, ta.m)
	for a := range level {
		level[a] = node{x: relation.SingleAttr(a), cplus: all, part: plis.Get(relation.SingleAttr(a))}
	}
	ta.lattice = append(ta.lattice, level)
	ta.prune(level)

	ws := partition.NewWorkspace()
	for {
		if err := ta.ctx.Err(); err != nil {
			return fmt.Errorf("fd: discovery: %w", err)
		}
		next := ta.nextLevel(level, ws)
		if len(next) == 0 {
			return nil
		}
		// Every product of level ℓ+1 is built: level ℓ's partitions are
		// no longer read.
		for i := range level {
			level[i].part = nil
		}
		ta.lattice = append(ta.lattice, next)
		ta.prune(next)
		level = next
	}
}

// nextLevel generates level ℓ+1 from the survivors of level ℓ and runs
// COMPUTE_DEPENDENCIES on each candidate as it is made.
//
// Candidate generation is apriori-gen over prefix blocks. Level ℓ is in
// ascending AttrSet order, so sets that differ only in their smallest
// attribute — X = H ∪ {a} with a below every attribute of H — sit next to
// each other, and joining two of them, H ∪ {a_i} and H ∪ {a_j} with
// a_i < a_j, gives H ∪ {a_i, a_j}. A candidate is kept iff every
// immediate subset survived level ℓ; its C+ starts as the intersection of
// theirs. Taking j in the outer loop emits the candidates of a block in
// ascending order, and blocks are ordered as their prefixes, so level ℓ+1
// comes out sorted.
//
// The partition of a candidate is the product of its immediate subset
// with the smallest partition and the one column that subset lacks.
func (ta *TANE) nextLevel(level []node, ws *partition.Workspace) []node {
	var next []node
	var subs []int // indices in level of the candidate's immediate subsets
	for lo := 0; lo < len(level); {
		// level[lo:hi] is the block of sets sharing level[lo]'s prefix.
		prefix := level[lo].x.Remove(level[lo].x.First())
		hi := lo
		for hi < len(level) && level[hi].x.Remove(level[hi].x.First()) == prefix {
			hi++
		}
		for j := lo + 1; j < hi; j++ {
			if level[j].pruned {
				continue
			}
		candidates:
			for i := lo; i < j; i++ {
				if level[i].pruned {
					continue
				}
				// The joined pair are two immediate subsets; each other
				// one drops an attribute h of the prefix, above a_j, so
				// it sorts before level[i].
				x := level[i].x.Union(level[j].x)
				subs = append(subs[:0], i, j)
				cplus := level[i].cplus.Intersect(level[j].cplus)
				for v := prefix; v != 0; v &= v - 1 {
					k, ok := findSet(level[:i], x.Remove(v.First()))
					if !ok || level[k].pruned {
						continue candidates
					}
					subs = append(subs, k)
					cplus = cplus.Intersect(level[k].cplus)
				}
				next = append(next, ta.computeDependencies(x, cplus, level, subs, ws))
			}
		}
		lo = hi
	}
	return next
}

// computeDependencies implements COMPUTE_DEPENDENCIES for one candidate
// X, given the intersection of its immediate subsets' C+ and their
// indices in the previous level. It builds π_X and returns X's node.
func (ta *TANE) computeDependencies(x, cplus relation.AttrSet, level []node, subs []int, ws *partition.Workspace) node {
	base := subs[0]
	for _, i := range subs[1:] {
		if level[i].part.Size() < level[base].part.Size() {
			base = i
		}
	}
	part := partition.ProductColumn(level[base].part, ta.coded, x.Diff(level[base].x).First(), ws)
	ta.products++

	// X\{A} → A holds iff e(X\{A}) = e(X).
	e := part.ErrorMeasure()
	c := cplus
	rest := relation.FullAttrSet(ta.m).Diff(x)
	for _, i := range subs {
		a := x.Diff(level[i].x).First()
		if !cplus.Has(a) || level[i].part.ErrorMeasure() != e {
			continue
		}
		f := FD{LHS: x.Remove(a), RHS: a}
		ta.out.Add(f)
		ta.wit.Add(f)
		c = c.Remove(a).Diff(rest)
	}
	return node{x: x, cplus: c, part: part}
}

// prune implements PRUNE(Lℓ): drop X with empty C+(X); for superkeys X,
// emit the key-implied dependencies and drop X. A dropped X's partition is
// freed on the spot: level ℓ+1 only generates candidates whose every
// immediate subset survived, so nothing reads it again. Pruned nodes stay
// in the level, because a later superkey's check reads their C+.
func (ta *TANE) prune(level []node) {
	for i := range level {
		n := &level[i]
		if n.cplus.IsEmpty() {
			n.pruned = true
		} else if !n.part.HasDuplicate() {
			ta.emitKeyImplied(n.x, n.cplus)
			n.pruned = true
		}
		if n.pruned {
			n.part = nil
		}
	}
}

// emitKeyImplied emits X → A for the superkey X and every A ∈ C+(X) \ X
// with A ∈ ∩_{B∈X} C+(X ∪ {A} \ {B}). A superkey LHS has a unique
// projection, so these FDs are never witnessed and skip ta.wit.
func (ta *TANE) emitKeyImplied(x, cplus relation.AttrSet) {
	for as := cplus.Diff(x); as != 0; as &= as - 1 {
		a := as.First()
		in := true
		for bs := x; bs != 0; bs &= bs - 1 {
			if !ta.cplusOf(x.Add(a).Remove(bs.First())).Has(a) {
				in = false
				break
			}
		}
		if in {
			ta.out.Add(FD{LHS: x, RHS: a})
		}
	}
}

// cplusOf returns C+(Z) for a set of at most the newest level's size. A
// set some level generated has its C+ on its node. One no level generated
// — some subset was pruned first — never had its dependency checks run,
// so C+(Z) = ∩_{B∈Z} C+(Z\{B}) is exactly its value; those are memoized,
// since superkeys of one level ask for many overlapping ones.
func (ta *TANE) cplusOf(z relation.AttrSet) relation.AttrSet {
	if z.IsEmpty() {
		return relation.FullAttrSet(ta.m)
	}
	level := ta.lattice[z.Size()-1]
	if i, ok := findSet(level, z); ok {
		return level[i].cplus
	}
	if c, ok := ta.unseen[z]; ok {
		return c
	}
	c := relation.FullAttrSet(ta.m)
	for bs := z; bs != 0; bs &= bs - 1 {
		c = c.Intersect(ta.cplusOf(z.Remove(bs.First())))
	}
	if ta.unseen == nil {
		ta.unseen = make(map[relation.AttrSet]relation.AttrSet)
	}
	ta.unseen[z] = c
	return c
}

// findSet returns the index of x in a level sorted by AttrSet. It is
// written out because slices.BinarySearchFunc, calling a comparison
// closure per step, took 17% of witnessed TANE's CPU profile on the
// customer-600 ciphertext, against about 13% for this loop.
func findSet(level []node, x relation.AttrSet) (int, bool) {
	i, j := 0, len(level)
	for i < j {
		h := int(uint(i+j) >> 1)
		if level[h].x < x {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(level) && level[i].x == x
}
