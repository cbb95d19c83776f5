package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"f2/internal/mas"
	"f2/internal/obs"
	"f2/internal/partition"
	"f2/internal/relation"
)

// encState is the owner-side plan state a Result retains so the next
// append can be applied incrementally: the MAS discovery result (sets +
// partitions over the plaintext), the per-MAS encryption plans, the
// agreement patterns Step 4 already emitted pair sets for, and the
// fresh-minter position (so later filler values never collide with
// already-shipped ones).
type encState struct {
	disc       *mas.Result
	plans      []*masPlan
	fpPatterns map[relation.AttrSet]bool
	minted     uint64
}

// ecgPatch records how an append grows one ECG: the (cloned) group, the
// number of rows each instance gained, and the largest gain — the group's
// homogenized target rises by exactly that much, since already-shipped
// rows can be added to but never retracted.
type ecgPatch struct {
	plan  *masPlan
	g     *ecg
	gains map[*ecInstance]int
	maxG  int
}

// EncryptIncremental extends a previous encryption with the appended rows
// t[oldRows:] without re-running the full pipeline:
//
//   - the cached MAS partitions are refined with the appended rows and the
//     border is re-checked locally (mas.MaintainBorder) instead of via a
//     fresh DUCC walk;
//   - only the ECGs the new rows land in are touched: their grouping and
//     instance ciphertexts are kept (they depend only on the class
//     representatives), the group target rises by the largest per-instance
//     gain, and every instance is topped up with freshly minted padding
//     rows — untouched ciphertext rows are reused verbatim;
//   - provenance Origins are patched by appending, never rebuilt;
//   - Step 4 re-witnesses only the dependencies the appended rows newly
//     violate, using the append's own agreement sets as templates.
//
// It returns ok=false with a nil error when the append is not
// incrementally applicable — the MAS border moved, a class was promoted
// out of the singleton region (so the grouping structure must change), two
// appended rows coined a brand-new duplicate projection, or prev carries
// no plan state — in which case the caller must rebuild from scratch.
// Correctness is therefore never speculative: every structural change
// falls back to the full pipeline.
//
// Like Encrypt, a cancelled context aborts with an error; prev and its
// retained state are never mutated, so the caller's last good result
// survives any failure.
func (e *Encryptor) EncryptIncremental(ctx context.Context, prev *Result, t *relation.Table, oldRows int) (*Result, bool, error) {
	if prev == nil || prev.state == nil {
		return nil, false, nil
	}
	if t.NumAttrs() > relation.MaxAttrs {
		return nil, false, fmt.Errorf("core: table has %d attributes, max %d", t.NumAttrs(), relation.MaxAttrs)
	}
	if t.NumRows() < oldRows {
		return nil, false, fmt.Errorf("core: incremental: table has %d rows, fewer than the %d already encrypted", t.NumRows(), oldRows)
	}
	if err := ctx.Err(); err != nil {
		return nil, false, fmt.Errorf("core: incremental: %w", err)
	}
	if t.NumRows() == oldRows {
		return prev, true, nil
	}

	res := &Result{Report: Report{Alpha: e.cfg.Alpha, SplitFactor: e.cfg.SplitFactor, K: e.cfg.K()}}
	res.Report.OriginalRows = t.NumRows()

	// ---- Step 1': local border maintenance (MAX) ----
	start := time.Now()
	sctx, sp := obs.Start(ctx, "incremental.border-maintain")
	ref, ok, err := mas.MaintainBorder(sctx, prev.state.disc, t, oldRows)
	if err != nil {
		sp.End()
		return nil, false, fmt.Errorf("core: incremental: %w", err)
	}
	if !ok {
		sp.SetAttr("fallback", true)
		sp.End()
		return nil, false, nil
	}
	res.MASs = ref.Result.Sets
	res.Report.MASs = ref.Result.Sets
	res.Report.BorderProbes = ref.Result.Checked
	sp.SetAttr("appendedRows", t.NumRows()-oldRows)
	sp.SetAttr("borderProbes", ref.Result.Checked)
	sp.End()
	res.Report.TimeMAX = time.Since(start)

	// ---- Step 2': plan extension (SSE) ----
	start = time.Now()
	_, sp = obs.Start(ctx, "incremental.extend")
	e.mint = &freshMinter{n: prev.state.minted}
	e.kern = e.cipher.NewKernel()
	plans := make([]*masPlan, len(prev.state.plans))
	var patches []*ecgPatch
	for i, old := range prev.state.plans {
		np, ps, ok := extendPlan(old, ref.Result.Partitions[old.attrs], ref.Deltas[old.attrs], t, oldRows)
		if !ok {
			sp.SetAttr("fallback", true)
			sp.End()
			return nil, false, nil
		}
		plans[i] = np
		patches = append(patches, ps...)
	}
	sp.SetAttr("patchedECGs", len(patches))
	sp.End()
	res.Report.TimeSSE = time.Since(start)

	// ---- Step 3': emit only what the append adds (SYN) ----
	start = time.Now()
	sctx, sp = obs.Start(ctx, "incremental.top-up")
	if err := ctx.Err(); err != nil {
		sp.End()
		return nil, false, fmt.Errorf("core: incremental: %w", err)
	}
	// Carry the cumulative counters forward so Overhead() and the row
	// accounting stay exact over the whole table, not just this flush.
	res.Report.GroupRows = prev.Report.GroupRows
	res.Report.ScaleRows = prev.Report.ScaleRows
	res.Report.ConflictRows = prev.Report.ConflictRows
	res.Report.ConflictTuples = prev.Report.ConflictTuples
	res.Report.FPRows = prev.Report.FPRows
	res.Report.FPNodes = prev.Report.FPNodes
	res.Report.FPPatterns = prev.Report.FPPatterns
	res.Report.NumECGs = prev.Report.NumECGs
	res.Report.NumECs = prev.Report.NumECs
	res.Report.NumFakeECs = prev.Report.NumFakeECs
	res.Report.NumInstances = prev.Report.NumInstances

	// Structural sharing: the clone aliases prev's column arrays and
	// appends into their spare capacity. The updater's single-flight flush
	// guarantees one append lineage at a time, and prev's own rows stay
	// immutable, so concurrent readers of the last good result are safe.
	// Emission appends straight into the clone, so an aborted flush
	// leaves its partial rows in capacity prev never reads, and the retry
	// overwrites them.
	out := prev.Encrypted.CloneShared()
	// Same structural sharing for provenance: appends extend prev.Origins'
	// spare capacity, which prev itself (len-bounded) can never observe.
	res.Origins = prev.Origins
	if err := e.emitOriginalRows(sctx, t, plans, out, res, oldRows, t.NumRows()); err != nil {
		sp.End()
		return nil, false, fmt.Errorf("core: incremental: %w", err)
	}
	// Top up every instance of a grown ECG through the shared padding
	// emitter, in patch order.
	var topUps []padJob
	for _, p := range patches {
		for _, mem := range p.g.members {
			for _, inst := range mem.instances {
				if mem.fake {
					topUps = append(topUps, padJob{p.plan, inst, p.maxG, true})
				} else {
					topUps = append(topUps, padJob{p.plan, inst, p.maxG - p.gains[inst], false})
				}
			}
		}
	}
	if err := e.emitPaddingJobs(sctx, topUps, out, res); err != nil {
		sp.End()
		return nil, false, fmt.Errorf("core: incremental: %w", err)
	}
	sp.SetAttr("topUpJobs", len(topUps))
	sp.SetAttr("emittedRows", out.NumRows()-prev.Encrypted.NumRows())
	sp.End()
	res.Report.TimeSYN = time.Since(start)

	// ---- Step 4': witness only newly violated dependencies (FP) ----
	start = time.Now()
	_, sp = obs.Start(ctx, "incremental.re-witness")
	fpPatterns := prev.state.fpPatterns
	if !e.cfg.SkipFPElimination {
		if err := ctx.Err(); err != nil {
			sp.End()
			return nil, false, fmt.Errorf("core: incremental: %w", err)
		}
		fpPatterns = e.patchFalsePositives(t, ref.Agreements, fpPatterns, res.MASs, out, res)
	}
	sp.SetAttr("fpNodes", res.Report.FPNodes-prev.Report.FPNodes)
	sp.SetAttr("fpPatterns", res.Report.FPPatterns-prev.Report.FPPatterns)
	sp.End()
	res.Report.TimeFP = time.Since(start)

	res.Encrypted = out
	res.Report.EncryptedRows = out.NumRows()
	res.Report.ReencryptedRows = out.NumRows() - prev.Encrypted.NumRows()
	res.state = &encState{disc: ref.Result, plans: plans, fpPatterns: fpPatterns, minted: e.mint.minted()}
	return res, true, nil
}

// extendPlan applies one MAS's partition delta to its encryption plan. It
// returns ok=false when the append changes the grouping structure — a
// born class of size ≥ 2 (two appended rows coined a duplicate projection
// the grouping never saw) or a singleton promoted into the non-singleton
// region (it would have to join an ECG) — in which case the caller
// rebuilds. Otherwise it returns a fresh plan sharing every untouched ECG
// with old (copy-on-write: old is never modified) plus one patch per
// grown ECG.
// memberAt addresses one real ECG member: ecgs[gi].members[mi].
type memberAt struct {
	gi, mi int
}

func extendPlan(old *masPlan, part *partition.Partition, d partition.Delta, t *relation.Table, oldRows int) (*masPlan, []*ecgPatch, bool) {
	for _, ci := range d.Born {
		if part.Classes[ci].Size() > 1 {
			return nil, nil, false
		}
	}

	np := &masPlan{attrs: old.attrs, cols: old.cols, part: part, stats: old.stats, memberOf: old.memberOf}
	np.ecgs = append(make([]*ecg, 0, len(old.ecgs)), old.ecgs...)

	if len(d.Grown) == 0 {
		np.rowInst = extendRowInst(old.rowInst, t.NumRows(), nil)
		return np, nil, true
	}

	// Locate each grown class's member by the class's first row. Grouping
	// sorted the members by size, so positions do not correspond; Refine
	// only appends rows after a class's existing ones, so its first row
	// never changes. ECG membership only changes on a rebuild, and
	// cloneECG keeps member order, so the index is built once per rebuild
	// generation and carried down the plan lineage (the flush that builds
	// it is the lineage's only writer).
	memberOf := old.memberOf
	if memberOf == nil {
		memberOf = make(map[int]memberAt)
		for gi, g := range old.ecgs {
			for mi, m := range g.members {
				if !m.fake {
					memberOf[m.rows[0]] = memberAt{gi, mi}
				}
			}
		}
		old.memberOf = memberOf
	}
	np.memberOf = memberOf

	// Gather the appended rows per (ECG, member).
	gained := make(map[memberAt][]int)
	touched := make(map[int]bool)
	for _, ci := range d.Grown {
		c := part.Classes[ci]
		rows := appendedSuffix(c.Rows, oldRows)
		if c.Size()-len(rows) < 2 {
			// The class was a singleton before the append: it must now join
			// an ECG, which restructures the grouping.
			return nil, nil, false
		}
		at, ok := memberOf[c.Rows[0]]
		if !ok {
			// Defensive: every pre-existing non-singleton class has a member.
			return nil, nil, false
		}
		gained[at] = append(gained[at], rows...)
		touched[at.gi] = true
	}

	// Deterministic patch order: the full pipeline guarantees that one key
	// always produces one ciphertext table, and the incremental path must
	// too — freshly minted padding depends on emission order.
	touchedIdx := make([]int, 0, len(touched))
	for gi := range touched {
		touchedIdx = append(touchedIdx, gi)
	}
	sort.Ints(touchedIdx)

	var patches []*ecgPatch
	var cloned []*ecg
	for _, gi := range touchedIdx {
		g := cloneECG(old.ecgs[gi])
		np.ecgs[gi] = g
		cloned = append(cloned, g)
		patch := &ecgPatch{plan: np, g: g, gains: make(map[*ecInstance]int)}
		for mi, mem := range g.members {
			rows := gained[memberAt{gi, mi}]
			if len(rows) == 0 {
				continue
			}
			n := len(mem.instances)
			for _, r := range rows {
				// Continue the round-robin of assignRows: the i-th row of a
				// member goes to instance i mod n, and appended rows extend
				// the member's row list in order.
				inst := mem.instances[len(mem.rows)%n]
				mem.rows = append(mem.rows, r)
				inst.assignedRows = append(inst.assignedRows, r)
				patch.gains[inst]++
			}
		}
		for _, gain := range patch.gains {
			if gain > patch.maxG {
				patch.maxG = gain
			}
		}
		// Already-shipped rows can only be topped up, never retracted, so
		// the homogenized target rises by the largest instance gain and
		// every instance pads the difference.
		g.target += patch.maxG
		for _, mem := range g.members {
			for _, inst := range mem.instances {
				inst.copies = g.target - len(inst.assignedRows)
			}
		}
		patches = append(patches, patch)
	}
	np.rowInst = extendRowInst(old.rowInst, t.NumRows(), cloned)
	return np, patches, true
}

// appendedSuffix returns the rows of a refined class that were appended
// (index ≥ oldRows). Refinement appends new rows after the old ones, so
// the suffix split is positional.
func appendedSuffix(rows []int, oldRows int) []int {
	i := len(rows)
	for i > 0 && rows[i-1] >= oldRows {
		i--
	}
	return rows[i:]
}

// extendRowInst grows a row→instance map to nRows and points each
// appended row owned by a cloned ECG at its instance. Rows below the old
// length keep their existing pointers even when their ECG was cloned:
// clones share their originals' cipher maps, and emission reads an
// instance only through its nil-ness and cipher — identical through
// either pointer. Growth appends into the old slice's spare capacity
// (single flush lineage; old readers are len-bounded), so a flush costs
// O(Δ) here instead of an O(n) pointer-slice copy the GC would rescan.
func extendRowInst(old []*ecInstance, nRows int, cloned []*ecg) []*ecInstance {
	out := old
	if cap(out) < nRows {
		out = make([]*ecInstance, nRows, nRows+nRows/2+16)
		copy(out, old)
	} else {
		out = out[:nRows]
	}
	// An aborted plan may have left assignments in the reused capacity;
	// appended rows in singleton classes must read nil.
	for r := len(old); r < nRows; r++ {
		out[r] = nil
	}
	for _, g := range cloned {
		for _, mem := range g.members {
			for _, inst := range mem.instances {
				// Appended rows are the suffix: extendPlan pushes them in
				// order onto the committed assignment.
				rows := inst.assignedRows
				for k := len(rows) - 1; k >= 0 && rows[k] >= len(old); k-- {
					out[rows[k]] = inst
				}
			}
		}
	}
	return out
}

// cloneECG copies the mutable ECG structure but shares the row-list
// backing arrays: the clone only ever appends, so its writes land in
// spare capacity the original (len-bounded) can never observe. Flushes
// are single-flight and a committed plan becomes the next flush's base,
// so each backing array has exactly one live append lineage; an aborted
// plan's writes sit in capacity that is dead until the retry overwrites
// it. This keeps extendPlan O(Δ) instead of O(class size) per flush.
func cloneECG(g *ecg) *ecg {
	ng := &ecg{id: g.id, splitPoint: g.splitPoint, target: g.target}
	ng.members = make([]*ecMember, len(g.members))
	for i, m := range g.members {
		nm := &ecMember{
			rep:   m.rep,
			rows:  m.rows,
			size:  m.size,
			fake:  m.fake,
			split: m.split,
		}
		nm.instances = make([]*ecInstance, len(m.instances))
		for j, inst := range m.instances {
			nm.instances[j] = &ecInstance{
				member:       nm,
				idx:          inst.idx,
				cipher:       inst.cipher,
				assignedRows: inst.assignedRows,
				copies:       inst.copies,
			}
		}
		ng.members[i] = nm
	}
	return ng
}

// patchFalsePositives runs the incremental slice of Step 4: every
// dependency the appended rows newly violate lies inside the agreement set
// of a pair involving a new row, so for each agreement set A and each MAS
// M containing an attribute y ∉ A, the maximal newly-checkable node is
// (A∩M) → y — witnessed by the very pair that realized A, whose agreement
// pattern is exactly A. A node is already covered when some emitted
// pattern P has A∩M ⊆ P and y ∉ P (P's pairs violate it); A gets its own
// k artificial pairs only if it is not emitted yet and one of its nodes
// is uncovered. Agreement sets are walked largest first, so a wide
// pattern's pairs cover its subsets' nodes before those are considered.
// Previously emitted patterns stay harmless: they replicate agreement
// patterns of real row pairs, which the append cannot erase. prev is
// never mutated; the returned set is a copy when anything was emitted.
func (e *Encryptor) patchFalsePositives(t *relation.Table, agreements map[relation.AttrSet][2]int, prev map[relation.AttrSet]bool, masSets []relation.AttrSet, out *relation.Table, res *Result) map[relation.AttrSet]bool {
	agreeSets := make([]relation.AttrSet, 0, len(agreements))
	for a := range agreements {
		agreeSets = append(agreeSets, a)
	}
	relation.SortAttrSets(agreeSets)
	patterns := prev
	r1 := make([]string, t.NumAttrs())
	r2 := make([]string, t.NumAttrs())
	for i := len(agreeSets) - 1; i >= 0; i-- {
		a := agreeSets[i]
		if patterns[a] {
			continue
		}
		uncovered := make(map[fpNode]bool)
		for _, m := range masSets {
			if m.Size() < 2 {
				continue
			}
			x := a.Intersect(m)
			if x.IsEmpty() {
				continue
			}
			for _, y := range m.Diff(a).Attrs() {
				if !fpCovered(patterns, x, y) {
					uncovered[fpNode{x, y}] = true
				}
			}
		}
		if len(uncovered) == 0 {
			continue
		}
		if len(patterns) == len(prev) {
			patterns = make(map[relation.AttrSet]bool, len(prev)+1)
			for p := range prev {
				patterns[p] = true
			}
		}
		patterns[a] = true
		res.Report.FPNodes += len(uncovered)
		res.Report.FPPatterns++
		pair := agreements[a]
		e.emitFPPairs(t, pair[0], pair[1], r1, r2, out, res)
	}
	return patterns
}
