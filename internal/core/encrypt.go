package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"f2/internal/crypt"
	"f2/internal/mas"
	"f2/internal/obs"
	"f2/internal/partition"
	"f2/internal/pool"
	"f2/internal/relation"
)

// RowKind classifies each row of the encrypted table by provenance.
type RowKind int

const (
	// RowOriginal is an original tuple of D (all cells real).
	RowOriginal RowKind = iota
	// RowConflictPart is one of the tuples replacing an original tuple
	// during type-2 conflict resolution (§3.3.2); its Carried attributes
	// hold real values, the rest are fresh filler.
	RowConflictPart
	// RowScaleCopy is a copy added by the scaling phase (§3.2.2) carrying
	// an instance's ciphertext on the MAS attributes and fresh values
	// elsewhere (type-1 conflict handling, §3.3.1).
	RowScaleCopy
	// RowFakeEC materializes a fake equivalence class added by grouping
	// (§3.2.1) to reach the ⌈1/α⌉ group size.
	RowFakeEC
	// RowFPArtificial is an artificial record inserted by Step 4 to
	// re-witness an FD violation of D (§3.4).
	RowFPArtificial
)

func (k RowKind) String() string {
	switch k {
	case RowOriginal:
		return "original"
	case RowConflictPart:
		return "conflict-part"
	case RowScaleCopy:
		return "scale-copy"
	case RowFakeEC:
		return "fake-ec"
	case RowFPArtificial:
		return "fp-artificial"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// RowOrigin records the provenance of one encrypted row.
type RowOrigin struct {
	Kind RowKind
	// SourceRow is the original row index for RowOriginal and
	// RowConflictPart rows, -1 otherwise.
	SourceRow int
	// Carried is the set of attributes holding real (non-filler) values.
	Carried relation.AttrSet
}

// Result is the output of F² encryption: the ciphertext table, per-row
// provenance (owner-side metadata — it never ships to the server), the
// discovered MASs, and the step-by-step report.
type Result struct {
	Encrypted *relation.Table
	Origins   []RowOrigin
	MASs      []relation.AttrSet
	Report    Report

	// state retains the encryption plan (MAS partitions, ECGs, instance
	// assignments, emitted Step-4 nodes, fresh-minter position) so a later
	// EncryptIncremental can extend this result instead of starting over.
	// Owner-side only, like Origins.
	state *encState
}

// Encryptor applies the F² scheme. An Encryptor is safe to reuse across
// tables but not concurrently. Every row of a run is emitted in order by
// one goroutine through one fresh minter and one kernel; only stages that
// mint nothing fan out across Config.Parallelism workers, so the output
// is byte-identical at every width.
type Encryptor struct {
	cfg    Config
	cipher *crypt.ProbCipher
	mint   *freshMinter  // per-run fresh-value minter
	kern   *crypt.Kernel // per-run emission kernel
	pool   *pool.Pool    // per-run pool of Encrypt, nil between runs
}

// NewEncryptor validates cfg and builds an encryptor.
func NewEncryptor(cfg Config) (*Encryptor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := crypt.NewProbCipher(cfg.Key, cfg.PRF)
	if err != nil {
		return nil, err
	}
	return &Encryptor{cfg: cfg, cipher: c}, nil
}

// masPlan holds the per-MAS encryption plan.
type masPlan struct {
	attrs relation.AttrSet
	cols  []int // attrs.Attrs(), cached
	part  *partition.Partition
	ecgs  []*ecg
	// rowInst maps original row -> its ciphertext instance, nil when the
	// row's equivalence class is a singleton.
	rowInst []*ecInstance
	stats   groupStats
	// memberOf indexes real members by their class's first row. Built
	// lazily by the first extendPlan of a rebuild generation and shared
	// down the plan lineage; nil until then (membership is fixed between
	// rebuilds).
	memberOf map[int]memberAt
}

// Encrypt runs the full 4-step pipeline on t. The context is checked at
// every step boundary and inside the heavy inner loops (instance filling,
// Step-4 lattice search, row emission), so a cancelled or expired ctx
// aborts a long encryption promptly with ctx.Err().
func (e *Encryptor) Encrypt(ctx context.Context, t *relation.Table) (*Result, error) {
	if t.NumAttrs() > relation.MaxAttrs {
		return nil, fmt.Errorf("core: table has %d attributes, max %d", t.NumAttrs(), relation.MaxAttrs)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: encrypt: %w", err)
	}
	e.mint = &freshMinter{}
	e.kern = e.cipher.NewKernel()
	e.pool = pool.New(e.cfg.Workers())
	defer func() { e.pool.Close(); e.pool = nil }()
	res := &Result{Report: Report{Alpha: e.cfg.Alpha, SplitFactor: e.cfg.SplitFactor, K: e.cfg.K()}}
	res.Report.OriginalRows = t.NumRows()

	// ---- Step 1: MAS discovery (MAX) ----
	start := time.Now()
	sctx, sp := obs.Start(ctx, "encrypt.step1.mas")
	var disc *mas.Result
	var err error
	if e.cfg.MAS == MASLevelwise {
		disc, err = mas.DiscoverLevelwiseCtx(sctx, t)
	} else {
		disc, err = mas.DiscoverCtx(sctx, t)
	}
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("core: encrypt: %w", err)
	}
	res.MASs = disc.Sets
	res.Report.MASs = disc.Sets
	res.Report.UniquenessChecks = disc.Checked
	sp.SetAttr("rows", t.NumRows())
	sp.SetAttr("mas", len(disc.Sets))
	sp.SetAttr("uniquenessChecks", disc.Checked)
	sp.SetAttr("borderRounds", disc.Border.Rounds)
	sp.SetAttr("negativeBorder", disc.Border.Negative)
	sp.SetAttr("pliProducts", disc.PLIs.Products)
	sp.SetAttr("pliEvictions", disc.PLIs.Evictions)
	sp.End()
	res.Report.TimeMAX = time.Since(start)

	// ---- Step 2: grouping + splitting-and-scaling (SSE) ----
	start = time.Now()
	sctx, sp = obs.Start(ctx, "encrypt.step2.group")
	plans, err := e.buildPlans(sctx, t, disc)
	if err != nil {
		sp.End()
		return nil, err
	}
	for _, p := range plans {
		res.Report.addGroupStats(p.stats)
	}
	sp.SetAttr("ecgs", res.Report.NumECGs)
	sp.SetAttr("instances", res.Report.NumInstances)
	sp.End()
	res.Report.TimeSSE = time.Since(start)

	// ---- Step 3: conflict resolution + table assembly (SYN) ----
	start = time.Now()
	sctx, sp = obs.Start(ctx, "encrypt.step3.emit")
	if err := ctx.Err(); err != nil {
		sp.End()
		return nil, fmt.Errorf("core: encrypt: %w", err)
	}
	out := relation.NewTable(t.Schema().Clone())
	if err := e.emitOriginalRows(sctx, t, plans, out, res, 0, t.NumRows()); err != nil {
		sp.End()
		return nil, fmt.Errorf("core: encrypt: %w", err)
	}
	if err := e.emitPaddingJobs(sctx, scaleCopyJobs(plans), out, res); err != nil {
		sp.End()
		return nil, fmt.Errorf("core: encrypt: %w", err)
	}
	if err := e.emitPaddingJobs(sctx, fakeECJobs(plans), out, res); err != nil {
		sp.End()
		return nil, fmt.Errorf("core: encrypt: %w", err)
	}
	sp.SetAttr("emittedRows", out.NumRows())
	sp.End()
	res.Report.TimeSYN = time.Since(start)

	// ---- Step 4: false-positive elimination (FP) ----
	start = time.Now()
	sctx, sp = obs.Start(ctx, "encrypt.step4.fp")
	fpPatterns := make(map[relation.AttrSet]bool)
	if !e.cfg.SkipFPElimination {
		var err error
		var pli partition.CacheStats
		if fpPatterns, pli, err = e.eliminateFalsePositives(sctx, t, disc.Coded, plans, out, res); err != nil {
			sp.End()
			return nil, err
		}
		sp.SetAttr("pliProducts", pli.Products)
		sp.SetAttr("pliEvictions", pli.Evictions)
	}
	sp.SetAttr("fpNodes", res.Report.FPNodes)
	sp.SetAttr("fpPatterns", res.Report.FPPatterns)
	sp.SetAttr("fpRows", res.Report.FPRows)
	sp.SetAttr("borderChecks", res.Report.FPChecks)
	sp.End()
	res.Report.TimeFP = time.Since(start)

	res.Encrypted = out
	res.Report.EncryptedRows = out.NumRows()
	res.Report.ReencryptedRows = out.NumRows()
	res.state = &encState{disc: disc, plans: plans, fpPatterns: fpPatterns, minted: e.mint.minted()}
	return res, nil
}

// buildPlans runs Step 2's plan construction for every MAS in order:
// grouping (which mints the fake-EC representatives), split planning, and
// row assignment, then the instance ciphertexts.
func (e *Encryptor) buildPlans(ctx context.Context, t *relation.Table, disc *mas.Result) ([]*masPlan, error) {
	plans := make([]*masPlan, len(disc.Sets))
	for i, m := range disc.Sets {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: encrypt: %w", err)
		}
		p := &masPlan{attrs: m, cols: m.Attrs(), part: disc.Partitions[m]}
		p.ecgs = buildECGs(t, p.part, m, e.cfg.K(), e.mint)
		for _, g := range p.ecgs {
			if e.cfg.NaiveSplitPoint {
				planSplitNaive(g, e.cfg.SplitFactor, e.cfg.MinInstanceFreq)
			} else {
				planSplit(g, e.cfg.SplitFactor, e.cfg.MinInstanceFreq)
			}
			assignRows(g)
		}
		p.rowInst = make([]*ecInstance, t.NumRows())
		for _, g := range p.ecgs {
			for _, mem := range g.members {
				for _, inst := range mem.instances {
					for _, r := range inst.assignedRows {
						p.rowInst[r] = inst
					}
				}
			}
		}
		p.stats = statsOf(p.ecgs)
		plans[i] = p
	}
	if err := e.fillInstanceCiphers(ctx, plans); err != nil {
		return nil, err
	}
	return plans, nil
}

// fillInstanceCiphers encrypts every instance's representative over the
// MAS attributes, one ECG per pool task, each task sealing with its own
// kernel. The tweak binds (MAS, attribute, EC representative) so
// that: distinct instances of one EC differ on every attribute
// (Requirement 2), and equal plaintext values appearing in different ECs —
// hence in different ECGs — never share a ciphertext (§3.2.2).
//
// SealInstance is a pure function of (key, tweak, value, index), so the
// fill parallelizes across ECGs without affecting determinism: the same
// key always produces the same ciphertext table.
func (e *Encryptor) fillInstanceCiphers(ctx context.Context, plans []*masPlan) error {
	type task struct {
		masTag string
		cols   []int
		g      *ecg
	}
	var tasks []task
	for _, p := range plans {
		tag := p.attrs.String()
		for _, g := range p.ecgs {
			tasks = append(tasks, task{tag, p.cols, g})
		}
	}
	err := e.pool.ForEach(ctx, len(tasks), func(ctx context.Context, i int) error {
		tk := tasks[i]
		kern := e.cipher.NewKernel()
		for _, mem := range tk.g.members {
			for _, inst := range mem.instances {
				fillOneInstance(kern, tk.masTag, tk.cols, mem, inst)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: encrypt: %w", err)
	}
	return nil
}

// fillOneInstance seals inst's representative on every MAS attribute
// under the tweak "mas:<MAS>|attr:<a>|rep:<rep values joined by 0x1f>".
func fillOneInstance(kern *crypt.Kernel, masTag string, cols []int, mem *ecMember, inst *ecInstance) {
	for ai, a := range cols {
		kern.Tweak = append(kern.Tweak[:0], "mas:"...)
		kern.Tweak = append(kern.Tweak, masTag...)
		kern.Tweak = append(kern.Tweak, "|attr:"...)
		kern.Tweak = strconv.AppendInt(kern.Tweak, int64(a), 10)
		kern.Tweak = append(kern.Tweak, "|rep:"...)
		for vi, v := range mem.rep {
			if vi > 0 {
				kern.Tweak = append(kern.Tweak, '\x1f')
			}
			kern.Tweak = append(kern.Tweak, v...)
		}
		inst.cipher[a] = kern.SealInstance(mem.rep[ai], uint64(inst.idx))
	}
}

// singletonCipher encrypts a cell that is not governed by any grouped
// instance: cells of singleton equivalence classes and cells of attributes
// outside every MAS. The tweak "row:<row>|attr:<attr>" is the row
// identity, so two overlapping MASs that both see the row as a singleton
// agree on the shared attribute (avoiding spurious type-2 conflicts),
// while distinct rows always get distinct ciphertexts.
func singletonCipher(kern *crypt.Kernel, row, attr int, plain string) string {
	kern.Tweak = append(kern.Tweak[:0], "row:"...)
	kern.Tweak = strconv.AppendInt(kern.Tweak, int64(row), 10)
	kern.Tweak = append(kern.Tweak, "|attr:"...)
	kern.Tweak = strconv.AppendInt(kern.Tweak, int64(attr), 10)
	return kern.SealInstance(plain, uint64(row))
}

// freshCipher seals the next value of the run's fresh minter under the
// tweak "fresh|attr:<attr>"; each call produces a ciphertext unique in
// the output table.
func (e *Encryptor) freshCipher(attr int) string {
	v := e.mint.value()
	e.kern.Tweak = append(e.kern.Tweak[:0], "fresh|attr:"...)
	e.kern.Tweak = strconv.AppendInt(e.kern.Tweak, int64(attr), 10)
	return e.kern.SealInstance(v, 0)
}

// emitOriginalRows writes the original tuples with indices in [lo, hi),
// splitting a tuple into parts when overlapping MASs claim its shared
// attributes with different ciphertexts (type-2 conflicts, §3.3.2). The
// full pipeline passes the whole table; the incremental engine passes only
// the appended suffix.
func (e *Encryptor) emitOriginalRows(ctx context.Context, t *relation.Table, plans []*masPlan, out *relation.Table, res *Result, lo, hi int) error {
	if lo == hi {
		return ctx.Err()
	}
	_, sp := obs.Start(ctx, "emit.shard")
	sp.SetAttr("units", hi-lo)
	defer sp.End()
	row := make([]string, t.NumAttrs())
	for r := lo; r < hi; r++ {
		if (r-lo)%64 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		e.emitOneOriginalRow(t, plans, r, row, out, res)
	}
	return nil
}

// emitOneOriginalRow appends the part(s) of original row r to out. row is
// a scratch buffer of width NumAttrs.
func (e *Encryptor) emitOneOriginalRow(t *relation.Table, plans []*masPlan, r int, row []string, out *relation.Table, res *Result) {
	m := t.NumAttrs()
	// Collect the MASs holding a grouped (non-singleton) instance for
	// this row; only they impose ciphertexts that can conflict.
	var grouped []*masPlan
	for _, p := range plans {
		if p.rowInst[r] != nil {
			grouped = append(grouped, p)
		}
	}
	parts := splitConflicts(grouped, e.cfg.SkipConflictResolution)
	for pi, part := range parts {
		carried := relation.AttrSet(0)
		for a := 0; a < m; a++ {
			owner := ownerIn(part, a)
			switch {
			case owner != nil:
				row[a] = owner.rowInst[r].cipher[a]
				carried = carried.Add(a)
			case pi == 0 && !groupedElsewhere(grouped, part, a):
				// Primary part: attributes not claimed by any grouped
				// MAS keep their (singleton-encrypted) real value.
				row[a] = singletonCipher(e.kern, r, a, t.Cell(r, a))
				carried = carried.Add(a)
			default:
				// Fresh filler (the v_X / v_Y values of §3.3.2).
				row[a] = e.freshCipher(a)
			}
		}
		out.AppendRow(row)
		kind := RowOriginal
		if len(parts) > 1 {
			kind = RowConflictPart
		}
		res.Origins = append(res.Origins, RowOrigin{Kind: kind, SourceRow: r, Carried: carried})
	}
	if len(parts) > 1 {
		res.Report.ConflictRows += len(parts) - 1
		res.Report.ConflictTuples++
	}
}

// splitConflicts partitions the grouped MASs of one row into parts of
// pairwise non-overlapping MASs: the first part is the primary tuple, each
// further part becomes one replacement tuple (r2 of §3.3.2). With q
// pairwise-overlapping MASs the row yields q parts — one replacement per
// conflicting pair processed, matching Theorem 3.4's order-independence.
func splitConflicts(grouped []*masPlan, skip bool) [][]*masPlan {
	if len(grouped) == 0 {
		return [][]*masPlan{nil}
	}
	if skip {
		return [][]*masPlan{grouped}
	}
	parts := [][]*masPlan{append([]*masPlan(nil), grouped...)}
	for i := 0; i < len(parts); i++ {
	rescan:
		for ai := 0; ai < len(parts[i]); ai++ {
			for bi := ai + 1; bi < len(parts[i]); bi++ {
				if parts[i][ai].attrs.Overlaps(parts[i][bi].attrs) {
					// Evict the second MAS into its own part.
					evicted := parts[i][bi]
					parts[i] = append(parts[i][:bi], parts[i][bi+1:]...)
					parts = append(parts, []*masPlan{evicted})
					goto rescan
				}
			}
		}
	}
	return parts
}

// ownerIn returns the plan in part whose MAS contains attribute a, if any.
// Parts hold pairwise non-overlapping MASs, so the owner is unique.
func ownerIn(part []*masPlan, a int) *masPlan {
	for _, p := range part {
		if p.attrs.Has(a) {
			return p
		}
	}
	return nil
}

// groupedElsewhere reports whether attribute a belongs to a grouped MAS of
// this row that lives in another part.
func groupedElsewhere(grouped, part []*masPlan, a int) bool {
	for _, p := range grouped {
		if !p.attrs.Has(a) {
			continue
		}
		inPart := false
		for _, q := range part {
			if q == p {
				inPart = true
				break
			}
		}
		if !inPart {
			return true
		}
	}
	return false
}

// padJob is one padding-emission unit: count synthetic rows carrying
// inst's ciphertext over the MAS attributes of plan and fresh values
// elsewhere. For a real member these are scale copies (Step 2.2, with
// §3.3.1's type-1 conflict handling built in); for a fake member they
// materialize a fake equivalence class of Step 2.1. The full pipeline,
// the incremental top-up path, and the fake-EC phase all emit through
// the same job shape.
type padJob struct {
	plan  *masPlan
	inst  *ecInstance
	count int
	fake  bool
}

// scaleCopyJobs lists the scaling copies of Step 2.2 in deterministic
// plan/group/member/instance order.
func scaleCopyJobs(plans []*masPlan) []padJob {
	var jobs []padJob
	for _, p := range plans {
		for _, g := range p.ecgs {
			for _, mem := range g.members {
				if mem.fake {
					continue
				}
				for _, inst := range mem.instances {
					jobs = append(jobs, padJob{p, inst, inst.copies, false})
				}
			}
		}
	}
	return jobs
}

// fakeECJobs lists the fake-equivalence-class rows of Step 2.1 (target
// rows per instance) in deterministic order.
func fakeECJobs(plans []*masPlan) []padJob {
	var jobs []padJob
	for _, p := range plans {
		for _, g := range p.ecgs {
			for _, mem := range g.members {
				if !mem.fake {
					continue
				}
				for _, inst := range mem.instances {
					jobs = append(jobs, padJob{p, inst, g.target, true})
				}
			}
		}
	}
	return jobs
}

// emitPaddingJobs appends every job's padding rows to out, in job order.
func (e *Encryptor) emitPaddingJobs(ctx context.Context, jobs []padJob, out *relation.Table, res *Result) error {
	if len(jobs) == 0 {
		return ctx.Err()
	}
	_, sp := obs.Start(ctx, "emit.shard")
	sp.SetAttr("units", len(jobs))
	defer sp.End()
	m := out.NumAttrs()
	row := make([]string, m)
	for ji, j := range jobs {
		if ji%64 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for c := 0; c < j.count; c++ {
			for a := 0; a < m; a++ {
				if j.plan.attrs.Has(a) {
					row[a] = j.inst.cipher[a]
				} else {
					row[a] = e.freshCipher(a)
				}
			}
			out.AppendRow(row)
			if j.fake {
				res.Origins = append(res.Origins, RowOrigin{Kind: RowFakeEC, SourceRow: -1, Carried: 0})
				res.Report.GroupRows++
			} else {
				res.Origins = append(res.Origins, RowOrigin{Kind: RowScaleCopy, SourceRow: -1, Carried: j.plan.attrs})
				res.Report.ScaleRows++
			}
		}
	}
	return nil
}
