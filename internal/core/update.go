package core

import (
	"context"
	"errors"
	"fmt"

	"f2/internal/obs"
	"f2/internal/relation"
)

// UpdateStrategy selects how Updater.Flush applies the buffered rows.
type UpdateStrategy int

const (
	// UpdateIncremental (the default) runs the incremental update engine:
	// refine the cached MAS partitions with the appended rows, re-check
	// the border locally instead of re-running the full DUCC walk, and
	// re-encrypt only the ECGs the new rows land in, reusing every
	// untouched ciphertext row. Whenever the border — or the grouping
	// structure behind it — actually changes, the flush transparently
	// falls back to a full rebuild, so correctness is never speculative.
	UpdateIncremental UpdateStrategy = iota
	// UpdateRebuild re-runs the entire pipeline on D ∪ ΔD at every flush
	// (the paper's from-scratch observation). Always correct, never fast;
	// kept as the fallback target and the amortization baseline.
	UpdateRebuild
)

func (s UpdateStrategy) String() string {
	switch s {
	case UpdateIncremental:
		return "incremental"
	case UpdateRebuild:
		return "rebuild"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// FlushMode identifies which engine served a flush.
type FlushMode string

const (
	// FlushModeNone means no flush has happened yet (beyond the initial
	// encryption).
	FlushModeNone FlushMode = "none"
	// FlushModeRebuild means the last flush re-ran the full pipeline.
	FlushModeRebuild FlushMode = "rebuild"
	// FlushModeIncremental means the last flush was served incrementally.
	FlushModeIncremental FlushMode = "incremental"
)

// DefaultMinFlushRows is the default floor on the auto-flush threshold:
// with fewer buffered rows than this, ShouldFlush stays false regardless
// of FlushFraction. It exists for the degenerate empty-table case, where
// FlushFraction·0 = 0 would otherwise force a flush on every single
// appended row.
const DefaultMinFlushRows = 2

// Updater addresses the first future-work item of the paper's §7: F² "does
// not support efficient data updates, since it has to apply splitting and
// scaling from scratch if there is any data update".
//
// The Updater gives the owner a buffered append API (Buffer/ShouldFlush/
// Flush, or the combined Append) with two flush strategies:
//
//   - UpdateIncremental extends the previous encryption in place of
//     re-running it: Encryptor.EncryptIncremental refines the cached MAS
//     partitions with the appended rows, re-checks the border locally via
//     pair agreement sets, tops up only the ECGs the new rows land in, and
//     patches provenance — untouched ciphertext rows ship again verbatim.
//     One appended row can merge MASs or promote a singleton class into
//     the grouped region; those flushes structurally change the
//     encryption, are detected exactly, and fall back to the rebuild path.
//   - UpdateRebuild re-runs the full pipeline on D ∪ ΔD, the paper's
//     from-scratch baseline.
//
// Between flushes the buffered rows are not yet outsourced — deferring is
// the standard answer when immediate visibility is not required, and it
// never weakens the security of what has been shipped (the ciphertext
// simply lags). Every flush is transactional: a failed (e.g. cancelled)
// flush of either strategy leaves the updater — including the retained
// incremental plan state — unchanged, and a later Flush retries the same
// buffered rows. Rebuilds, IncrementalFlushes and LastFlush record which
// path ran, so services and benchmarks can report the amortization.
type Updater struct {
	enc      *Encryptor
	current  *relation.Table // all rows encrypted so far
	buffer   *relation.Table // rows appended but not yet flushed
	last     *Result
	flushing bool // a FlushPlan is in flight (BeginFlush .. Complete/Abort)
	// load reads last's ciphertext and provenance while a restored
	// updater defers them (see LoadResult); nil once they are in memory.
	load ResultLoader

	// Strategy selects the flush path (default UpdateIncremental).
	Strategy UpdateStrategy

	// FlushFraction triggers an automatic flush when the buffer grows
	// beyond this fraction of the encrypted table (default 0.1).
	FlushFraction float64

	// MinFlushRows floors the auto-flush threshold (default
	// DefaultMinFlushRows; values ≤ 0 mean the default). Without the
	// floor, an updater over an initially empty table would flush — and,
	// before incremental updates, fully rebuild — on every appended row.
	MinFlushRows int

	// Rebuilds counts full pipeline runs, including the initial encryption
	// (for amortization measurements).
	Rebuilds int
	// IncrementalFlushes counts flushes served by the incremental engine.
	IncrementalFlushes int
	// LastFlush records which path the most recent flush took.
	LastFlush FlushMode
}

// NewUpdater encrypts the initial table and returns an updater managing
// subsequent appends. The context bounds the initial encryption.
func NewUpdater(ctx context.Context, cfg Config, initial *relation.Table) (*Updater, *Result, error) {
	enc, err := NewEncryptor(cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := enc.Encrypt(ctx, initial)
	if err != nil {
		return nil, nil, err
	}
	u := &Updater{
		enc:           enc,
		current:       initial.Clone(),
		buffer:        relation.NewTable(initial.Schema().Clone()),
		last:          res,
		Strategy:      UpdateIncremental,
		FlushFraction: 0.1,
		Rebuilds:      1,
		LastFlush:     FlushModeNone,
	}
	return u, res, nil
}

// Result returns the latest encryption result (what the server holds).
// On a restored updater whose result is still deferred, its MASs and
// Report are set but Encrypted and Origins are nil; readers of those use
// LoadResult.
func (u *Updater) Result() *Result { return u.last }

// LoadResult returns the latest encryption result with its ciphertext
// and provenance in memory. A restored updater defers them: appends and
// flushes never read them (the first flush after a restore rebuilds and
// replaces them unread), so they load here, on the first read, checked
// as RestoreUpdater checks a state that holds them. A failed load leaves
// the result deferred, and the next call tries again.
func (u *Updater) LoadResult(ctx context.Context) (*Result, error) {
	if u.load == nil {
		return u.last, nil
	}
	enc, origins, err := loadResult(ctx, u.load, u.current.NumAttrs())
	if err != nil {
		return nil, err
	}
	u.last = &Result{Encrypted: enc.View(), Origins: clipOrigins(origins), MASs: u.last.MASs, Report: u.last.Report}
	u.load = nil
	return u.last, nil
}

// Pending returns the number of buffered rows not yet outsourced.
func (u *Updater) Pending() int { return u.buffer.NumRows() }

// Rows returns the number of plaintext rows covered by the latest
// outsourced ciphertext.
func (u *Updater) Rows() int { return u.current.NumRows() }

// Current returns the plaintext table covered by the latest outsourced
// ciphertext (the owner-side copy of D). Callers must treat it as
// read-only; it is the updater's working state, not a clone.
func (u *Updater) Current() *relation.Table { return u.current }

// Buffer validates and buffers rows without flushing. Atomic: a ragged
// batch leaves the buffer unchanged.
func (u *Updater) Buffer(rows [][]string) error {
	return u.buffer.AppendRows(rows)
}

// ShouldFlush reports whether the pending buffer has crossed
// FlushFraction of the outsourced table, subject to the MinFlushRows
// floor.
func (u *Updater) ShouldFlush() bool {
	pending := u.buffer.NumRows()
	if pending == 0 {
		return false
	}
	floor := u.MinFlushRows
	if floor <= 0 {
		floor = DefaultMinFlushRows
	}
	threshold := u.FlushFraction * float64(u.current.NumRows())
	if threshold < float64(floor) {
		threshold = float64(floor)
	}
	return float64(pending) >= threshold
}

// ErrFlushInFlight is returned by BeginFlush while another plan is
// between BeginFlush and CompleteFlush/AbortFlush. Flushes are
// single-flight: the plan pins the previous Result as its incremental
// base, and two concurrent plans would race to commit over each other.
var ErrFlushInFlight = errors.New("core: a flush is already in flight")

// FlushPlan is one flush's copy-on-write snapshot: the buffered rows
// (delta), the encrypted table and Result they extend, and — after Run —
// the combined table and fresh Result awaiting CompleteFlush.
//
// The plan decouples the expensive encryption from the updater's mutable
// state: BeginFlush captures the snapshot and installs a fresh buffer
// generation under the caller's lock, Run encrypts against the snapshot
// with no lock held (new appends keep buffering meanwhile), and
// CompleteFlush/AbortFlush reconcile under the lock again. Snapshots of
// the updater taken mid-plan (State, for persistence) must be deferred
// until the plan resolves: between Begin and Complete the delta rows live
// only in the plan, so a state capture would omit them while the WAL
// watermark says they are included.
type FlushPlan struct {
	u        *Updater
	enc      *Encryptor
	strategy UpdateStrategy
	delta    *relation.Table // buffered rows captured at BeginFlush
	base     *relation.Table // encrypted plaintext copy at BeginFlush
	baseRows int
	prev     *Result

	combined *relation.Table // set by Run
	res      *Result         // set by Run
	mode     FlushMode       // set by Run
}

// BeginFlush snapshots the buffered rows into a FlushPlan and installs a
// fresh buffer generation, so appends keep accumulating while the plan
// runs. Returns (nil, nil) when nothing is pending. The caller must
// eventually resolve a non-nil plan with CompleteFlush or AbortFlush;
// until then further BeginFlush calls fail with ErrFlushInFlight.
// Callers serialize Begin/Complete/Abort and all other updater access
// (f2served uses the dataset's state mutex); only Run is lock-free.
func (u *Updater) BeginFlush() (*FlushPlan, error) {
	if u.flushing {
		return nil, ErrFlushInFlight
	}
	if u.buffer.NumRows() == 0 {
		return nil, nil
	}
	p := &FlushPlan{
		u:        u,
		enc:      u.enc,
		strategy: u.Strategy,
		delta:    u.buffer,
		base:     u.current,
		baseRows: u.current.NumRows(),
		prev:     u.last,
	}
	// The next generation tends to accumulate about as many rows as the
	// one being flushed; reserving that up front keeps the append path off
	// the slice-growth treadmill.
	u.buffer = relation.NewTableCap(u.current.Schema().Clone(), p.delta.NumRows()+16)
	u.flushing = true
	return p, nil
}

// Run encrypts the plan's snapshot — via the incremental engine when the
// strategy allows and the append is structurally compatible, via a full
// rebuild otherwise. It touches no updater state, so it needs no lock and
// runs concurrently with new appends. A failed Run must be resolved with
// AbortFlush, which re-queues the delta rows.
func (p *FlushPlan) Run(ctx context.Context) error {
	ctx, sp := obs.Start(ctx, "update.flush")
	sp.SetAttr("pending", p.delta.NumRows())
	defer sp.End()
	// Structural sharing, not a deep copy: the combined table aliases the
	// base's backing arrays and appends into their spare capacity, which
	// the base (len-bounded) can never observe. Flushes are single-flight
	// and a committed plan's combined becomes the next base, so there is
	// exactly one append lineage per backing array; an aborted plan's
	// writes land in capacity that is dead until the retry overwrites it.
	combined := p.base.CloneShared()
	for i := 0; i < p.delta.NumRows(); i++ {
		if err := combined.AppendRow(p.delta.Row(i)); err != nil {
			return err
		}
	}
	if p.strategy == UpdateIncremental {
		// EncryptIncremental prefixes its own errors; no extra wrap.
		res, ok, err := p.enc.EncryptIncremental(ctx, p.prev, combined, p.baseRows)
		if err != nil {
			return err
		}
		if ok {
			p.combined, p.res, p.mode = combined, res, FlushModeIncremental
			sp.SetAttr("mode", string(FlushModeIncremental))
			return nil
		}
		// Structural change (border moved, class promoted, ...): fall back.
	}
	res, err := p.enc.Encrypt(ctx, combined)
	if err != nil {
		return fmt.Errorf("core: update rebuild: %w", err)
	}
	p.combined, p.res, p.mode = combined, res, FlushModeRebuild
	sp.SetAttr("mode", string(FlushModeRebuild))
	return nil
}

// CompleteFlush commits a successfully Run plan: the combined table
// becomes the outsourced plaintext copy, the fresh Result replaces the
// last one, and the flush counters record which engine ran. The buffer —
// the generation that accumulated while the plan ran — is untouched.
func (u *Updater) CompleteFlush(p *FlushPlan) (*Result, error) {
	if p.u != u {
		return nil, errors.New("core: flush plan belongs to a different updater")
	}
	if p.res == nil {
		return nil, errors.New("core: flush plan was not run")
	}
	u.current = p.combined
	u.last, u.load = p.res, nil
	switch p.mode {
	case FlushModeIncremental:
		u.IncrementalFlushes++
	case FlushModeRebuild:
		u.Rebuilds++
	}
	u.LastFlush = p.mode
	u.flushing = false
	return p.res, nil
}

// AbortFlush abandons a plan whose Run failed (or never ran): the delta
// rows return to the front of the buffer, ahead of anything appended
// since BeginFlush, restoring the exact pre-Begin pending order. The
// updater is left as if BeginFlush had never been called.
func (u *Updater) AbortFlush(p *FlushPlan) {
	if p.u != u {
		return
	}
	newer := u.buffer
	u.buffer = p.delta
	for i := 0; i < newer.NumRows(); i++ {
		// Same schema on both generations: AppendRow cannot reject a row
		// the newer buffer already accepted.
		_ = u.buffer.AppendRow(newer.Row(i))
	}
	u.flushing = false
}

// Flush applies the buffered rows to the outsourced ciphertext and resets
// the buffer, running the whole plan synchronously. A failed (e.g.
// cancelled) flush leaves the updater unchanged: the buffered rows stay
// pending and a later Flush retries them. With nothing pending it returns
// the latest result as LoadResult does, loading a deferred one.
func (u *Updater) Flush(ctx context.Context) (*Result, error) {
	plan, err := u.BeginFlush()
	if err != nil {
		return nil, err
	}
	if plan == nil {
		return u.LoadResult(ctx)
	}
	if err := plan.Run(ctx); err != nil {
		u.AbortFlush(plan)
		return nil, err
	}
	return u.CompleteFlush(plan)
}
