package core

import (
	"context"
	"fmt"
	"slices"

	"f2/internal/relation"
)

// This file is the serialization boundary of the update engine: an
// Updater's durable state as plain, JSON-encodable structs, produced by
// Updater.State and consumed by RestoreUpdater. The persistence layer
// (internal/store) encodes these in its snapshot file format; keeping the
// shapes here means the store never reaches into core's internals. The
// tables travel as *relation.Table, so the store encodes straight from
// their columns and hydrates straight into them.
//
// A restored state may defer its result. F²'s four steps read only the
// plaintext, so appends and flushes need the plaintext, the buffer and
// the small metadata, never the ciphertext or provenance (the bulk of a
// snapshot). The store therefore hands those two back as a ResultLoader,
// and the restored Updater runs it on the first read of its result
// (Updater.LoadResult). A result that is still deferred is captured as
// deferred, never as empty: State carries the loader forward, and
// Materialize runs it before anything is written.
//
// The retained incremental plan (Result.state — MAS partitions, ECG
// instance assignments, Step-4 node set, fresh-minter position) is
// deliberately NOT part of the durable state: it is a dense web of
// interior pointers whose serialization would dwarf the data it
// accelerates. A restored Result therefore carries no plan state, so the
// first flush after a restore falls back to a full rebuild (which
// repopulates the plan and replaces a deferred result unread); every
// later flush is incremental again.

// UpdaterState is the serializable form of an Updater: configuration
// knobs, flush accounting, the owner-side plaintext copy, the pending
// buffer, and the latest encryption result. It contains no key material —
// the caller persists the Config (and its key) separately.
type UpdaterState struct {
	Strategy           string          `json:"strategy"`
	FlushFraction      float64         `json:"flushFraction"`
	MinFlushRows       int             `json:"minFlushRows"`
	Rebuilds           int             `json:"rebuilds"`
	IncrementalFlushes int             `json:"incrementalFlushes"`
	LastFlush          string          `json:"lastFlush"`
	Current            *relation.Table `json:"current"`
	Buffer             *relation.Table `json:"buffer"`
	Result             *ResultState    `json:"result"`
}

// ResultState is the serializable slice of a Result: the ciphertext
// table, per-row provenance, the discovered MASs, and the report.
type ResultState struct {
	Encrypted *relation.Table    `json:"encrypted"`
	Origins   []RowOrigin        `json:"origins"`
	MASs      []relation.AttrSet `json:"mass"`
	Report    Report             `json:"report"`
	// Load is set on a deferred result, whose Encrypted and Origins are
	// nil until it runs. It is runtime state, never serialized.
	Load ResultLoader `json:"-"`
}

// ResultLoader reads a deferred result's ciphertext and provenance. A
// persistence layer returns one in their place, so a restored updater
// can append and flush before anything reads them.
type ResultLoader func(ctx context.Context) (*relation.Table, []RowOrigin, error)

// State captures the updater's durable state without copying a cell: the
// tables are Views and Origins a capacity-clipped slice of the live
// ones. Tables, Origins and the buffer only grow by appending (a flush
// appends to a CloneShared base; an aborted one re-queues by appending
// the newer rows to its own buffer), so nothing the updater does later
// writes inside what the capture covers, and a snapshot taken between
// operations stays consistent while the updater moves on. Callers must
// not write into the captured tables. A result that is still deferred
// is captured with its loader (see Materialize).
func (u *Updater) State() *UpdaterState {
	return &UpdaterState{
		Strategy:           u.Strategy.String(),
		FlushFraction:      u.FlushFraction,
		MinFlushRows:       u.MinFlushRows,
		Rebuilds:           u.Rebuilds,
		IncrementalFlushes: u.IncrementalFlushes,
		LastFlush:          string(u.LastFlush),
		Current:            u.current.View(),
		Buffer:             u.buffer.View(),
		Result:             u.resultState(),
	}
}

// resultState captures the latest result, or its loader while it is
// deferred.
func (u *Updater) resultState() *ResultState {
	if u.load == nil {
		return u.last.State()
	}
	return &ResultState{
		MASs:   append([]relation.AttrSet(nil), u.last.MASs...),
		Report: u.last.Report,
		Load:   u.load,
	}
}

// Materialize returns st with a deferred result loaded and checked the
// way RestoreUpdater checks one held in memory. A state whose result is
// in memory comes back as is; st itself is never modified.
func (st *UpdaterState) Materialize(ctx context.Context) (*UpdaterState, error) {
	if st == nil || st.Current == nil || st.Result == nil || st.Result.Encrypted != nil || st.Result.Load == nil {
		return st, nil
	}
	enc, origins, err := loadResult(ctx, st.Result.Load, st.Current.NumAttrs())
	if err != nil {
		return nil, err
	}
	out, res := *st, *st.Result
	res.Encrypted, res.Origins, res.Load = enc, origins, nil
	out.Result = &res
	return &out, nil
}

// loadResult runs a deferred result's loader and checks what it read
// against the plaintext's width.
func loadResult(ctx context.Context, load ResultLoader, width int) (*relation.Table, []RowOrigin, error) {
	enc, origins, err := load(ctx)
	if err == nil {
		err = checkResult(enc, origins, width)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: loading result: %w", err)
	}
	return enc, origins, nil
}

// checkResult is the structural check of a result's ciphertext and
// provenance: one encrypted column per plaintext column, one origin per
// encrypted row.
func checkResult(enc *relation.Table, origins []RowOrigin, width int) error {
	if enc == nil {
		return fmt.Errorf("no encrypted table")
	}
	if enc.NumAttrs() != width {
		return fmt.Errorf("encrypted table has %d attributes, plaintext has %d", enc.NumAttrs(), width)
	}
	if len(origins) != enc.NumRows() {
		return fmt.Errorf("%d origins for %d encrypted rows", len(origins), enc.NumRows())
	}
	return nil
}

// State captures the result's serializable slice (the retained
// incremental plan is owner-side runtime state and is not included; see
// the file comment).
func (r *Result) State() *ResultState {
	return &ResultState{
		Encrypted: r.Encrypted.View(),
		Origins:   clipOrigins(r.Origins),
		MASs:      append([]relation.AttrSet(nil), r.MASs...),
		Report:    r.Report,
	}
}

// UpdaterMeta is the table-free slice of an UpdaterState: configuration
// knobs, flush accounting, and the small per-result metadata (MASs,
// report). It is one section of the chunked snapshot format — a few
// hundred bytes regardless of dataset size — so the persistence layer
// can rewrite it on every rotation without touching the row data.
type UpdaterMeta struct {
	Strategy           string             `json:"strategy"`
	FlushFraction      float64            `json:"flushFraction"`
	MinFlushRows       int                `json:"minFlushRows"`
	Rebuilds           int                `json:"rebuilds"`
	IncrementalFlushes int                `json:"incrementalFlushes"`
	LastFlush          string             `json:"lastFlush"`
	MASs               []relation.AttrSet `json:"mass"`
	Report             Report             `json:"report"`
}

// StateSections is an UpdaterState decomposed into independently
// persistable sections. The split follows growth behavior: Meta is tiny
// and always rewritten; Current, Encrypted, and Origins grow by
// appending (flushes extend them, never reorder them), so a row-range
// chunking of each stays stable across rotations; Buffer is the pending
// rows, small between flushes.
type StateSections struct {
	Meta      *UpdaterMeta
	Current   *relation.Table
	Encrypted *relation.Table
	Origins   []RowOrigin
	Buffer    *relation.Table
	// Load, on the read side, stands in for Encrypted and Origins: the
	// result they form is deferred until a reader needs it.
	Load ResultLoader
}

// Sections decomposes the state, whose result must be in memory (see
// Materialize). The returned sections alias the state's slices (no
// copying); callers that mutate them must clone first.
func (st *UpdaterState) Sections() *StateSections {
	if st == nil || st.Result == nil {
		return nil
	}
	return &StateSections{
		Meta: &UpdaterMeta{
			Strategy:           st.Strategy,
			FlushFraction:      st.FlushFraction,
			MinFlushRows:       st.MinFlushRows,
			Rebuilds:           st.Rebuilds,
			IncrementalFlushes: st.IncrementalFlushes,
			LastFlush:          st.LastFlush,
			MASs:               st.Result.MASs,
			Report:             st.Result.Report,
		},
		Current:   st.Current,
		Encrypted: st.Result.Encrypted,
		Origins:   st.Result.Origins,
		Buffer:    st.Buffer,
	}
}

// AssembleState inverts Sections. Structural validation is left to
// RestoreUpdater, or to the load of a deferred result — assembly only
// checks that every section is present (Encrypted and Origins, or a
// Load that reads them), so a persistence layer that lost a chunk fails
// here, loudly, instead of restoring a dataset with silently missing
// rows.
func AssembleState(sec *StateSections) (*UpdaterState, error) {
	if sec == nil || sec.Meta == nil || sec.Current == nil || (sec.Encrypted == nil && sec.Load == nil) {
		return nil, fmt.Errorf("core: assemble: incomplete state sections")
	}
	if sec.Buffer == nil {
		sec.Buffer = relation.NewTable(sec.Current.Schema())
	}
	return &UpdaterState{
		Strategy:           sec.Meta.Strategy,
		FlushFraction:      sec.Meta.FlushFraction,
		MinFlushRows:       sec.Meta.MinFlushRows,
		Rebuilds:           sec.Meta.Rebuilds,
		IncrementalFlushes: sec.Meta.IncrementalFlushes,
		LastFlush:          sec.Meta.LastFlush,
		Current:            sec.Current,
		Buffer:             sec.Buffer,
		Result: &ResultState{
			Encrypted: sec.Encrypted,
			Origins:   sec.Origins,
			MASs:      sec.Meta.MASs,
			Report:    sec.Meta.Report,
			Load:      sec.Load,
		},
	}, nil
}

// ParseUpdateStrategy inverts UpdateStrategy.String.
func ParseUpdateStrategy(s string) (UpdateStrategy, error) {
	switch s {
	case "incremental":
		return UpdateIncremental, nil
	case "rebuild":
		return UpdateRebuild, nil
	default:
		return 0, fmt.Errorf("core: unknown update strategy %q", s)
	}
}

// ParseFlushMode validates a serialized FlushMode.
func ParseFlushMode(s string) (FlushMode, error) {
	switch m := FlushMode(s); m {
	case FlushModeNone, FlushModeRebuild, FlushModeIncremental:
		return m, nil
	default:
		return "", fmt.Errorf("core: unknown flush mode %q", s)
	}
}

// RestoreUpdater rebuilds an Updater from a captured state. The state is
// validated structurally (table shapes, provenance length, strategy and
// mode names); cfg must carry the same key the state was encrypted under,
// or later decryptions will produce garbage. The tables are taken as
// they are, through Views, so the restored updater's appends never write
// into the state's storage. A deferred result stays deferred: its
// ciphertext and provenance are checked when LoadResult loads them.
func RestoreUpdater(cfg Config, st *UpdaterState) (*Updater, error) {
	if st == nil || st.Current == nil || st.Buffer == nil || st.Result == nil || (st.Result.Encrypted == nil && st.Result.Load == nil) {
		return nil, fmt.Errorf("core: restore: incomplete updater state")
	}
	enc, err := NewEncryptor(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	strategy, err := ParseUpdateStrategy(st.Strategy)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	lastFlush, err := ParseFlushMode(st.LastFlush)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	current, buffer := st.Current.View(), st.Buffer.View()
	if !slices.Equal(buffer.Schema().Names(), current.Schema().Names()) {
		return nil, fmt.Errorf("core: restore: buffer columns %v, plaintext has %v",
			buffer.Schema().Names(), current.Schema().Names())
	}
	last := &Result{
		MASs:   append([]relation.AttrSet(nil), st.Result.MASs...),
		Report: st.Result.Report,
		// state stays nil: the first flush rebuilds and repopulates it.
	}
	var load ResultLoader
	if st.Result.Encrypted == nil {
		load = st.Result.Load
	} else {
		if err := checkResult(st.Result.Encrypted, st.Result.Origins, current.NumAttrs()); err != nil {
			return nil, fmt.Errorf("core: restore: %w", err)
		}
		last.Encrypted, last.Origins = st.Result.Encrypted.View(), clipOrigins(st.Result.Origins)
	}
	return &Updater{
		enc:                enc,
		current:            current,
		buffer:             buffer,
		last:               last,
		load:               load,
		Strategy:           strategy,
		FlushFraction:      st.FlushFraction,
		MinFlushRows:       st.MinFlushRows,
		Rebuilds:           st.Rebuilds,
		IncrementalFlushes: st.IncrementalFlushes,
		LastFlush:          lastFlush,
	}, nil
}

// clipOrigins clips a provenance slice's capacity to its length, so an
// append to it reallocates instead of writing into shared spare capacity.
func clipOrigins(o []RowOrigin) []RowOrigin { return o[:len(o):len(o)] }
