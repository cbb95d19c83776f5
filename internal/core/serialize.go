package core

import (
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
// The retained incremental plan (Result.state — MAS partitions, ECG
// instance assignments, Step-4 node set, fresh-minter position) is
// deliberately NOT part of the durable state: it is a dense web of
// interior pointers whose serialization would dwarf the data it
// accelerates. A restored Result therefore carries no plan state, so the
// first flush after a restore falls back to a full rebuild (which
// repopulates the plan); every later flush is incremental again.

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
}

// State captures the updater's durable state without copying a cell: the
// tables are Views and Origins a capacity-clipped slice of the live
// ones. Tables, Origins and the buffer only grow by appending (a flush
// appends to a CloneShared base; an aborted one re-queues by appending
// the newer rows to its own buffer), so nothing the updater does later
// writes inside what the capture covers, and a snapshot taken between
// operations stays consistent while the updater moves on. Callers must
// not write into the captured tables.
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
		Result:             u.last.State(),
	}
}

// State captures the result's serializable slice (the retained
// incremental plan is owner-side runtime state and is not included; see
// the file comment).
func (r *Result) State() *ResultState {
	return &ResultState{
		Encrypted: r.Encrypted.View(),
		Origins:   r.Origins[:len(r.Origins):len(r.Origins)],
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
}

// Sections decomposes the state. The returned sections alias the state's
// slices (no copying); callers that mutate them must clone first.
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
// RestoreUpdater — assembly only checks that every section is present,
// so a persistence layer that lost a chunk fails here, loudly, instead
// of restoring a dataset with silently missing rows.
func AssembleState(sec *StateSections) (*UpdaterState, error) {
	if sec == nil || sec.Meta == nil || sec.Current == nil || sec.Encrypted == nil {
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
// into the state's storage.
func RestoreUpdater(cfg Config, st *UpdaterState) (*Updater, error) {
	if st == nil || st.Current == nil || st.Buffer == nil || st.Result == nil || st.Result.Encrypted == nil {
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
	current, buffer, encrypted := st.Current.View(), st.Buffer.View(), st.Result.Encrypted.View()
	if !slices.Equal(buffer.Schema().Names(), current.Schema().Names()) {
		return nil, fmt.Errorf("core: restore: buffer columns %v, plaintext has %v",
			buffer.Schema().Names(), current.Schema().Names())
	}
	if encrypted.NumAttrs() != current.NumAttrs() {
		return nil, fmt.Errorf("core: restore: encrypted table has %d attributes, plaintext has %d",
			encrypted.NumAttrs(), current.NumAttrs())
	}
	if len(st.Result.Origins) != encrypted.NumRows() {
		return nil, fmt.Errorf("core: restore: %d origins for %d encrypted rows",
			len(st.Result.Origins), encrypted.NumRows())
	}
	last := &Result{
		Encrypted: encrypted,
		Origins:   st.Result.Origins[:len(st.Result.Origins):len(st.Result.Origins)],
		MASs:      append([]relation.AttrSet(nil), st.Result.MASs...),
		Report:    st.Result.Report,
		// state stays nil: the first flush rebuilds and repopulates it.
	}
	return &Updater{
		enc:                enc,
		current:            current,
		buffer:             buffer,
		last:               last,
		Strategy:           strategy,
		FlushFraction:      st.FlushFraction,
		MinFlushRows:       st.MinFlushRows,
		Rebuilds:           st.Rebuilds,
		IncrementalFlushes: st.IncrementalFlushes,
		LastFlush:          lastFlush,
	}, nil
}
