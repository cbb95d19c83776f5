package core

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"f2/internal/relation"
)

// restoredUpdater round-trips an updater through State → JSON → Restore,
// exactly the path the persistence layer takes.
func restoredUpdater(t *testing.T, u *Updater, cfg Config) *Updater {
	t.Helper()
	data, err := json.Marshal(u.State())
	if err != nil {
		t.Fatal(err)
	}
	var st UpdaterState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	back, err := RestoreUpdater(cfg, &st)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestUpdaterStateRoundTrip: a restored updater carries the same
// plaintext, pending buffer, counters, and a ciphertext that decrypts to
// the same table; the first post-restore flush falls back to a rebuild
// (no retained plan) and later flushes are incremental again.
func TestUpdaterStateRoundTrip(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	base := appendStreamTable(rng, 60)
	cfg := testConfig(0.5)

	u, _, err := NewUpdater(ctx, cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	// One incremental flush so the counters are non-trivial, then leave
	// rows pending so the buffer round-trips too.
	var batch [][]string
	for i := 0; i < 6; i++ {
		batch = append(batch, borderStableRow(u.Current(), u.Result().MASs[0], rng, i))
	}
	if err := u.Buffer(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	pendingRow := borderStableRow(u.Current(), u.Result().MASs[0], rng, 99)
	if err := u.Buffer([][]string{pendingRow}); err != nil {
		t.Fatal(err)
	}

	back := restoredUpdater(t, u, cfg)
	if back.Rows() != u.Rows() || back.Pending() != u.Pending() {
		t.Fatalf("restored rows=%d pending=%d, want %d/%d", back.Rows(), back.Pending(), u.Rows(), u.Pending())
	}
	if back.Rebuilds != u.Rebuilds || back.IncrementalFlushes != u.IncrementalFlushes || back.LastFlush != u.LastFlush {
		t.Fatalf("restored counters %d/%d/%s, want %d/%d/%s",
			back.Rebuilds, back.IncrementalFlushes, back.LastFlush,
			u.Rebuilds, u.IncrementalFlushes, u.LastFlush)
	}
	if !reflect.DeepEqual(back.Current().SortedRows(), u.Current().SortedRows()) {
		t.Fatal("restored plaintext differs")
	}
	if !reflect.DeepEqual(back.Result().Encrypted.SortedRows(), u.Result().Encrypted.SortedRows()) {
		t.Fatal("restored ciphertext differs")
	}

	dec, err := NewDecryptor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := dec.Recover(ctx, back.Result())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recovered.SortedRows(), u.Current().SortedRows()) {
		t.Fatal("restored result does not decrypt to the plaintext")
	}

	// First flush after restore: no plan state, must rebuild.
	rebuilds := back.Rebuilds
	if _, err := back.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if back.LastFlush != FlushModeRebuild || back.Rebuilds != rebuilds+1 {
		t.Fatalf("post-restore flush: mode=%s rebuilds=%d, want rebuild/%d", back.LastFlush, back.Rebuilds, rebuilds+1)
	}
	// With the plan repopulated, a border-stable append is incremental.
	stable := borderStableRow(back.Current(), back.Result().MASs[0], rng, 100)
	if err := back.Buffer([][]string{stable}); err != nil {
		t.Fatal(err)
	}
	if _, err := back.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if back.LastFlush != FlushModeIncremental {
		t.Fatalf("second post-restore flush: mode=%s, want incremental", back.LastFlush)
	}
}

// TestStateSectionsRoundTrip: Sections → (JSON per section) → Assemble
// must reproduce the state byte for byte — the contract the chunked
// snapshot format builds on.
func TestStateSectionsRoundTrip(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	base := appendStreamTable(rng, 50)
	cfg := testConfig(0.5)
	u, _, err := NewUpdater(ctx, cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	// Leave rows pending so the buffer section is non-empty.
	if err := u.Buffer([][]string{borderStableRow(u.Current(), u.Result().MASs[0], rng, 1)}); err != nil {
		t.Fatal(err)
	}
	st := u.State()
	sec := st.Sections()
	// Round-trip each section through JSON independently, the way the
	// store persists each section on its own.
	var meta UpdaterMeta
	roundTrip(t, sec.Meta, &meta)
	var cur, enc, buffer relation.Table
	roundTrip(t, sec.Current, &cur)
	roundTrip(t, sec.Encrypted, &enc)
	var origins []RowOrigin
	roundTrip(t, sec.Origins, &origins)
	roundTrip(t, sec.Buffer, &buffer)

	back, err := AssembleState(&StateSections{
		Meta: &meta, Current: &cur, Encrypted: &enc, Origins: origins, Buffer: &buffer,
	})
	if err != nil {
		t.Fatal(err)
	}
	origJSON, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	backJSON, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(origJSON) != string(backJSON) {
		t.Fatal("sectioned round-trip is not byte-identical to the monolithic state")
	}
	if _, err := RestoreUpdater(cfg, back); err != nil {
		t.Fatalf("assembled state does not restore: %v", err)
	}

	// Missing sections must fail assembly, not restore a partial dataset.
	for _, broken := range []*StateSections{
		nil,
		{Current: &cur, Encrypted: &enc},
		{Meta: &meta, Encrypted: &enc},
		{Meta: &meta, Current: &cur},
	} {
		if _, err := AssembleState(broken); err == nil {
			t.Fatalf("incomplete sections %+v accepted", broken)
		}
	}
}

func roundTrip(t *testing.T, in, out any) {
	t.Helper()
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreUpdaterRejectsCorruptState covers the structural validation.
func TestRestoreUpdaterRejectsCorruptState(t *testing.T) {
	ctx := context.Background()
	base := appendStreamTable(rand.New(rand.NewSource(3)), 30)
	cfg := testConfig(0.5)
	u, _, err := NewUpdater(ctx, cfg, base)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := []struct {
		name string
		mut  func(st *UpdaterState)
	}{
		{"nil result", func(st *UpdaterState) { st.Result = nil }},
		{"bad strategy", func(st *UpdaterState) { st.Strategy = "turbo" }},
		{"bad flush mode", func(st *UpdaterState) { st.LastFlush = "sideways" }},
		{"nil buffer", func(st *UpdaterState) { st.Buffer = nil }},
		{"ragged buffer", func(st *UpdaterState) {
			st.Buffer = relation.MustFromRows(relation.MustSchema("too", "few"), [][]string{{"too", "few"}})
		}},
		{"renamed buffer", func(st *UpdaterState) {
			names := st.Current.Schema().Names()
			names[0] += "'"
			st.Buffer = relation.NewTable(relation.MustSchema(names...))
		}},
		{"origin mismatch", func(st *UpdaterState) { st.Result.Origins = st.Result.Origins[:1] }},
		{"schema mismatch", func(st *UpdaterState) {
			enc := st.Result.Encrypted.JSON()
			for i := range enc.Rows {
				enc.Rows[i] = enc.Rows[i][:2]
			}
			st.Result.Encrypted = relation.MustFromRows(relation.MustSchema(enc.Columns[:2]...), enc.Rows)
		}},
	}
	for _, tc := range corrupt {
		t.Run(tc.name, func(t *testing.T) {
			st := u.State()
			tc.mut(st)
			if _, err := RestoreUpdater(cfg, st); err == nil {
				t.Fatal("corrupt state accepted")
			}
		})
	}
}

// TestStateIsolation: mutating the updater after State must not change
// the captured snapshot.
func TestStateIsolation(t *testing.T) {
	ctx := context.Background()
	base := appendStreamTable(rand.New(rand.NewSource(5)), 30)
	cfg := testConfig(0.5)
	u, _, err := NewUpdater(ctx, cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	st := u.State()
	rowsBefore := st.Current.NumRows()
	if err := u.Buffer([][]string{base.Row(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if st.Current.NumRows() != rowsBefore || st.Buffer.NumRows() != 0 {
		t.Fatal("State shares storage with the live updater")
	}
}

// TestDeferredResult: a state whose result is a loader restores without
// running it. LoadResult runs it and checks what it read as
// RestoreUpdater checks an eager state — a failed load leaves the result
// deferred for a retry — State carries a deferred result forward and
// Materialize turns it back into the eager state, and a flush replaces a
// deferred result without ever loading it.
func TestDeferredResult(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(13))
	cfg := testConfig(0.5)
	u, _, err := NewUpdater(ctx, cfg, appendStreamTable(rng, 40))
	if err != nil {
		t.Fatal(err)
	}
	eager := u.State()
	want, err := json.Marshal(eager)
	if err != nil {
		t.Fatal(err)
	}
	deferred := func(calls *int, fail func(int) bool) *UpdaterState {
		st := *eager
		res := *eager.Result
		res.Encrypted, res.Origins = nil, nil
		res.Load = func(context.Context) (*relation.Table, []RowOrigin, error) {
			*calls++
			if fail(*calls) {
				return eager.Result.Encrypted, eager.Result.Origins[1:], nil
			}
			return eager.Result.Encrypted, eager.Result.Origins, nil
		}
		st.Result = &res
		return &st
	}

	calls := 0
	back, err := RestoreUpdater(cfg, deferred(&calls, func(n int) bool { return n == 1 }))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 || back.Result().Encrypted != nil {
		t.Fatal("RestoreUpdater loaded a deferred result")
	}
	if _, err := back.LoadResult(ctx); err == nil {
		t.Fatal("a load with one origin short was accepted")
	}
	if back.Result().Encrypted != nil {
		t.Fatal("a failed load left a result behind")
	}
	m, err := back.State().Materialize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := json.Marshal(m); err != nil || string(got) != string(want) {
		t.Fatalf("materialized capture differs from the eager state (%v)", err)
	}
	res, err := back.LoadResult(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Encrypted.SortedRows(), u.Result().Encrypted.SortedRows()) {
		t.Fatal("loaded ciphertext differs")
	}
	if calls != 3 {
		t.Fatalf("loader ran %d times, want 3", calls)
	}
	if _, err := back.LoadResult(ctx); err != nil || calls != 3 {
		t.Fatalf("a loaded result was loaded again (%d calls, %v)", calls, err)
	}

	calls = 0
	lazy, err := RestoreUpdater(cfg, deferred(&calls, func(int) bool { return true }))
	if err != nil {
		t.Fatal(err)
	}
	if err := lazy.Buffer([][]string{borderStableRow(lazy.Current(), lazy.Result().MASs[0], rng, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := lazy.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if res, err := lazy.LoadResult(ctx); err != nil || calls != 0 || res.Encrypted.NumRows() != res.Report.EncryptedRows {
		t.Fatalf("after a flush: %d loads, %v", calls, err)
	}
}
