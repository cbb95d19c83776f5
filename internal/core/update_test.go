package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"f2/internal/fd"
	"f2/internal/relation"
)

// appendRows buffers rows and flushes once the buffer crosses the
// ShouldFlush threshold, returning the fresh Result if a flush happened.
func appendRows(u *Updater, rows [][]string) (*Result, error) {
	if err := u.Buffer(rows); err != nil {
		return nil, err
	}
	if u.ShouldFlush() {
		return u.Flush(context.Background())
	}
	return nil, nil
}

func TestUpdaterAppendAndFlush(t *testing.T) {
	tbl := figure1Table()
	cfg := testConfig(0.5)
	u, res, err := NewUpdater(context.Background(), cfg, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || u.Rebuilds != 1 {
		t.Fatalf("initial state: res=%v rebuilds=%d", res != nil, u.Rebuilds)
	}

	// Small append stays buffered (10% of 4 rows < 1 row... threshold
	// 0.4, so one row triggers; raise the fraction to test buffering).
	u.FlushFraction = 2.0
	if res, err := appendRows(u, [][]string{{"a2", "b2", "c9"}}); err != nil || res != nil {
		t.Fatalf("append flushed unexpectedly: %v, %v", res, err)
	}
	if u.Pending() != 1 || u.Rows() != 4 {
		t.Fatalf("pending=%d rows=%d", u.Pending(), u.Rows())
	}

	// Explicit flush covers the appended row; the default strategy serves
	// this append (no border change) incrementally.
	res2, err := u.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if u.Pending() != 0 || u.Rows() != 5 {
		t.Fatalf("after flush: pending=%d rows=%d", u.Pending(), u.Rows())
	}
	if u.Rebuilds != 1 || u.IncrementalFlushes != 1 || u.LastFlush != FlushModeIncremental {
		t.Fatalf("flush path: rebuilds=%d incr=%d last=%q", u.Rebuilds, u.IncrementalFlushes, u.LastFlush)
	}
	if res2.Report.OriginalRows != 5 {
		t.Fatalf("rebuilt over %d rows, want 5", res2.Report.OriginalRows)
	}

	// The rebuilt ciphertext still preserves FDs and decrypts exactly.
	want := fd.DiscoverWitnessed(u.current)
	got := fd.DiscoverWitnessed(res2.Encrypted)
	if !want.Equal(got) {
		t.Fatalf("FDs differ after update: %v vs %v", want, got)
	}
	dec, err := NewDecryptor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := dec.Recover(context.Background(), res2)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 5 || back.Cell(4, 2) != "c9" {
		t.Fatalf("recovered table wrong: %d rows, last C=%q", back.NumRows(), back.Cell(4, 2))
	}

	// The same append under the forced-rebuild strategy takes the rebuild
	// path and agrees on the witnessed FDs.
	u2, _, err := NewUpdater(context.Background(), cfg, figure1Table())
	if err != nil {
		t.Fatal(err)
	}
	u2.Strategy = UpdateRebuild
	if err := u2.Buffer([][]string{{"a2", "b2", "c9"}}); err != nil {
		t.Fatal(err)
	}
	res3, err := u2.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if u2.Rebuilds != 2 || u2.LastFlush != FlushModeRebuild {
		t.Fatalf("rebuild path: rebuilds=%d last=%q", u2.Rebuilds, u2.LastFlush)
	}
	if !fd.DiscoverWitnessed(res3.Encrypted).Equal(got) {
		t.Fatal("rebuild and incremental flushes disagree on witnessed FDs")
	}
}

// TestShouldFlushFloorOnEmptyTable is the regression for the degenerate
// ShouldFlush behavior: over an initially empty table the old threshold
// FlushFraction·0 = 0 was crossed by any single buffered row, forcing a
// full rebuild per append. The MinFlushRows floor keeps the buffer
// accumulating.
func TestShouldFlushFloorOnEmptyTable(t *testing.T) {
	empty := relation.NewTable(relation.MustSchema("A", "B", "C"))
	u, _, err := NewUpdater(context.Background(), testConfig(0.5), empty)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Buffer([][]string{{"a1", "b1", "c1"}}); err != nil {
		t.Fatal(err)
	}
	if u.ShouldFlush() {
		t.Fatal("single buffered row over an empty table forced a flush")
	}
	if err := u.Buffer([][]string{{"a2", "b2", "c2"}}); err != nil {
		t.Fatal(err)
	}
	if !u.ShouldFlush() {
		t.Fatalf("buffer of %d rows (= default floor) should flush", u.Pending())
	}
	if _, err := u.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if u.Rows() != 2 || u.Pending() != 0 {
		t.Fatalf("after flush: rows=%d pending=%d", u.Rows(), u.Pending())
	}

	// A raised floor is honored over a non-empty table too.
	u.MinFlushRows = 5
	u.FlushFraction = 0.1
	for i := 0; i < 4; i++ {
		if err := u.Buffer([][]string{{"x", "y", string(rune('0' + i))}}); err != nil {
			t.Fatal(err)
		}
	}
	if u.ShouldFlush() {
		t.Fatalf("%d buffered rows under floor 5 should not flush", u.Pending())
	}
	if err := u.Buffer([][]string{{"x", "y", "zz"}}); err != nil {
		t.Fatal(err)
	}
	if !u.ShouldFlush() {
		t.Fatal("floor reached but ShouldFlush is false")
	}
}

func TestUpdaterAutoFlushThreshold(t *testing.T) {
	tbl := figure1Table() // 4 rows
	u, _, err := NewUpdater(context.Background(), testConfig(0.5), tbl)
	if err != nil {
		t.Fatal(err)
	}
	u.FlushFraction = 0.5 // flush at ≥ 2 buffered rows
	if res, err := appendRows(u, [][]string{{"a5", "b5", "c5"}}); err != nil || res != nil {
		t.Fatalf("first append should buffer: %v %v", res, err)
	}
	res, err := appendRows(u, [][]string{{"a6", "b6", "c6"}})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("second append should trigger the rebuild")
	}
	if u.Rows() != 6 || u.Pending() != 0 {
		t.Fatalf("rows=%d pending=%d", u.Rows(), u.Pending())
	}
}

func TestUpdaterFlushEmptyIsNoop(t *testing.T) {
	u, res, err := NewUpdater(context.Background(), testConfig(0.5), figure1Table())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := u.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res || u.Rebuilds != 1 {
		t.Fatal("empty flush rebuilt")
	}
}

// TestFlushPlanMatchesSynchronousFlush drives the copy-on-write plan API
// directly — with an append landing in the fresh buffer generation while
// the plan is in flight — and checks it commits the exact ciphertext the
// synchronous Flush produces over the same rows.
func TestFlushPlanMatchesSynchronousFlush(t *testing.T) {
	ctx := context.Background()
	delta := [][]string{{"a2", "b2", "c9"}, {"a5", "b5", "c5"}}
	mk := func() *Updater {
		u, _, err := NewUpdater(ctx, testConfig(0.5), figure1Table())
		if err != nil {
			t.Fatal(err)
		}
		if err := u.Buffer(delta); err != nil {
			t.Fatal(err)
		}
		return u
	}

	uSync := mk()
	resSync, err := uSync.Flush(ctx)
	if err != nil {
		t.Fatal(err)
	}

	uPlan := mk()
	plan, err := uPlan.BeginFlush()
	if err != nil || plan == nil {
		t.Fatalf("BeginFlush: plan=%v err=%v", plan, err)
	}
	if plan.delta.NumRows() != len(delta) {
		t.Fatalf("plan pending=%d, want %d", plan.delta.NumRows(), len(delta))
	}
	// The delta moved into the plan; new appends buffer into the fresh
	// generation and a second flush cannot start.
	if err := uPlan.Buffer([][]string{{"a9", "b9", "c1"}}); err != nil {
		t.Fatal(err)
	}
	if uPlan.Pending() != 1 {
		t.Fatalf("fresh generation pending=%d, want 1", uPlan.Pending())
	}
	if _, err := uPlan.BeginFlush(); !errors.Is(err, ErrFlushInFlight) {
		t.Fatalf("second BeginFlush: %v, want ErrFlushInFlight", err)
	}
	if err := plan.Run(ctx); err != nil {
		t.Fatal(err)
	}
	resPlan, err := uPlan.CompleteFlush(plan)
	if err != nil {
		t.Fatal(err)
	}

	if uSync.LastFlush != uPlan.LastFlush {
		t.Fatalf("modes differ: sync=%q plan=%q", uSync.LastFlush, uPlan.LastFlush)
	}
	if !reflect.DeepEqual(tableRows(resSync.Encrypted), tableRows(resPlan.Encrypted)) {
		t.Fatal("plan flush and synchronous flush disagree on ciphertext")
	}
	if uPlan.Rows() != 6 || uPlan.Pending() != 1 {
		t.Fatalf("after complete: rows=%d pending=%d", uPlan.Rows(), uPlan.Pending())
	}
}

// TestAbortFlushRestoresPendingOrder checks the failure path: an aborted
// plan returns its delta to the front of the buffer, ahead of rows
// appended while it was in flight, and a retry flushes everything.
func TestAbortFlushRestoresPendingOrder(t *testing.T) {
	ctx := context.Background()
	u, _, err := NewUpdater(ctx, testConfig(0.5), figure1Table())
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Buffer([][]string{{"a2", "b2", "c8"}, {"a5", "b5", "c5"}}); err != nil {
		t.Fatal(err)
	}
	plan, err := u.BeginFlush()
	if err != nil || plan == nil {
		t.Fatalf("BeginFlush: plan=%v err=%v", plan, err)
	}
	if err := u.Buffer([][]string{{"a9", "b9", "c1"}}); err != nil {
		t.Fatal(err)
	}
	u.AbortFlush(plan)
	if u.Pending() != 3 {
		t.Fatalf("pending=%d after abort, want 3", u.Pending())
	}
	want := [][]string{{"a2", "b2", "c8"}, {"a5", "b5", "c5"}, {"a9", "b9", "c1"}}
	if !reflect.DeepEqual(tableRows(u.buffer), want) {
		t.Fatalf("buffer order after abort: %v, want %v", tableRows(u.buffer), want)
	}
	if _, err := u.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if u.Rows() != 7 || u.Pending() != 0 {
		t.Fatalf("after retry flush: rows=%d pending=%d", u.Rows(), u.Pending())
	}
}

func tableRows(tbl *relation.Table) [][]string {
	out := make([][]string, 0, tbl.NumRows())
	for i := 0; i < tbl.NumRows(); i++ {
		out = append(out, tbl.Row(i))
	}
	return out
}

func TestUpdaterRejectsBadRows(t *testing.T) {
	u, _, err := NewUpdater(context.Background(), testConfig(0.5), figure1Table())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendRows(u, [][]string{{"too", "short"}}); err == nil {
		t.Fatal("short row accepted")
	}
}
