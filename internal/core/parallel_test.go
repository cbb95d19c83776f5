package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"f2/internal/relation"
	"f2/internal/workload"
)

// parallelWidths are the engine widths the equivalence properties range
// over: 1 runs every stage inline, 2 and 8 fan the stages that mint
// nothing out across fewer and more workers than typical core counts.
var parallelWidths = []int{1, 2, 8}

// requireResultsIdentical asserts two encryption results are byte-for-byte
// interchangeable: same ciphertext cells in the same order, same
// provenance, same MASs, and the same report counters (timings excluded).
func requireResultsIdentical(t *testing.T, label string, base, got *Result) {
	t.Helper()
	bt, gt := base.Encrypted, got.Encrypted
	if bt.NumRows() != gt.NumRows() || bt.NumAttrs() != gt.NumAttrs() {
		t.Fatalf("%s: table shape %dx%d vs %dx%d", label, bt.NumRows(), bt.NumAttrs(), gt.NumRows(), gt.NumAttrs())
	}
	for i := 0; i < bt.NumRows(); i++ {
		for a := 0; a < bt.NumAttrs(); a++ {
			if bt.Cell(i, a) != gt.Cell(i, a) {
				t.Fatalf("%s: cell (%d,%d) differs: %q vs %q", label, i, a, bt.Cell(i, a), gt.Cell(i, a))
			}
		}
	}
	if len(base.Origins) != len(got.Origins) {
		t.Fatalf("%s: %d vs %d origins", label, len(base.Origins), len(got.Origins))
	}
	for i := range base.Origins {
		if base.Origins[i] != got.Origins[i] {
			t.Fatalf("%s: origin %d differs: %+v vs %+v", label, i, base.Origins[i], got.Origins[i])
		}
	}
	if len(base.MASs) != len(got.MASs) {
		t.Fatalf("%s: %d vs %d MASs", label, len(base.MASs), len(got.MASs))
	}
	for i := range base.MASs {
		if base.MASs[i] != got.MASs[i] {
			t.Fatalf("%s: MAS %d differs", label, i)
		}
	}
	br, gr := base.Report, got.Report
	type counters struct {
		origRows, encRows, group, scale, conflict, conflictT, fpRows, fpNodes int
	}
	bc := counters{br.OriginalRows, br.EncryptedRows, br.GroupRows, br.ScaleRows, br.ConflictRows, br.ConflictTuples, br.FPRows, br.FPNodes}
	gc := counters{gr.OriginalRows, gr.EncryptedRows, gr.GroupRows, gr.ScaleRows, gr.ConflictRows, gr.ConflictTuples, gr.FPRows, gr.FPNodes}
	if bc != gc {
		t.Fatalf("%s: report counters differ: %+v vs %+v", label, bc, gc)
	}
}

// TestParallelEncryptEquivalence is the engine's core property: the full
// pipeline emits one specific ciphertext table for one (key, table) pair,
// and Parallelism only changes how fast it appears. Frequency flatness is
// checked once per dataset — it then transfers to every width by the
// byte-equality just established.
func TestParallelEncryptEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct {
		name  string
		tbl   *relation.Table
		alpha float64
	}{
		{"stream", appendStreamTable(rng, 300), 1.0 / 3},
		{"synthetic", mustWorkload(t, workload.NameSynthetic, 2000), 0.25},
		{"orders", mustWorkload(t, workload.NameOrders, 1200), 0.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var base *Result
			for _, par := range parallelWidths {
				cfg := testConfig(tc.alpha)
				cfg.Parallelism = par
				res := encryptTable(t, tc.tbl, cfg)
				if par == 1 {
					base = res
					checkFrequencyFlatness(t, res.Encrypted, cfg.K(), tc.name)
					continue
				}
				requireResultsIdentical(t, fmt.Sprintf("%s parallelism=%d", tc.name, par), base, res)
			}

			// Decryption is parallelism-independent too, and the parallel
			// decryptor must invert the parallel encryptor exactly.
			for _, par := range parallelWidths {
				cfg := testConfig(tc.alpha)
				cfg.Parallelism = par
				dec, err := NewDecryptor(cfg)
				if err != nil {
					t.Fatal(err)
				}
				back, err := dec.Recover(context.Background(), base)
				if err != nil {
					t.Fatalf("parallelism=%d: Recover: %v", par, err)
				}
				if back.NumRows() != tc.tbl.NumRows() {
					t.Fatalf("parallelism=%d: recovered %d rows, want %d", par, back.NumRows(), tc.tbl.NumRows())
				}
				for i := 0; i < back.NumRows(); i++ {
					for a := 0; a < back.NumAttrs(); a++ {
						if back.Cell(i, a) != tc.tbl.Cell(i, a) {
							t.Fatalf("parallelism=%d: recovered cell (%d,%d) differs", par, i, a)
						}
					}
				}
			}
		})
	}
}

// TestParallelIncrementalEquivalence drives one border-stable append
// stream through updaters at every width in lockstep: after every flush
// all ciphertexts must agree cell-for-cell, and the stream must actually
// exercise the incremental engine (not just rebuilds).
func TestParallelIncrementalEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := appendStreamTable(rng, 250)

	upds := make([]*Updater, len(parallelWidths))
	var firstRes *Result
	for i, par := range parallelWidths {
		cfg := testConfig(1.0 / 3)
		cfg.Parallelism = par
		upd, res, err := NewUpdater(context.Background(), cfg, base)
		if err != nil {
			t.Fatal(err)
		}
		upds[i] = upd
		if i == 0 {
			firstRes = res
		} else {
			requireResultsIdentical(t, fmt.Sprintf("initial parallelism=%d", par), firstRes, res)
		}
	}
	if len(firstRes.MASs) == 0 {
		t.Fatal("stream base table has no MASs")
	}
	mas := firstRes.MASs[0]

	serial := 0
	incFlushes := 0
	for round := 0; round < 8; round++ {
		var batch [][]string
		for b := 0; b < 4; b++ {
			batch = append(batch, borderStableRow(upds[0].Current(), mas, rng, serial))
			serial++
		}
		var baseRes *Result
		for i, upd := range upds {
			if err := upd.Buffer(batch); err != nil {
				t.Fatal(err)
			}
			res, err := upd.Flush(context.Background())
			if err != nil {
				t.Fatalf("round %d parallelism=%d: %v", round, parallelWidths[i], err)
			}
			if i == 0 {
				baseRes = res
				if upd.LastFlush == FlushModeIncremental {
					incFlushes++
				}
				continue
			}
			if upds[0].LastFlush != upd.LastFlush {
				t.Fatalf("round %d: flush mode diverged: %s vs %s", round, upds[0].LastFlush, upd.LastFlush)
			}
			requireResultsIdentical(t, fmt.Sprintf("round %d parallelism=%d", round, parallelWidths[i]), baseRes, res)
		}
	}
	if incFlushes == 0 {
		t.Fatal("append stream never took the incremental path; the property did not cover it")
	}
	finalCfg := testConfig(1.0 / 3)
	checkFrequencyFlatness(t, upds[0].Result().Encrypted, finalCfg.K(), "final")
}

// TestParallelEncryptCancellation covers the failure edges of the
// engine at every width: a pre-cancelled context refuses immediately, a
// cancellation racing a running encrypt surfaces as ctx.Err (not a
// panic, deadlock, or partial result), and a cancelled flush leaves the
// updater transactional even though emission writes straight into the
// shared clone of the previous table.
func TestParallelEncryptCancellation(t *testing.T) {
	tbl := mustWorkload(t, workload.NameSynthetic, 4000)
	for _, par := range parallelWidths {
		cfg := testConfig(0.25)
		cfg.Parallelism = par
		enc, err := NewEncryptor(cfg)
		if err != nil {
			t.Fatal(err)
		}

		pre, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := enc.Encrypt(pre, tbl); !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism=%d: pre-cancelled Encrypt returned %v", par, err)
		}

		mid, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		res, err := enc.Encrypt(mid, tbl)
		cancel()
		if err == nil {
			// The machine outran the timer; that's a pass for the race,
			// but the result must then be complete and well-formed.
			if res.Encrypted.NumRows() != len(res.Origins) {
				t.Fatalf("parallelism=%d: uncancelled result inconsistent", par)
			}
		} else if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism=%d: mid-encrypt cancel returned %v, want context.Canceled", par, err)
		}

		// Transactional cancelled flush.
		upd, _, err := NewUpdater(context.Background(), cfg, tbl)
		if err != nil {
			t.Fatal(err)
		}
		rows := [][]string{tbl.Row(0), tbl.Row(1), tbl.Row(2)}
		if err := upd.Buffer(rows); err != nil {
			t.Fatal(err)
		}
		before := upd.Result()
		if _, err := upd.Flush(pre); !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism=%d: cancelled Flush returned %v", par, err)
		}
		if upd.Result() != before || upd.Pending() != len(rows) {
			t.Fatalf("parallelism=%d: cancelled flush mutated the updater", par)
		}
		if _, err := upd.Flush(context.Background()); err != nil {
			t.Fatalf("parallelism=%d: retry flush after cancel: %v", par, err)
		}
		if upd.Pending() != 0 {
			t.Fatalf("parallelism=%d: retry flush left %d pending", par, upd.Pending())
		}

		// Mid-flush cancellation on the incremental path, which emits
		// straight into a shared clone of the previous table: trip the
		// context at its 1st, 2nd, 3rd, … check until the flush outruns
		// it, so every check point fails once, those between emission
		// passes included. Every aborted flush must leave the updater as
		// it was, and the flush that lands must equal one never cancelled.
		stream := appendStreamTable(rand.New(rand.NewSource(5)), 250)
		scfg := testConfig(1.0 / 3)
		scfg.Parallelism = par
		var twins [2]*Updater
		var first *Result
		for i := range twins {
			if twins[i], first, err = NewUpdater(context.Background(), scfg, stream); err != nil {
				t.Fatal(err)
			}
		}
		brng := rand.New(rand.NewSource(6))
		batch := [][]string{borderStableRow(stream, first.MASs[0], brng, 0), borderStableRow(stream, first.MASs[0], brng, 1)}
		for _, u := range twins {
			if err := u.Buffer(batch); err != nil {
				t.Fatal(err)
			}
		}
		want, err := twins[1].Flush(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		upd = twins[0]
		before = upd.Result()
		wantRows, wantOrigins := before.Encrypted.NumRows(), len(before.Origins)
		for trip := 1; ; trip++ {
			_, err := upd.Flush(&trippingCtx{Context: context.Background(), left: trip})
			if err == nil {
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("parallelism=%d trip=%d: Flush returned %v", par, trip, err)
			}
			if upd.Result() != before || upd.Pending() != len(batch) ||
				before.Encrypted.NumRows() != wantRows || len(before.Origins) != wantOrigins {
				t.Fatalf("parallelism=%d trip=%d: cancelled flush mutated the updater", par, trip)
			}
		}
		if upd.LastFlush != FlushModeIncremental {
			t.Fatalf("parallelism=%d: stream flush took %s, want the incremental path", par, upd.LastFlush)
		}
		requireResultsIdentical(t, fmt.Sprintf("parallelism=%d flush after cancels", par), want, upd.Result())
	}
}

// trippingCtx reports context.Canceled from the left-th Err call on.
type trippingCtx struct {
	context.Context
	left int
}

func (c *trippingCtx) Err() error {
	if c.left--; c.left <= 0 {
		return context.Canceled
	}
	return nil
}

func mustWorkload(t *testing.T, name string, n int) *relation.Table {
	t.Helper()
	tbl, err := workload.Generate(name, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}
