package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"f2/internal/obs"
	"f2/internal/workload"
)

// TestTracedEncryptEquivalence: attaching a trace must be purely
// observational — the ciphertext, origins, MASs, and report counters are
// byte-identical with and without a trace in the context, at width 1
// and at full fan-out (where the parallel stages record from many
// goroutines at once; the -race CI job covers that path).
func TestTracedEncryptEquivalence(t *testing.T) {
	tbl := mustWorkload(t, workload.NameSynthetic, 2000)
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			cfg := testConfig(0.25)
			cfg.Parallelism = par
			base := encryptTable(t, tbl, cfg)

			enc, err := NewEncryptor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, tr := obs.NewTrace(context.Background(), "", "test")
			traced, err := enc.Encrypt(ctx, tbl)
			if err != nil {
				t.Fatalf("traced Encrypt: %v", err)
			}
			tr.Finish()

			requireResultsIdentical(t, fmt.Sprintf("traced parallelism=%d", par), base, traced)

			// The trace must actually have covered the pipeline: all four
			// steps present with real (non-negative, summed > 0) timings.
			totals := map[string]time.Duration{}
			tr.Snapshot().EachSpan(func(name string, d time.Duration) {
				if d < 0 {
					t.Errorf("span %q has negative duration %v", name, d)
				}
				totals[name] += d
			})
			for _, stage := range []string{
				"encrypt.step1.mas", "encrypt.step2.group",
				"encrypt.step3.emit", "encrypt.step4.fp",
			} {
				if _, ok := totals[stage]; !ok {
					t.Errorf("trace missing stage %q (got %v)", stage, totals)
				}
			}
			// One emit.shard span per non-empty emission pass, in order,
			// each carrying the pass's unit count.
			var want []int
			for _, n := range []int{
				tbl.NumRows(),
				len(scaleCopyJobs(traced.state.plans)),
				len(fakeECJobs(traced.state.plans)),
				traced.Report.FPPatterns,
			} {
				if n > 0 {
					want = append(want, n)
				}
			}
			got := emitShardUnits(tr.Snapshot().Root)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("emit.shard units = %v, want one span per non-empty pass %v", got, want)
			}
			var sum time.Duration
			for _, d := range totals {
				sum += d
			}
			if sum <= 0 {
				t.Errorf("trace stage durations sum to %v; want > 0", sum)
			}
		})
	}
}

// emitShardUnits returns the units attribute of every emit.shard span
// below s, in tree order.
func emitShardUnits(s obs.SpanSnapshot) []int {
	var out []int
	if s.Name == "emit.shard" {
		u, _ := s.Attrs["units"].(int)
		out = append(out, u)
	}
	for _, c := range s.Children {
		out = append(out, emitShardUnits(c)...)
	}
	return out
}

// TestTracedFlushEquivalence: the incremental engine under a trace emits
// the same ciphertext as untraced, and the flush trace names the
// incremental phases.
func TestTracedFlushEquivalence(t *testing.T) {
	build := func(ctx context.Context) (*Updater, error) {
		base := mustWorkload(t, workload.NameSynthetic, 600)
		u, _, err := NewUpdater(ctx, testConfig(0.25), base)
		if err != nil {
			return nil, err
		}
		rows := mustWorkload(t, workload.NameSynthetic, 650)
		var batch [][]string
		for i := 600; i < 650; i++ {
			row := make([]string, rows.NumAttrs())
			for a := range row {
				row[a] = rows.Cell(i, a)
			}
			batch = append(batch, row)
		}
		if err := u.Buffer(batch); err != nil {
			return nil, err
		}
		return u, nil
	}

	plain, err := build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, tr := obs.NewTrace(context.Background(), "", "flush")
	traced, err := build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := traced.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	requireResultsIdentical(t, "traced flush", plain.Result(), traced.Result())
	if plain.LastFlush != traced.LastFlush {
		t.Fatalf("flush mode diverged under trace: %q vs %q", plain.LastFlush, traced.LastFlush)
	}

	seen := map[string]bool{}
	tr.Snapshot().EachSpan(func(name string, d time.Duration) { seen[name] = true })
	if !seen["update.flush"] {
		t.Fatalf("flush trace missing update.flush span; saw %v", seen)
	}
	// Whichever mode ran, its phases must have been traced: incremental
	// phases for an incremental flush, the full encrypt steps otherwise.
	if traced.LastFlush == FlushModeIncremental {
		for _, stage := range []string{"incremental.border-maintain", "incremental.extend"} {
			if !seen[stage] {
				t.Errorf("incremental flush trace missing %q; saw %v", stage, seen)
			}
		}
		// Emission passes of the flush: the appended suffix, then the
		// top-ups.
		flush := findSpan(&tr.Snapshot().Root, "update.flush")
		want := []int{50}
		if n, _ := findSpan(flush, "incremental.top-up").Attrs["topUpJobs"].(int); n > 0 {
			want = append(want, n)
		}
		if got := emitShardUnits(*flush); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("incremental emit.shard units = %v, want %v", got, want)
		}
	} else if !seen["encrypt.step1.mas"] {
		t.Errorf("rebuild flush trace missing encrypt steps; saw %v", seen)
	}
}
