package perf

import (
	"context"
	"fmt"
	"sort"
	"time"

	"f2/internal/core"
	"f2/internal/obs"
	"f2/internal/workload"
)

// TraceOverheadResult reports the in-process A/B comparison between the
// traced and untraced encrypt path. Cross-machine (or even cross-run)
// baseline diffs cannot resolve a 2% budget — scheduler noise alone is
// bigger — so the check interleaves traced and untraced ops in the SAME
// process and compares medians.
type TraceOverheadResult struct {
	Rounds      int     `json:"rounds"`
	Rows        int     `json:"rows"`
	BaseMs      float64 `json:"baseMs"`      // median untraced encrypt
	TracedMs    float64 `json:"tracedMs"`    // median traced encrypt
	OverheadPct float64 `json:"overheadPct"` // (traced-base)/base × 100
}

// Within reports whether the measured overhead is within the given
// percentage budget. A traced median faster than the untraced one
// (negative overhead, pure noise) passes trivially.
func (r TraceOverheadResult) Within(budgetPct float64) bool {
	return r.OverheadPct <= budgetPct
}

func (r TraceOverheadResult) String() string {
	return fmt.Sprintf("trace overhead: base=%.2fms traced=%.2fms overhead=%+.2f%% (%d rounds, %d rows)",
		r.BaseMs, r.TracedMs, r.OverheadPct, r.Rounds, r.Rows)
}

// TraceOverhead measures the cost of span instrumentation on the full
// encrypt pipeline: each round runs one untraced op (the production
// no-trace path: every obs.Start is a nil-check) and one op with a live
// trace attached to the context. rounds < 3 is raised to 3 and made odd
// for unambiguous medians.
func TraceOverhead(ctx context.Context, sc Scale, rounds int) (*TraceOverheadResult, error) {
	ab, err := interleavedAB(ctx, sc, rounds, func(ctx context.Context, op func(context.Context) error) (time.Duration, error) {
		opCtx, tr := obs.NewTrace(ctx, "", "overhead")
		t0 := time.Now()
		err := op(opCtx)
		d := time.Since(t0)
		tr.Finish()
		return d, err
	})
	if err != nil {
		return nil, err
	}
	return &TraceOverheadResult{
		Rounds:      ab.rounds,
		Rows:        ab.rows,
		BaseMs:      ab.baseMs,
		TracedMs:    ab.variantMs,
		OverheadPct: ab.overheadPct(),
	}, nil
}

// abResult is one interleaved A/B comparison: the median plain op and
// the median op run through the variant.
type abResult struct {
	rounds, rows      int
	baseMs, variantMs float64
}

// overheadPct is (variant-base)/base × 100, 0 without a base.
func (r abResult) overheadPct() float64 {
	if r.baseMs <= 0 {
		return 0
	}
	return (r.variantMs - r.baseMs) / r.baseMs * 100
}

// timedOp runs op one way and returns how long op took.
type timedOp func(ctx context.Context, op func(context.Context) error) (time.Duration, error)

// interleavedAB compares the plain encrypt pipeline with the same
// pipeline run through variant, in one process: cross-run baselines
// cannot resolve a 2% budget — scheduler noise alone is bigger. variant
// runs op its way and returns the op's duration. Both paths run once
// first, so first-touch costs (page faults, lazily built caches, a
// profiler's first start) land outside the measured rounds. Each round
// runs one plain op and one variant op, alternating which goes first so
// clock drift and thermal ramps cancel instead of biasing one side.
// rounds < 3 is raised to 3 and made odd for unambiguous medians.
func interleavedAB(ctx context.Context, sc Scale, rounds int, variant timedOp) (abResult, error) {
	if rounds < 3 {
		rounds = 3
	}
	if rounds%2 == 0 {
		rounds++
	}
	tbl, err := Dataset(workload.NameSynthetic, sc.Rows(encryptRows), sc.Seed)
	if err != nil {
		return abResult{}, err
	}
	cfg := Config(0.25)
	cfg.Parallelism = sc.Parallelism
	encryptOnce := func(ctx context.Context) error {
		enc, err := core.NewEncryptor(cfg)
		if err != nil {
			return err
		}
		_, err = enc.Encrypt(ctx, tbl)
		return err
	}
	plain := func(ctx context.Context, op func(context.Context) error) (time.Duration, error) {
		t0 := time.Now()
		err := op(ctx)
		return time.Since(t0), err
	}
	runs := [2]timedOp{plain, variant}
	for _, run := range runs {
		if _, err := run(ctx, encryptOnce); err != nil {
			return abResult{}, err
		}
	}
	var samples [2][]float64 // plain, variant
	for i := 0; i < rounds; i++ {
		if err := ctx.Err(); err != nil {
			return abResult{}, err
		}
		for j := 0; j < 2; j++ {
			side := (i + j) % 2
			d, err := runs[side](ctx, encryptOnce)
			if err != nil {
				return abResult{}, err
			}
			samples[side] = append(samples[side], ms(d))
		}
	}
	return abResult{rounds: rounds, rows: tbl.NumRows(), baseMs: median(samples[0]), variantMs: median(samples[1])}, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
