package perf

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"time"

	"f2/internal/obs"
)

// ProfilerOverheadResult reports the A/B comparison between the plain
// encrypt path and the same path running inside an open CPU-profile
// window. Like TraceOverhead, both sides interleave in one process —
// cross-run baselines cannot resolve a 2% budget. The continuous
// profiler only costs anything while a window is open, so the figure a
// deployment pays is the in-window overhead scaled by the duty cycle
// (CPUWindow/Interval); the gate applies to that amortized number.
type ProfilerOverheadResult struct {
	Rounds       int     `json:"rounds"`
	Rows         int     `json:"rows"`
	BaseMs       float64 `json:"baseMs"`       // median unprofiled encrypt
	ProfiledMs   float64 `json:"profiledMs"`   // median encrypt inside a CPU window
	WindowPct    float64 `json:"windowPct"`    // (profiled-base)/base × 100
	DutyCyclePct float64 `json:"dutyCyclePct"` // CPUWindow/Interval × 100
	AmortizedPct float64 `json:"amortizedPct"` // WindowPct × duty cycle
}

// Within reports whether the amortized overhead fits the budget. A
// profiled median faster than baseline (negative overhead, pure noise)
// passes trivially.
func (r ProfilerOverheadResult) Within(budgetPct float64) bool {
	return r.AmortizedPct <= budgetPct
}

func (r ProfilerOverheadResult) String() string {
	return fmt.Sprintf("profiler overhead: base=%.2fms profiled=%.2fms window=%+.2f%% duty=%.2f%% amortized=%+.2f%% (%d rounds, %d rows)",
		r.BaseMs, r.ProfiledMs, r.WindowPct, r.DutyCyclePct, r.AmortizedPct, r.Rounds, r.Rows)
}

// DefaultProfilerDutyCycle is the continuous profiler's default duty
// cycle: the fraction of wall time a CPU window is open.
func DefaultProfilerDutyCycle() float64 {
	return float64(obs.DefaultProfileCPUWindow) / float64(obs.DefaultProfileInterval)
}

// ProfilerOverhead measures what the continuous profiler's CPU windows
// cost the encrypt pipeline: each round runs one unprofiled op and one
// op under pprof.StartCPUProfile (samples discarded — the cost is the
// sampling, not the file I/O). dutyCycle is the CPUWindow/Interval
// fraction to amortize by; ≤0 takes the profiler defaults. rounds < 3
// is raised to 3 and made odd for unambiguous medians.
func ProfilerOverhead(ctx context.Context, sc Scale, rounds int, dutyCycle float64) (*ProfilerOverheadResult, error) {
	if dutyCycle <= 0 {
		dutyCycle = DefaultProfilerDutyCycle()
	}
	ab, err := interleavedAB(ctx, sc, rounds, func(ctx context.Context, op func(context.Context) error) (time.Duration, error) {
		if err := pprof.StartCPUProfile(io.Discard); err != nil {
			return 0, fmt.Errorf("perf: starting cpu window: %w", err)
		}
		t0 := time.Now()
		err := op(ctx)
		d := time.Since(t0)
		pprof.StopCPUProfile()
		return d, err
	})
	if err != nil {
		return nil, err
	}
	window := ab.overheadPct()
	return &ProfilerOverheadResult{
		Rounds:       ab.rounds,
		Rows:         ab.rows,
		BaseMs:       ab.baseMs,
		ProfiledMs:   ab.variantMs,
		WindowPct:    window,
		DutyCyclePct: dutyCycle * 100,
		AmortizedPct: window * dutyCycle,
	}, nil
}
