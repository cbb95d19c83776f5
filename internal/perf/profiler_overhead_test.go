package perf

import (
	"context"
	"testing"
)

// TestProfilerOverheadMeasures runs the interleaved A/B harness at toy
// scale through both of its variants, the profiler and the tracer: the
// point is that both sides execute, the medians are real, and the
// derived percentages follow from them — not that the toy numbers clear
// any particular budget.
func TestProfilerOverheadMeasures(t *testing.T) {
	res, err := ProfilerOverhead(context.Background(), Scale{SizeFactor: 0.05, Seed: 1}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 || res.Rows == 0 {
		t.Fatalf("result shape: %+v", res)
	}
	if res.BaseMs <= 0 || res.ProfiledMs <= 0 {
		t.Fatalf("medians not measured: %+v", res)
	}
	wantDuty := DefaultProfilerDutyCycle() * 100
	if res.DutyCyclePct != wantDuty {
		t.Fatalf("duty cycle = %v, want default %v", res.DutyCyclePct, wantDuty)
	}
	if got := res.WindowPct * DefaultProfilerDutyCycle(); got != res.AmortizedPct {
		t.Fatalf("amortized %v != window %v × duty", res.AmortizedPct, res.WindowPct)
	}
	// An explicit duty cycle overrides the default.
	res2, err := ProfilerOverhead(context.Background(), Scale{SizeFactor: 0.05, Seed: 1}, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res2.DutyCyclePct != 50 {
		t.Fatalf("duty cycle = %v, want 50", res2.DutyCyclePct)
	}

	// The trace variant runs through the same harness.
	tr, err := TraceOverhead(context.Background(), Scale{SizeFactor: 0.05, Seed: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rounds != 3 || tr.Rows != res.Rows || tr.BaseMs <= 0 || tr.TracedMs <= 0 {
		t.Fatalf("trace overhead result: %+v", tr)
	}
	if want := (tr.TracedMs - tr.BaseMs) / tr.BaseMs * 100; tr.OverheadPct != want {
		t.Fatalf("overhead %v != (traced-base)/base %v", tr.OverheadPct, want)
	}
}
