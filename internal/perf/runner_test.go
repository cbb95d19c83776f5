package perf

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"f2/internal/obs"
)

var errTest = errors.New("synthetic op failure")

// countingWorkload returns a workload whose op bumps the counter, plus
// the counter for assertions.
func countingWorkload(name string, opDelay time.Duration, maxConc int) (Workload, *atomic.Int64) {
	var calls atomic.Int64
	w := Workload{
		Name:           name,
		Desc:           "test workload",
		MaxConcurrency: maxConc,
		Setup: func(ctx context.Context, sc Scale) (*Instance, error) {
			return &Instance{
				RowsPerOp: 10,
				Op: func(ctx context.Context) error {
					calls.Add(1)
					if opDelay > 0 {
						time.Sleep(opDelay)
					}
					return nil
				},
			}, nil
		},
	}
	return w, &calls
}

func TestRunnerMaxOpsWithConcurrency(t *testing.T) {
	w, calls := countingWorkload("test/count", 100*time.Microsecond, 0)
	res, err := Run(context.Background(), w, Scale{}, RunConfig{
		Concurrency: 4,
		WarmupOps:   2,
		MaxOps:      50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 50 {
		t.Errorf("ops = %d, want exactly 50 (MaxOps)", res.Ops)
	}
	if got := calls.Load(); got != 52 { // 2 warmup + 50 measured
		t.Errorf("op calls = %d, want 52", got)
	}
	if res.Concurrency != 4 {
		t.Errorf("concurrency = %d, want 4", res.Concurrency)
	}
	if res.RowsPerSec <= 0 || res.OpsPerSec <= 0 {
		t.Errorf("throughput not derived: ops/s=%v rows/s=%v", res.OpsPerSec, res.RowsPerSec)
	}
	if res.P50Ms <= 0 || res.P99Ms < res.P50Ms || res.MaxMs < res.P99Ms {
		t.Errorf("quantiles inconsistent: p50=%v p99=%v max=%v", res.P50Ms, res.P99Ms, res.MaxMs)
	}
}

func TestRunnerConcurrencyClamps(t *testing.T) {
	w, _ := countingWorkload("test/clamp", 0, 2)
	res, err := Run(context.Background(), w, Scale{}, RunConfig{Concurrency: 16, MaxOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Concurrency != 2 {
		t.Errorf("concurrency = %d, want MaxConcurrency clamp 2", res.Concurrency)
	}

	w2, _ := countingWorkload("test/default-conc", 0, 0)
	w2.DefaultConcurrency = 3
	res, err = Run(context.Background(), w2, Scale{}, RunConfig{MaxOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Concurrency != 3 {
		t.Errorf("concurrency = %d, want workload default 3", res.Concurrency)
	}
}

func TestRunnerOpsCap(t *testing.T) {
	w, _ := countingWorkload("test/cap", 0, 0)
	w.OpsCap = 5
	res, err := Run(context.Background(), w, Scale{}, RunConfig{Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 5 {
		t.Errorf("ops = %d, want OpsCap 5 despite a 1-minute duration", res.Ops)
	}

	// An OpsCap-bounded workload is a valid run even with an otherwise
	// empty RunConfig: the cap IS the bound.
	res, err = Run(context.Background(), w, Scale{}, RunConfig{})
	if err != nil {
		t.Fatalf("OpsCap-only run rejected: %v", err)
	}
	if res.Ops != 5 {
		t.Errorf("ops = %d, want OpsCap 5 with an empty run config", res.Ops)
	}
}

// TestRunnerMidRunCancellation runs concurrency > 1 and cancels mid-run:
// the runner must return promptly with the partial result and ctx.Err().
// The -race CI matrix runs this at GOMAXPROCS 2 and 8.
func TestRunnerMidRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	w := Workload{
		Name: "test/cancel",
		Setup: func(ctx context.Context, sc Scale) (*Instance, error) {
			return &Instance{
				Op: func(ctx context.Context) error {
					if started.Add(1) == 8 {
						cancel() // cancel from inside the measured window
					}
					select {
					case <-ctx.Done():
						return ctx.Err()
					case <-time.After(2 * time.Millisecond):
						return nil
					}
				},
			}, nil
		},
	}
	start := time.Now()
	res, err := Run(ctx, w, Scale{}, RunConfig{
		Concurrency: 4,
		Duration:    30 * time.Second,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancellation must still return the partial result")
	}
	if !res.Cancelled {
		t.Error("result not marked Cancelled")
	}
	if res.Ops <= 0 {
		t.Errorf("ops = %d, want the pre-cancel ops recorded", res.Ops)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("runner took %v to honor cancellation", elapsed)
	}
}

// TestRunnerSetupRespectsCancelledContext: a cancelled context before
// the run starts must not execute ops.
func TestRunnerPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w, calls := countingWorkload("test/precancel", 0, 0)
	_, err := Run(ctx, w, Scale{}, RunConfig{WarmupOps: 1, MaxOps: 10})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Errorf("%d ops ran under a pre-cancelled context", calls.Load())
	}
}

func TestRunnerAllOpsFailed(t *testing.T) {
	w := Workload{
		Name: "test/fail",
		Setup: func(ctx context.Context, sc Scale) (*Instance, error) {
			return &Instance{Op: func(ctx context.Context) error { return errTest }}, nil
		},
	}
	res, err := Run(context.Background(), w, Scale{}, RunConfig{MaxOps: 3})
	if err == nil || !errors.Is(err, errTest) {
		t.Fatalf("err = %v, want wrapped %v", err, errTest)
	}
	if res == nil || res.Errors != 3 {
		t.Fatalf("res = %+v, want 3 recorded errors", res)
	}
}

func TestRunnerNeedsABound(t *testing.T) {
	w, _ := countingWorkload("test/unbounded", 0, 0)
	if _, err := Run(context.Background(), w, Scale{}, RunConfig{}); err == nil {
		t.Fatal("an unbounded run config must be rejected")
	}
}

// TestRunnerCleanupRuns checks Cleanup fires even when ops fail.
func TestRunnerCleanupRuns(t *testing.T) {
	var cleaned atomic.Bool
	w := Workload{
		Name: "test/cleanup",
		Setup: func(ctx context.Context, sc Scale) (*Instance, error) {
			return &Instance{
				Op:      func(ctx context.Context) error { return errTest },
				Cleanup: func() error { cleaned.Store(true); return nil },
			}, nil
		},
	}
	Run(context.Background(), w, Scale{}, RunConfig{MaxOps: 1}) //nolint:errcheck
	if !cleaned.Load() {
		t.Error("cleanup did not run")
	}
}

// TestRecorderErrorsExcluded checks errored ops never enter the latency
// distribution: an absurdly slow failure must not move the quantiles.
func TestRecorderErrorsExcluded(t *testing.T) {
	var calls atomic.Int64
	w := Workload{
		Name: "test/errors-excluded",
		Setup: func(ctx context.Context, sc Scale) (*Instance, error) {
			return &Instance{Op: func(ctx context.Context) error {
				if calls.Add(1) == 2 {
					time.Sleep(50 * time.Millisecond) // slow, but errored
					return errTest
				}
				return nil
			}}, nil
		},
	}
	res, err := Run(context.Background(), w, Scale{}, RunConfig{MaxOps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 2 || res.Errors != 1 {
		t.Fatalf("ops/errors = %d/%d, want 2/1", res.Ops, res.Errors)
	}
	if res.MaxMs >= 50 || res.P99Ms >= 50 {
		t.Errorf("p99/max = %v/%v ms polluted by the errored op", res.P99Ms, res.MaxMs)
	}
}

// TestRunnerStageQuantiles: with Stages on, every span of the op trace
// lands in a per-stage histogram, reported with its p50/p99.
func TestRunnerStageQuantiles(t *testing.T) {
	w := Workload{
		Name: "test/stages",
		Setup: func(ctx context.Context, sc Scale) (*Instance, error) {
			return &Instance{Op: func(ctx context.Context) error {
				_, sp := obs.Start(ctx, "stage.sleep")
				time.Sleep(200 * time.Microsecond)
				sp.End()
				return nil
			}}, nil
		},
	}
	res, err := Run(context.Background(), w, Scale{}, RunConfig{Concurrency: 2, MaxOps: 20, Stages: true})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := res.Stages["stage.sleep"]
	if !ok {
		t.Fatalf("stage.sleep missing from %v", res.Stages)
	}
	if st.Count != 20 || st.P50Ms < 0.2 || st.P99Ms < st.P50Ms {
		t.Errorf("stage stats inconsistent: %+v", st)
	}
}
