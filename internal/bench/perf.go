package bench

import (
	"context"
	"fmt"

	"f2/internal/perf"
)

// PerfWorkloads bridges every paper experiment into the perf registry as
// a "paper/<id>" workload: `f2perf -run 'paper/*'` is how the §5 tables
// are regenerated. One op = one full experiment at a scale derived from
// the perf Scale; the op measures the experiment's wall clock (a BENCH
// report diff over paper/* catches regressions in the §5 figures), and
// the last op's rendered tables come back through Instance.Tables for
// f2perf to print.
//
// The workloads are marked Heavy: a bare `f2perf -run '*'` skips them —
// an experiment sweep re-encrypts at many α values and would dominate a
// smoke run — and `f2perf -run 'paper/*'` (or an exact id) selects them.
func PerfWorkloads() []perf.Workload {
	var out []perf.Workload
	for _, e := range Experiments() {
		e := e
		out = append(out, perf.Workload{
			Name:           "paper/" + e.ID,
			Desc:           fmt.Sprintf("paper experiment: %s (§5 evaluation)", e.Paper),
			Heavy:          true,
			MaxConcurrency: 1, // experiments share the dataset memo and time themselves
			OpsCap:         4,
			Setup: func(ctx context.Context, sc Scale) (*perf.Instance, error) {
				o := Options{Seed: sc.Seed, Scale: quarter(sc)}
				var last []*Table // MaxConcurrency 1: ops never overlap
				return &perf.Instance{
					// Experiments take a context, so cancellation flows
					// straight into the encrypt pipeline: Ctrl-C during a
					// multi-minute sweep stops the experiment itself at
					// its next cancellation check.
					Op: func(ctx context.Context) error {
						tables, err := e.Run(ctx, o)
						if err == nil {
							last = tables
						}
						return err
					},
					Tables: func() []*Table { return last },
				}, nil
			},
		})
	}
	return out
}

// Scale aliases perf.Scale for the bridge signature.
type Scale = perf.Scale

// quarter maps the perf size factor onto experiment scale, keeping the
// bridged runs at smoke size by default (a full-size experiment sweep is
// minutes per op; ask for it explicitly with -scale 4).
func quarter(sc Scale) float64 {
	f := sc.SizeFactor
	if f == 0 {
		f = 1.0
	}
	return f * 0.25
}
