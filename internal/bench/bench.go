// Package bench is the experiment harness: it regenerates every table and
// figure of the F² paper's evaluation (§5) at laptop scale. Each Run*
// function returns rendered text tables whose rows/series mirror what the
// paper plots, and each table's Notes state the paper's claim beside it.
//
// The table renderer, the deterministic benchmark key/config, and the
// memoized dataset generator live in internal/perf, so the paper harness
// and the perf runner share one measurement path: PerfWorkloads bridges
// every experiment into the perf registry, and `f2perf -run 'paper/*'`
// runs them and prints their tables.
package bench

import (
	"context"
	"time"

	"f2/internal/core"
	"f2/internal/crypt"
	"f2/internal/perf"
	"f2/internal/relation"
)

// Table is a rendered experiment result (shared renderer; see
// perf.Table).
type Table = perf.Table

// Options configures the harness scale. Zero value = default scale.
type Options struct {
	// Seed for workload generation.
	Seed int64
	// Scale multiplies the default dataset sizes (1.0 = defaults).
	Scale float64
}

func (o Options) scale(n int) int {
	if o.Scale == 0 {
		o.Scale = 1
	}
	s := int(float64(n) * o.Scale)
	if s < 100 {
		s = 100
	}
	return s
}

// benchKey returns the deterministic benchmark key (benchmarks must be
// reproducible; production users call crypt.GenerateKey).
func benchKey() crypt.Key { return perf.Key() }

// benchConfig builds the standard benchmark config.
func benchConfig(alpha float64) core.Config { return perf.Config(alpha) }

// encrypt runs F² and returns the result, failing loudly on error.
func encrypt(ctx context.Context, tbl *relation.Table, cfg core.Config) (*core.Result, error) {
	enc, err := core.NewEncryptor(cfg)
	if err != nil {
		return nil, err
	}
	return enc.Encrypt(ctx, tbl)
}

// dataset generates (or reuses the process-wide memoized copy of) a
// workload table.
func dataset(name string, n int, seed int64) (*relation.Table, error) {
	return perf.Dataset(name, n, seed)
}

func ms(d time.Duration) string { return perf.Ms(d) }

func pct(v float64) string { return perf.Pct(v) }

func mb(bytes int64) string { return perf.MB(bytes) }

// alphaLabel renders α as the paper does (1/5, 1/10, ...).
func alphaLabel(alpha float64) string { return perf.AlphaLabel(alpha) }
