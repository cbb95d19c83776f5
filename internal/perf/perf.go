// Package perf is the performance harness: a workload registry, a runner
// that measures per-op latency into log-spaced histogram buckets, optional
// pprof/runtime-stats capture taken concurrently with the run, and a
// machine-readable report codec with a regression-gating comparator.
//
// The pieces compose into one measurement path shared by every consumer:
//
//   - a Workload is a named scenario whose Setup builds an Instance — a
//     concurrency-safe Op func(ctx) error plus optional custom metrics
//     (rows/op, ciphertext expansion). DefaultWorkloads covers the whole
//     pipeline: full encrypt, incremental append+flush at several Δ
//     sizes, parallel encrypt at widths {1, GOMAXPROCS}, decrypt, FD
//     discovery on the encrypted view, store snapshot and WAL-replay
//     recovery, and end-to-end f2served HTTP round-trips.
//     internal/bench registers the paper experiments (§5 figures) as
//     Heavy workloads on top, so the paper evaluation and the perf
//     harness share one table-generation and measurement path.
//   - Run executes one workload: warmup ops, then Concurrency goroutines
//     looping until a duration or op-count bound, each recording into its
//     own obs.Histogram; the histograms merge into p50/p95/p99/max and
//     throughput.
//     A Profiler can capture CPU/heap/allocs profiles and periodic
//     runtime.MemStats / goroutine-count samples during the measured
//     window.
//   - a Report (BENCH_<name>.json) carries environment metadata and every
//     RunResult; Compare diffs two reports metric-by-metric against a
//     threshold, giving CI a perf gate (cmd/f2perf -compare).
//
// cmd/f2perf drives all of it; see docs/BENCHMARKING.md.
package perf
