package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"
)

// tracer collects what a traced pass adds to an untraced one: /metrics
// deltas over the window (the tracing the program already has — none is
// added), the client's spans, allocation counters, and timings of direct
// calls into layers that have no server span.
type tracer struct {
	from, to    time.Time
	before      scrape // the server's counters when the window began
	delta       map[string]float64
	mem0        runtime.MemStats
	allocs, gcs uint64
	probes      map[string]float64

	mu    sync.Mutex
	spans []span
}

// span is one client-side HTTP call that reached the server.
type span struct {
	start time.Time
	dur   time.Duration
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func newTracer() *tracer {
	return &tracer{delta: map[string]float64{}, probes: map[string]float64{}}
}

// start and stop bracket the window.
func (t *tracer) start() {
	t.from = time.Now()
	runtime.ReadMemStats(&t.mem0)
}

func (t *tracer) stop() {
	t.to = time.Now()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.allocs = m.TotalAlloc - t.mem0.TotalAlloc
	t.gcs = uint64(m.NumGC - t.mem0.NumGC)
}

// begin and end bracket a window on one server with a /metrics scrape
// each; untraced (a nil tracer) they do nothing.
func (t *tracer) begin(ctx context.Context, c *client) error {
	if t == nil {
		return nil
	}
	s, err := c.scrape(ctx)
	if err != nil {
		return err
	}
	t.before = s
	t.start()
	return nil
}

func (t *tracer) end(ctx context.Context, c *client) error {
	if t == nil {
		return nil
	}
	s, err := c.scrape(ctx)
	if err != nil {
		return err
	}
	t.stop()
	t.add(t.before, s)
	return nil
}

// add accumulates after − before for every series. A pass that restarts
// the server adds each boot's final scrape against an empty before.
func (t *tracer) add(before, after scrape) {
	for k, v := range after {
		t.delta[k] += v - before[k]
	}
}

// timeCall runs fn reps times and records its median wall time in ms.
func (t *tracer) timeCall(name string, reps int, fn func() error) error {
	var d []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		d = append(d, ms(time.Since(start)))
	}
	t.probes[name] = median(d)
	return nil
}

// stageMs is the mean duration of a server stage span over the window.
func (t *tracer) stageMs(stage string) float64 {
	return t.meanMs("f2_stage_duration_seconds", "stage", stage)
}

func (t *tracer) meanMs(family, label, value string) float64 {
	sel := fmt.Sprintf("{%s=%q}", label, value)
	n := t.delta[family+"_count"+sel]
	if n == 0 {
		return 0
	}
	return 1000 * t.delta[family+"_sum"+sel] / n
}

// sumSeconds totals every series of one histogram family's _sum.
func (t *tracer) sumSeconds(family string) float64 {
	total := 0.0
	for k, v := range t.delta {
		if strings.HasPrefix(k, family+"_sum{") {
			total += v
		}
	}
	return total
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerInput is everything a per-layer metric is computed from.
type layerInput struct {
	tr          *tracer
	ps          *pass
	overheadPct float64
}

// layerMetrics are the per-layer metrics of a traced run, in the order
// they are printed. Means are over the window; a layer the workload does
// not exercise reads 0. README.md maps each to the end-to-end metric it
// should move.
var layerMetrics = []struct {
	name, unit string
	value      func(in *layerInput) float64
}{
	{"server.http_append_rows_ms", "ms", httpMs("append_rows")},
	{"server.http_create_dataset_ms", "ms", httpMs("create_dataset")},
	{"server.http_discover_fds_ms", "ms", httpMs("discover_fds")},
	{"server.http_decrypt_ms", "ms", httpMs("decrypt")},
	{"server.residual_ms", "ms", residualMs},
	{"server.job_queue_ms", "ms", stageMs("job.queue")},
	{"server.job_run_ms", "ms", stageMs("job.run")},
	{"store.wal_append_ms", "ms", stageMs("wal.append")},
	{"store.wal_fsync_ms", "ms", stageMs("wal.fsync")},
	{"store.wal_fsyncs", "count", series("f2_wal_fsync_total")},
	{"store.wal_batches_per_fsync", "ratio", func(in *layerInput) float64 {
		return ratio(in.tr.delta[walBatches], in.tr.delta["f2_wal_fsync_total"])
	}},
	{"store.snapshot_save_ms", "ms", stageMs("snapshot.save")},
	{"store.snapshot_chunks_ms", "ms", stageMs("snapshot.chunks")},
	{"store.snapshot_gc_ms", "ms", stageMs("snapshot.gc")},
	{"store.bytes_written_per_user_byte", "ratio", func(in *layerInput) float64 {
		return ratio(in.tr.delta["f2_snapshot_bytes_written_total"], float64(in.ps.userBytes))
	}},
	{"store.chunk_reuse_ratio", "ratio", func(in *layerInput) float64 {
		d := in.tr.delta
		reused := d["f2_snapshot_chunks_reused_total"]
		return ratio(reused, reused+d["f2_snapshot_chunks_written_total"])
	}},
	{"server.first_read_p50_ms", "ms", func(in *layerInput) float64 {
		if len(in.ps.firstRead) == 0 {
			return 0
		}
		return quantile(in.ps.firstRead.sorted(), 0.5)
	}},
	{"store.hydrate_ms", "ms", stageMs("snapshot.hydrate")},
	{"store.load_all_ms", "ms", probe("store.load_all_ms")},
	{"store.load_state_ms", "ms", probe("store.load_state_ms")},
	{"mas.step1_ms", "ms", stageMs("encrypt.step1.mas")},
	{"mas.discover_ms", "ms", probe("mas.discover_ms")},
	{"core.step2_group_ms", "ms", stageMs("encrypt.step2.group")},
	{"core.step3_emit_ms", "ms", stageMs("encrypt.step3.emit")},
	{"core.emit_shard_ms", "ms", stageMs("emit.shard")},
	{"core.step4_fp_ms", "ms", stageMs("encrypt.step4.fp")},
	{"core.flush_ms", "ms", stageMs("update.flush")},
	{"core.flush_self_ms", "ms", flushSelfMs},
	{"core.incremental_border_ms", "ms", stageMs("incremental.border-maintain")},
	{"core.incremental_extend_ms", "ms", stageMs("incremental.extend")},
	{"core.incremental_topup_ms", "ms", stageMs("incremental.top-up")},
	{"core.incremental_rewitness_ms", "ms", stageMs("incremental.re-witness")},
	{"core.rebuilds", "count", series(`f2_flushes_total{mode="rebuild"}`)},
	{"core.incremental_flushes", "count", series(`f2_flushes_total{mode="incremental"}`)},
	{"core.incremental_share", "ratio", func(in *layerInput) float64 {
		inc := in.tr.delta[`f2_flushes_total{mode="incremental"}`]
		return ratio(inc, inc+in.tr.delta[`f2_flushes_total{mode="rebuild"}`])
	}},
	{"core.restore_updater_ms", "ms", probe("core.restore_updater_ms")},
	{"core.decrypt_ms", "ms", stageMs("decrypt.table")},
	{"relation.from_rows_ms", "ms", probe("relation.from_rows_ms")},
	{"partition.of_ms", "ms", probe("partition.of_ms")},
	{"fd.tane_ms", "ms", probe("fd.tane_ms")},
	{"loadgen.append_p99_ms", "ms", func(in *layerInput) float64 {
		if in.ps.late == nil {
			return 0
		}
		return quantile(in.ps.secondary.sorted(), 0.99)
	}},
	{"loadgen.late_p99_ms", "ms", func(in *layerInput) float64 {
		if in.ps.late == nil {
			return 0
		}
		return quantile(in.ps.late.sorted(), 0.99)
	}},
	{"loadgen.refused_429", "count", func(in *layerInput) float64 { return float64(in.ps.refused) }},
	{"runtime.alloc_bytes_per_op", "B", func(in *layerInput) float64 {
		return ratio(float64(in.tr.allocs), float64(in.ps.attempted))
	}},
	{"runtime.gc_cycles", "count", func(in *layerInput) float64 { return float64(in.tr.gcs) }},
	{"trace_overhead_pct", "%", func(in *layerInput) float64 { return in.overheadPct }},
}

func httpMs(op string) func(*layerInput) float64 {
	return func(in *layerInput) float64 { return in.tr.meanMs("f2_http_request_duration_seconds", "op", op) }
}

func stageMs(stage string) func(*layerInput) float64 {
	return func(in *layerInput) float64 { return in.tr.stageMs(stage) }
}

func series(name string) func(*layerInput) float64 {
	return func(in *layerInput) float64 { return in.tr.delta[name] }
}

func probe(name string) func(*layerInput) float64 {
	return func(in *layerInput) float64 { return in.tr.probes[name] }
}

// residualMs is the per-request time no server histogram accounts for:
// the client's mean over the window's calls minus the server's mean —
// connection handling, queuing for a connection, and the response's
// trip back.
func residualMs(in *layerInput) float64 {
	var client time.Duration
	n := 0
	for _, s := range in.tr.spans {
		if !s.start.Before(in.tr.from) && s.start.Before(in.tr.to) {
			client += s.dur
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return (ms(client) - 1000*in.tr.sumSeconds("f2_http_request_duration_seconds")) / float64(n)
}

// flushSelfMs is update.flush's mean self time: its duration minus the
// engine stages nested in it. Creates also run the encrypt stages outside
// any flush, so the figure is exact only on workloads that create nothing
// during the window — the only ones that flush.
func flushSelfMs(in *layerInput) float64 {
	d := in.tr.delta
	n := d[`f2_stage_duration_seconds_count{stage="update.flush"}`]
	if n == 0 {
		return 0
	}
	children := 0.0
	for _, st := range []string{
		"incremental.border-maintain", "incremental.extend", "incremental.top-up", "incremental.re-witness",
		"encrypt.step1.mas", "encrypt.step2.group", "encrypt.step3.emit", "encrypt.step4.fp",
	} {
		children += d[fmt.Sprintf("f2_stage_duration_seconds_sum{stage=%q}", st)]
	}
	return max(0, 1000*(d[`f2_stage_duration_seconds_sum{stage="update.flush"}`]-children)/n)
}
