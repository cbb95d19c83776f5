package server

import (
	"strings"
	"testing"
	"time"

	"f2/internal/obs"
)

// TestQuantileInterpolationExact pins the histogram-quantile
// interpolation against an exactly-sorted sample. The request histogram
// has buckets (10^((k-1)/10), 10^(k/10)] µs, each edge clamped to the
// observed [min, max]. We place 8 observations in the bucket that ends
// at 1ms (min 900µs) and 2 in the one above it (max 1.2ms), i.e.
//
//	900µs = x_1 ≤ ... ≤ x_8 ≤ 1ms < x_9 ≤ x_10 = 1.2ms
//
// With observations assumed uniform inside their clamped bucket, the
// q-quantile at rank r = q·10 interpolates linearly between the
// bucket's edges; these closed-form positions are pinned exactly.
func TestQuantileInterpolationExact(t *testing.T) {
	m := NewMetrics()
	observeClampedPair(func(d time.Duration) { m.Observe("op", 200, d) }, 900*time.Microsecond, time.Millisecond, 1200*time.Microsecond)
	h := m.latency["op"]
	cases := []struct {
		q    float64
		want time.Duration
	}{
		// rank 5 of 10 → first bucket, frac 5/8: 900µs + 100µs·5/8.
		{0.50, 962500 * time.Nanosecond},
		// rank 8 → exactly fills the first bucket: its upper bound.
		{0.80, time.Millisecond},
		// rank 9.5 → second bucket, frac 1.5/2: 1ms + 200µs·0.75.
		{0.95, 1150 * time.Microsecond},
		// rank 9.9 → second bucket, frac 1.9/2: 1ms + 200µs·0.95.
		{0.99, 1190 * time.Microsecond},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// observeClampedPair feeds 8 observations into the bucket that ends at
// the decade bound edge (the smallest being lo) and 2 into the bucket
// just above it (the largest being hi), so both buckets interpolate
// between round edges: [lo, edge] and [edge, hi].
func observeClampedPair(observe func(time.Duration), lo, edge, hi time.Duration) {
	observe(lo)
	for i := 0; i < 7; i++ {
		observe(edge)
	}
	observe(edge + (hi-edge)/2)
	observe(hi)
}

// TestQuantileOverflowBucketUsesMax: the bucket past the last finite
// bound (1000s) has no upper bound of its own, so it interpolates up to
// the exact observed max, which q=1 reports.
func TestQuantileOverflowBucketUsesMax(t *testing.T) {
	m := NewMetrics()
	m.Observe("op", 200, time.Millisecond)
	m.Observe("op", 200, 1500*time.Second) // beyond the last 1000s bound
	h := m.latency["op"]
	if got := h.Quantile(1); got != 1500*time.Second {
		t.Errorf("quantile(1) = %v, want the exact max 1500s", got)
	}
	// rank 1.98 → overflow bucket, frac 0.98: 1000s + 500s·0.98.
	if got := h.Quantile(0.99); got != 1490*time.Second {
		t.Errorf("quantile(0.99) = %v, want 1490s", got)
	}
}

// TestQuantileEmptyOp: an op never observed renders no request
// families (so no quantile of an empty histogram), and an empty
// histogram's quantile is 0.
func TestQuantileEmptyOp(t *testing.T) {
	var empty obs.Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("quantile on empty stats = %v, want 0", got)
	}
	var b strings.Builder
	NewMetrics().Render(&b)
	if strings.Contains(b.String(), "f2_http_request") {
		t.Errorf("empty registry renders request families:\n%s", b.String())
	}
}

// TestEscapeLabelValue pins the Prometheus text-exposition escaping:
// backslash, double quote, and newline are the only escapes, applied in
// one pass.
func TestEscapeLabelValue(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`quo"te`, `quo\"te`},
		{"new\nline", `new\nline`},
		{"\"}\nevil_metric 1", `\"}\nevil_metric 1`},
		{"", ""},
	}
	for _, c := range cases {
		if got := escapeLabelValue(c.in); got != c.want {
			t.Errorf("escapeLabelValue(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestSanitizeName: names have no quoting to hide behind, so every rune
// outside [a-zA-Z_][a-zA-Z0-9_]* becomes '_'.
func TestSanitizeName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"mode", "mode"},
		{"f2_flushes_total", "f2_flushes_total"},
		{"9starts_with_digit", "_starts_with_digit"},
		{"has-dash.dot", "has_dash_dot"},
		{`evil"} label`, "evil___label"},
		{"", "_"},
	}
	for _, c := range cases {
		if got := sanitizeName(c.in); got != c.want {
			t.Errorf("sanitizeName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestIncCounterHostileLabels: a label value containing quotes and
// newlines must not break out of its quoted position in the rendered
// exposition — the regression this guards is IncCounter interpolating
// label strings verbatim.
func TestIncCounterHostileLabels(t *testing.T) {
	m := NewMetrics()
	m.IncCounter("f2_flushes_total", "mode", "inc\"} pwned_total 999\n")
	m.IncCounter("f2_flushes_total", "bad-name", "v")
	var b strings.Builder
	m.Render(&b)
	out := b.String()
	if !strings.Contains(out, `f2_flushes_total{mode="inc\"} pwned_total 999\n"} 1`) {
		t.Errorf("hostile label value not escaped:\n%s", out)
	}
	if !strings.Contains(out, `f2_flushes_total{bad_name="v"} 1`) {
		t.Errorf("label name not sanitized:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "pwned_total") {
			t.Fatalf("hostile value injected a metric line: %q", line)
		}
	}
}

// TestIncCounterOddPairDropped: a trailing label name without a value is
// dropped rather than rendered half-formed.
func TestIncCounterOddPairDropped(t *testing.T) {
	m := NewMetrics()
	m.IncCounter("f2_things_total", "mode", "x", "dangling")
	var b strings.Builder
	m.Render(&b)
	if !strings.Contains(b.String(), `f2_things_total{mode="x"} 1`) {
		t.Errorf("odd kv tail mishandled:\n%s", b.String())
	}
}

// TestRenderGaugeCallbackMayUseMetrics is the lock-inversion regression
// test: Render used to invoke gauge callbacks while holding m.mu, so a
// gauge whose closure touches Metrics (directly or through its owner's
// lock) deadlocked the /metrics scrape. With the snapshot-then-call
// pattern this completes.
func TestRenderGaugeCallbackMayUseMetrics(t *testing.T) {
	m := NewMetrics()
	m.RegisterGauge("f2_reentrant", func() float64 {
		m.IncCounter("f2_gauge_calls_total")
		return 1
	})
	done := make(chan string, 1)
	go func() {
		var b strings.Builder
		m.Render(&b)
		done <- b.String()
	}()
	select {
	case out := <-done:
		if !strings.Contains(out, "f2_reentrant 1") {
			t.Errorf("gauge missing from render:\n%s", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Render deadlocked on a reentrant gauge callback")
	}
}

// TestStageHistogramCumulative pins the stage histogram rendering:
// cumulative buckets, sum/count/max, escaped stage label.
func TestStageHistogramCumulative(t *testing.T) {
	m := NewMetrics()
	m.ObserveStage("wal.fsync", 50*time.Microsecond)  // bucket le=0.0001
	m.ObserveStage("wal.fsync", 300*time.Microsecond) // bucket le=0.000316227
	m.ObserveStage("wal.fsync", 30*time.Second)       // bucket le=31.622776601
	m.ObserveStage("wal.fsync", 1200*time.Second)     // +Inf
	var b strings.Builder
	m.Render(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE f2_stage_duration_seconds histogram",
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="3.1622e-05"} 0`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="0.0001"} 1`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="0.000316227"} 2`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="10"} 2`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="31.622776601"} 3`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="1000"} 3`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="+Inf"} 4`,
		`f2_stage_duration_seconds_sum{stage="wal.fsync"} 1230.000350`,
		`f2_stage_duration_seconds_count{stage="wal.fsync"} 4`,
		`f2_stage_duration_seconds_max{stage="wal.fsync"} 1200.000000`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stage histogram missing %q in:\n%s", want, out)
		}
	}
}

// TestHistogramRenderedBounds: both histogram families render the same
// 19 finite le bounds — the half-decades from 1µs to 1000s, decades
// printed exactly ("1e-05", not a float near it) — then +Inf, and the
// op label is escaped like every other label value.
func TestHistogramRenderedBounds(t *testing.T) {
	m := NewMetrics()
	m.Observe(`we"ird`, 200, time.Millisecond)
	m.ObserveStage("wal.fsync", time.Millisecond)
	var b strings.Builder
	m.Render(&b)
	want := []string{
		"1e-06", "3.162e-06", "1e-05", "3.1622e-05", "0.0001", "0.000316227",
		"0.001", "0.003162277", "0.01", "0.031622776", "0.1", "0.316227766",
		"1", "3.16227766", "10", "31.622776601", "100", "316.227766016", "1000", "+Inf",
	}
	for _, prefix := range []string{
		`f2_http_request_duration_seconds_bucket{op="we\"ird",le="`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="`,
	} {
		var got []string
		for _, line := range strings.Split(b.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				got = append(got, rest[:strings.IndexByte(rest, '"')])
			}
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s bounds:\n got %v\nwant %v", prefix, got, want)
		}
	}
}

// TestMetricsRenderQuantileGauges checks the derived gauges land in the
// Prometheus exposition with the pinned interpolated values (the sample
// of TestQuantileInterpolationExact).
func TestMetricsRenderQuantileGauges(t *testing.T) {
	m := NewMetrics()
	observeClampedPair(func(d time.Duration) { m.Observe("flush", 200, d) }, 900*time.Microsecond, time.Millisecond, 1200*time.Microsecond)
	var b strings.Builder
	m.Render(&b)
	out := b.String()
	for _, want := range []string{
		`# TYPE f2_http_request_latency_quantile_seconds gauge`,
		`f2_http_request_latency_quantile_seconds{op="flush",quantile="0.5"} 0.000963`,
		`f2_http_request_latency_quantile_seconds{op="flush",quantile="0.95"} 0.001150`,
		`f2_http_request_latency_quantile_seconds{op="flush",quantile="0.99"} 0.001190`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestStageQuantileSubHundredMicros pins the stage-histogram
// interpolation in the sub-100µs range against an exactly-sorted
// sample: 8 observations in the bucket that ends at 10µs (min 8µs) and
// 2 in the one above it (max 12µs), so rank r = q·10 interpolates
// inside known edges.
func TestStageQuantileSubHundredMicros(t *testing.T) {
	m := NewMetrics()
	observeClampedPair(func(d time.Duration) { m.ObserveStage("buffer.append", d) }, 8*time.Microsecond, 10*time.Microsecond, 12*time.Microsecond)
	h := m.stages["buffer.append"]
	cases := []struct {
		q    float64
		want time.Duration
	}{
		// rank 5 of 10 → first bucket, frac 5/8: 8µs + 2µs·5/8.
		{0.50, 9250 * time.Nanosecond},
		// rank 8 → exactly fills the first bucket: its upper bound.
		{0.80, 10 * time.Microsecond},
		// rank 9.5 → second bucket, frac 1.5/2: 10µs + 2µs·0.75.
		{0.95, 11500 * time.Nanosecond},
		// rank 9.9 → second bucket, frac 1.9/2: 10µs + 2µs·0.95.
		{0.99, 11900 * time.Nanosecond},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("stage quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestStageBucketsResolveFastStages: a 3µs and a 10µs observation land
// in distinct rendered buckets, so fast stages stay distinguishable.
func TestStageBucketsResolveFastStages(t *testing.T) {
	m := NewMetrics()
	m.ObserveStage("buffer.append", 3*time.Microsecond)
	m.ObserveStage("buffer.append", 10*time.Microsecond)
	var b strings.Builder
	m.Render(&b)
	out := b.String()
	for _, want := range []string{
		`f2_stage_duration_seconds_bucket{stage="buffer.append",le="1e-06"} 0`,
		`f2_stage_duration_seconds_bucket{stage="buffer.append",le="3.162e-06"} 1`,
		`f2_stage_duration_seconds_bucket{stage="buffer.append",le="1e-05"} 2`,
		`f2_stage_duration_quantile_seconds{stage="buffer.append",quantile="0.5"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestRenderGaugeVec: a gauge-vector callback renders one HELP/TYPE
// header and one labeled sample per reading, and — like scalar gauges —
// runs without the Metrics lock held, so it may itself use Metrics.
func TestRenderGaugeVec(t *testing.T) {
	m := NewMetrics()
	m.RegisterGaugeVec("f2_runtime_gc_pause_seconds", func() []GaugeSample {
		m.IncCounter("f2_reentrant_total") // deadlocks if called under m.mu
		return []GaugeSample{
			{Labels: []string{"quantile", "0.5"}, Value: 0.001},
			{Labels: []string{"quantile", "0.99"}, Value: 0.004},
		}
	})
	var b strings.Builder
	m.Render(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE f2_runtime_gc_pause_seconds gauge",
		"# HELP f2_runtime_gc_pause_seconds",
		`f2_runtime_gc_pause_seconds{quantile="0.5"} 0.001`,
		`f2_runtime_gc_pause_seconds{quantile="0.99"} 0.004`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestRenderEveryFamilyHasHelp walks a fully populated render and
// requires each # TYPE line to be immediately preceded by the matching
// # HELP line — the contract the restart smoke's exposition validator
// (and any strict Prometheus parser) enforces.
func TestRenderEveryFamilyHasHelp(t *testing.T) {
	m := NewMetrics()
	m.Observe("op", 200, time.Millisecond)
	m.ObserveStage("wal.fsync", 100*time.Microsecond)
	m.IncCounter("f2_flushes_total", "mode", "full")
	m.RegisterGauge("f2_datasets", func() float64 { return 1 })
	m.RegisterCounterFunc("f2_wal_fsync_total", func() float64 { return 2 })
	m.RegisterGaugeVec("f2_runtime_gc_pause_seconds", func() []GaugeSample {
		return []GaugeSample{{Labels: []string{"quantile", "0.5"}, Value: 0}}
	})
	var b strings.Builder
	m.Render(&b)
	lines := strings.Split(b.String(), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name := strings.Fields(line)[2]
		if i == 0 || !strings.HasPrefix(lines[i-1], "# HELP "+name+" ") {
			t.Errorf("family %s has TYPE without preceding HELP", name)
		}
	}
}
