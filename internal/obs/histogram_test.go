package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// maxQuantileRelErr is the interpolation error budget: an estimate may be
// off from the exact order statistic by at most one bucket ratio
// (10^(1/BucketsPerDecade) ≈ 1.26), so 30% relative covers it with a
// small margin for the rank-vs-index convention.
const maxQuantileRelErr = 0.30

// exactQuantile is the reference: the ⌈q·n⌉-th smallest sample, matching
// the histogram's rank convention; 0 for no samples.
func exactQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// TestHistogramQuantilesVsExactSort drives random duration distributions
// through the histogram and checks every derived quantile against an
// exact sort of the same samples.
func TestHistogramQuantilesVsExactSort(t *testing.T) {
	distributions := []struct {
		name string
		n    int
		gen  func(r *rand.Rand) time.Duration
	}{
		{"uniform-1ms-100ms", 5000, func(r *rand.Rand) time.Duration {
			return time.Duration(1e6 + r.Int63n(99e6))
		}},
		{"lognormal", 5000, func(r *rand.Rand) time.Duration {
			return time.Duration(math.Exp(r.NormFloat64()*1.5+13)) + time.Microsecond
		}},
		{"bimodal-fast-slow", 5000, func(r *rand.Rand) time.Duration {
			if r.Intn(10) == 0 {
				return time.Duration(200e6 + r.Int63n(50e6)) // slow tail
			}
			return time.Duration(50e3 + r.Int63n(100e3))
		}},
		// Two fast stage spans a bucket ratio apart, as an in-memory
		// append and its surrounding handler step produce.
		{"stage-3us-10us", 5000, func(r *rand.Rand) time.Duration {
			if r.Intn(5) == 0 {
				return 10 * time.Microsecond
			}
			return 3 * time.Microsecond
		}},
		// Everything past the last finite bound lands in the overflow
		// bucket, which interpolates up to the exact max.
		{"past-1000s", 5000, func(r *rand.Rand) time.Duration {
			return 1000*time.Second + time.Duration(r.Int63n(int64(2000*time.Second)))
		}},
		{"empty", 0, nil},
	}
	for _, d := range distributions {
		t.Run(d.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			var h Histogram
			samples := make([]time.Duration, d.n)
			for i := range samples {
				samples[i] = d.gen(r)
				h.Observe(samples[i])
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })

			if h.Count() != len(samples) {
				t.Fatalf("count = %d, want %d", h.Count(), len(samples))
			}
			wantMin, wantMax := exactQuantile(samples, 0), exactQuantile(samples, 1)
			if h.Min() != wantMin || h.Max() != wantMax {
				t.Errorf("min/max = %v/%v, want exact %v/%v", h.Min(), h.Max(), wantMin, wantMax)
			}
			if h.Quantile(1) != wantMax {
				t.Errorf("q=1: got %v, want the exact max %v", h.Quantile(1), wantMax)
			}
			for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
				got := h.Quantile(q)
				want := exactQuantile(samples, q)
				if want == 0 {
					if got != 0 {
						t.Errorf("q=%v: got %v from no samples, want 0", q, got)
					}
					continue
				}
				rel := math.Abs(float64(got-want)) / float64(want)
				if rel > maxQuantileRelErr {
					t.Errorf("q=%v: got %v, exact %v, rel err %.3f > %.2f",
						q, got, want, rel, maxQuantileRelErr)
				}
			}
			if d.n == 0 && (h.Mean() != 0 || h.Sum() != 0) {
				t.Errorf("empty histogram mean/sum = %v/%v, want 0", h.Mean(), h.Sum())
			}
		})
	}
}

// TestHistogramMergeEquivalence checks that sharded histograms merged
// together report exactly what one histogram fed everything reports:
// per-worker sharding must not change the statistics.
func TestHistogramMergeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var single Histogram
	shards := make([]Histogram, 3)
	for i := 0; i < 3000; i++ {
		d := time.Duration(1e3 + r.Int63n(1e9))
		single.Observe(d)
		shards[i%len(shards)].Observe(d)
	}
	var merged Histogram
	for i := range shards {
		merged.Merge(&shards[i])
	}
	if merged.Count() != single.Count() {
		t.Fatalf("merged count = %d, want %d", merged.Count(), single.Count())
	}
	if merged.Min() != single.Min() || merged.Max() != single.Max() || merged.Mean() != single.Mean() {
		t.Errorf("merged min/max/mean = %v/%v/%v, want %v/%v/%v",
			merged.Min(), merged.Max(), merged.Mean(), single.Min(), single.Max(), single.Mean())
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if merged.Quantile(q) != single.Quantile(q) {
			t.Errorf("q=%v: merged %v != single %v", q, merged.Quantile(q), single.Quantile(q))
		}
	}
}

// TestHistogramDecadeBoundsExact: bounds are computed by index, so
// every decade bound is a whole number of nanoseconds and an
// observation exactly on one counts at or below it.
func TestHistogramDecadeBoundsExact(t *testing.T) {
	var h Histogram
	h.Observe(10 * time.Microsecond)
	h.Observe(10*time.Microsecond + 1)
	var decades []time.Duration
	h.Cumulative(BucketsPerDecade, func(le time.Duration, n int) {
		decades = append(decades, le)
		if le == 10*time.Microsecond && n != 1 {
			t.Errorf("cumulative at 10µs = %d, want 1", n)
		}
	})
	want := time.Microsecond
	for _, le := range decades {
		if le != want {
			t.Fatalf("decade bound %v, want %v", le, want)
		}
		want *= 10
	}
	if len(decades) != 10 {
		t.Fatalf("%d decade bounds, want 10 (1µs .. 1000s)", len(decades))
	}
}
