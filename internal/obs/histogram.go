package obs

import (
	"math"
	"sort"
	"time"
)

// BucketsPerDecade sets the Histogram's resolution: bucket upper bounds
// are log-spaced at 10 per decade (ratio 10^0.1 ≈ 1.259), so an
// interpolated quantile is off from the exact order statistic by at most
// one bucket ratio (~26% relative), and in practice much less.
const BucketsPerDecade = 10

// histBoundCount is the number of finite bucket bounds: 1µs .. 1000s is
// nine decades, bounds at both ends included.
const histBoundCount = 9*BucketsPerDecade + 1

// histBounds are the bucket upper bounds in nanoseconds, 10^(k/10) µs
// for k = 0..90. They are computed by index, not by repeated
// multiplication, so every decade bound is exact. Bucket k holds
// (histBounds[k-1], histBounds[k]]; one more bucket holds everything
// past 1000s, whose exact values still flow into min/max/sum.
var histBounds = func() []float64 {
	b := make([]float64, histBoundCount)
	for k := range b {
		b[k] = 1e3 * math.Pow(10, float64(k)/BucketsPerDecade)
	}
	return b
}()

// Histogram is the program's one duration distribution: log-spaced
// buckets from 1µs to 1000s plus an overflow bucket, and the exact
// count, sum, min and max. The zero value is empty and ready to use. It
// is NOT safe for concurrent use: shard it per goroutine and Merge, or
// guard it with a lock.
type Histogram struct {
	counts [histBoundCount + 1]uint64 // last is the overflow bucket
	count  uint64
	sum    float64 // ns
	min    float64 // ns; valid when count > 0
	max    float64 // ns
}

// Observe adds one duration; a negative one counts as zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := float64(max(d, 0))
	if h.count == 0 || ns < h.min {
		h.min = ns
	}
	if ns > h.max {
		h.max = ns
	}
	h.count++
	h.sum += ns
	h.counts[sort.SearchFloat64s(histBounds, ns)]++
}

// Merge folds another histogram's observations into h.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if o.count > 0 {
		if h.count == 0 || o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	h.count += o.count
	h.sum += o.sum
}

// Count returns the number of observations.
func (h *Histogram) Count() int { return int(h.count) }

// Sum returns the exact total of the observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum) }

// Min returns the exact smallest observation.
func (h *Histogram) Min() time.Duration { return time.Duration(h.min) }

// Max returns the exact largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Mean returns the exact mean, 0 when empty.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / float64(h.count))
}

// Quantile returns the interpolated q-quantile (0 < q ≤ 1): the
// position of the rank inside its bucket is interpolated linearly
// between the bucket's bounds, both clamped to the exact observed
// [min, max]. q ≤ 0 and q ≥ 1 report the exact min and max; an empty
// histogram reports 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	switch {
	case h.count == 0:
		return 0
	case q <= 0:
		return h.Min()
	case q >= 1:
		return h.Max()
	}
	var edges [histBoundCount + 2]float64
	edges[0] = h.min
	for k, b := range histBounds {
		edges[k+1] = min(max(b, h.min), h.max)
	}
	edges[histBoundCount+1] = h.max
	return time.Duration(bucketQuantile(h.counts[:], edges[:], q))
}

// Cumulative calls fn for every stride-th bucket bound from 1µs up to
// 1000s, in order, with the number of observations at or below it. A
// stride that divides BucketsPerDecade visits the decade bounds. The
// bound is rounded down to whole nanoseconds, which is exact for
// Duration observations. The overflow bucket is not visited: every
// observation is at or below +Inf, so its cumulative count is Count.
func (h *Histogram) Cumulative(stride int, fn func(le time.Duration, n int)) {
	cum := uint64(0)
	for k, b := range histBounds {
		cum += h.counts[k]
		if k%stride == 0 {
			fn(time.Duration(b), int(cum))
		}
	}
}

// bucketQuantile interpolates the q-quantile (0 < q ≤ 1) out of a
// bucketed distribution whose counts[i] observations lie between
// edges[i] and edges[i+1]. The cumulative counts locate the bucket
// holding rank q·total, and the rank's position inside it is
// interpolated linearly between the bucket's edges. A -Inf lower edge
// reads as 0; a rank in a bucket whose upper edge is +Inf reports the
// finite lower edge. An empty distribution, or edges that do not fit
// counts, report 0.
func bucketQuantile(counts []uint64, edges []float64, q float64) float64 {
	if len(edges) != len(counts)+1 {
		return 0
	}
	total := uint64(0)
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := min(q, 1) * float64(total)
	cum := 0.0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			lo, hi := edges[i], edges[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			frac := (rank - cum) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return 0 // unreachable: rank ≤ total
}
