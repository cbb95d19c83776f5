package main

import (
	"math"
	"sort"
)

// samples holds one latency series in milliseconds. A failed operation is
// recorded as +Inf: it sorts above every success, so it counts as missing
// any latency limit a percentile is held to.
//
// Quantiles are exact nearest-rank values over the sorted samples — no
// histogram, no interpolation — so nothing the program does to its own
// histograms can shift a benchmark number.
type samples []float64

func (s *samples) add(ms float64) { *s = append(*s, ms) }

func (s *samples) fail() { *s = append(*s, math.Inf(1)) }

// sorted returns an ascending copy.
func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// rank is the 1-based nearest rank of quantile q among n samples: the
// smallest r with r ≥ q·n. The epsilon keeps q·n from rounding up past an
// exact integer (0.9·100 must be rank 90, not 91).
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the q-quantile of ascending samples by nearest rank,
// NaN for an empty series.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(q, len(sorted))-1]
}

// tailQuantiles are the candidate tail percentiles, in increasing order.
var tailQuantiles = []float64{0.5, 0.75, 0.8, 0.9, 0.95, 0.99, 0.999}

// supportedTail returns the highest candidate quantile that leaves at
// least 10 samples strictly above its rank — the highest percentile a
// series of n samples can honestly report — or 0 when even the median
// cannot (n < 20).
func supportedTail(n int) float64 {
	best := 0.0
	for _, q := range tailQuantiles {
		if n-rank(q, n) >= 10 {
			best = q
		}
	}
	return best
}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count), NaN when empty. It summarizes repeated set-ups and
// probes, not latency series.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
