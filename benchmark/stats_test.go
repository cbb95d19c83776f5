package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	var five samples
	for _, v := range []float64{5, 1, 4, 2, 3} {
		five.add(v)
	}
	hundred := make(samples, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100, 99, ..., 1
	}
	var failed samples
	for i := 1; i <= 9; i++ {
		failed.add(float64(i))
	}
	failed.fail()

	for _, tc := range []struct {
		name string
		s    samples
		q    float64
		want float64
	}{
		{"five p50", five, 0.5, 3},
		{"five p90", five, 0.9, 5},
		{"five p20 is the minimum", five, 0.2, 1},
		{"five p0 clamps to the minimum", five, 0, 1},
		{"hundred p50", hundred, 0.5, 50},
		{"hundred p90 is rank 90, not 91", hundred, 0.9, 90},
		{"hundred p99", hundred, 0.99, 99},
		{"failure above p90", failed, 0.9, 9},
		{"failure reaches p95", failed, 0.95, math.Inf(1)},
	} {
		if got := quantile(tc.s.sorted(), tc.q); got != tc.want {
			t.Errorf("%s: quantile = %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty series: quantile = %v, want NaN", got)
	}
	if five[0] != 5 {
		t.Errorf("sorted reordered the series in place: %v", five)
	}
}

func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},    // median rank 10 leaves 9 above
		{20, 0.5},  // median rank 10 leaves 10 above
		{39, 0.5},  // p75 rank 30 leaves 9 above
		{40, 0.75}, // p75 rank 30 leaves 10 above
		{49, 0.75}, // p80 rank 40 leaves 9 above
		{50, 0.8},
		{99, 0.8},
		{100, 0.9}, // p90 rank 90 leaves 10 above
		{199, 0.9},
		{200, 0.95},
		{999, 0.95}, // p99 rank 990 leaves 9 above
		{1000, 0.99},
		{10000, 0.999},
	} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median(nil) = %v, want NaN", got)
	}
}
