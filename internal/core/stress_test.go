package core

import (
	"math/rand"
	"testing"

	"f2/internal/fd"
)

func TestStressFDPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		attrs := 2 + rng.Intn(5)
		rows := 5 + rng.Intn(40)
		domain := 2 + rng.Intn(5)
		tbl := randomTable(rng, attrs, rows, domain)
		cfg := testConfig([]float64{1, 0.5, 1.0 / 3.0, 0.25, 0.2}[trial%5])
		cfg.SplitFactor = 2 + trial%3
		res := encryptTable(t, tbl, cfg)
		want := fd.DiscoverWitnessed(tbl)
		got := fd.DiscoverWitnessed(res.Encrypted)
		if !want.Equal(got) {
			t.Fatalf("trial %d (attrs=%d rows=%d dom=%d α=%v ϖ=%d): FDs differ\n plain:  %v\n cipher: %v\ntable:\n%v",
				trial, attrs, rows, domain, cfg.Alpha, cfg.SplitFactor, want, got, tbl)
		}
	}
}
