package fd

import (
	"math/rand"
	"testing"
)

// TestWitnessedEqualsReprobeFilter pins the DiscoverWitnessed rework: the
// witnessed set is now collected during the TANE run from the stripped
// partitions already in hand, instead of re-encoding the table and probing
// every LHS for duplicates afterwards. Both must agree exactly, so this
// test re-implements the old filter and compares.
func TestWitnessedEqualsReprobeFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		tbl := randomTable(rng, 2+rng.Intn(4), 3+rng.Intn(30), 1+rng.Intn(4))
		all := Discover(tbl)
		want := NewSet()
		if all.Len() > 0 {
			for _, f := range all.Slice() {
				if tbl.HasDuplicateOn(f.LHS) {
					want.Add(f)
				}
			}
		}
		got := DiscoverWitnessed(tbl)
		if !want.Equal(got) {
			t.Fatalf("trial %d:\n reprobe: %v\n inline:  %v\n%v", trial, want, got, tbl)
		}
	}
}
