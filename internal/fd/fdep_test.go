package fd

import (
	"math/rand"
	"testing"

	"f2/internal/relation"
)

func TestFDEPMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		attrs := 2 + rng.Intn(4)
		rows := 2 + rng.Intn(25)
		domain := 1 + rng.Intn(4)
		tbl := randomTable(rng, attrs, rows, domain)
		want := BruteForce(tbl)
		got := FDEP(tbl)
		if !want.Equal(got) {
			t.Fatalf("trial %d (a=%d r=%d d=%d):\n brute: %v\n fdep: %v\n missing: %v\n extra: %v\n%v",
				trial, attrs, rows, domain, want, got, want.Diff(got), got.Diff(want), tbl)
		}
	}
}

func TestFDEPMatchesTANE(t *testing.T) {
	// Cross-check the two independent algorithms on slightly larger
	// tables than brute force can handle.
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 20; trial++ {
		tbl := randomTable(rng, 5+rng.Intn(2), 100+rng.Intn(200), 2+rng.Intn(3))
		tane := Discover(tbl)
		fdep := FDEP(tbl)
		if !tane.Equal(fdep) {
			t.Fatalf("trial %d: TANE %v ≠ FDEP %v", trial, tane, fdep)
		}
	}
}

func TestFDEPEdgeCases(t *testing.T) {
	empty := relation.NewTable(relation.MustSchema("A", "B"))
	if got := FDEP(empty); got.Len() != 0 {
		t.Errorf("empty: %v", got)
	}
	one := relation.MustFromRows(relation.MustSchema("A", "B"), [][]string{{"x", "y"}})
	if got, want := FDEP(one), Discover(one); !got.Equal(want) {
		t.Errorf("single row: fdep %v, tane %v", got, want)
	}
}
