package verify

import (
	"math/rand"
	"testing"

	"f2/internal/fd"
	"f2/internal/relation"
)

func zipTable() *relation.Table {
	return relation.MustFromRows(relation.MustSchema("Zip", "City", "Name"), [][]string{
		{"07030", "Hoboken", "alice"},
		{"07030", "Hoboken", "bob"},
		{"07302", "JerseyCity", "carol"},
		{"07310", "JerseyCity", "dave"},
		{"07310", "JerseyCity", "erin"},
	})
}

func TestHonestServerPasses(t *testing.T) {
	tbl := zipTable()
	claimed := fd.Discover(tbl)
	v := CheckClaims(tbl, claimed, 200, 1)
	if !v.OK() {
		t.Fatalf("honest claim rejected: sound=%v missed=%v", v.Sound, v.Missed)
	}
	if v.Probes == 0 {
		t.Error("no completeness probes ran")
	}
}

func TestFabricatedFDCaught(t *testing.T) {
	tbl := zipTable()
	claimed := fd.Discover(tbl)
	fake := fd.FD{LHS: relation.NewAttrSet(1), RHS: 0} // City→Zip fails
	claimed.Add(fake)
	v := CheckClaims(tbl, claimed, 50, 1)
	if v.Sound {
		t.Fatal("fabricated FD not caught")
	}
	if len(v.FalseClaims) != 1 || v.FalseClaims[0] != fake {
		t.Fatalf("FalseClaims = %v", v.FalseClaims)
	}
}

func TestOmittedFDCaught(t *testing.T) {
	tbl := zipTable()
	claimed := fd.NewSet()
	for _, f := range fd.Discover(tbl).Slice() {
		// Omit Zip→City.
		if f.LHS == relation.NewAttrSet(0) && f.RHS == 1 {
			continue
		}
		claimed.Add(f)
	}
	v := CheckClaims(tbl, claimed, 200, 1)
	if v.OK() {
		t.Fatal("omitted FD not caught")
	}
	found := false
	for _, f := range v.Missed {
		if fd.Implies(fd.NewSet(f), fd.FD{LHS: relation.NewAttrSet(0), RHS: 1}) || f.LHS.SubsetOf(relation.NewAttrSet(0)) {
			found = true
		}
	}
	if !found && len(v.Missed) == 0 {
		t.Fatalf("Missed = %v", v.Missed)
	}
}

func TestOmissionCaughtOnRandomTables(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	caught, total := 0, 0
	for trial := 0; trial < 40; trial++ {
		tbl := randomTable(rng, 4, 30, 2)
		truth := fd.Discover(tbl)
		if truth.Len() == 0 {
			continue
		}
		// Drop one random FD.
		all := truth.Slice()
		drop := all[rng.Intn(len(all))]
		claimed := fd.NewSet()
		for _, f := range all {
			if f != drop {
				claimed.Add(f)
			}
		}
		if fd.Implies(claimed, drop) {
			continue // the rest implies it; not an omission
		}
		total++
		if v := CheckClaims(tbl, claimed, 400, int64(trial)); !v.OK() {
			caught++
		}
	}
	if total == 0 {
		t.Skip("no effective omissions generated")
	}
	if float64(caught)/float64(total) < 0.8 {
		t.Fatalf("probabilistic completeness check caught %d/%d omissions", caught, total)
	}
}

func TestCheckAgainstDiscovery(t *testing.T) {
	tbl := zipTable()
	truth := fd.Discover(tbl)
	missing, fabricated := CheckAgainstDiscovery(tbl, truth)
	if len(missing) != 0 || len(fabricated) != 0 {
		t.Fatalf("gold check on honest claim: missing=%v fabricated=%v", missing, fabricated)
	}
	tampered := fd.NewSet(fd.FD{LHS: relation.NewAttrSet(1), RHS: 0})
	missing, fabricated = CheckAgainstDiscovery(tbl, tampered)
	if len(missing) == 0 || len(fabricated) == 0 {
		t.Fatalf("gold check missed tampering: missing=%v fabricated=%v", missing, fabricated)
	}
}

func randomTable(rng *rand.Rand, attrs, rows, domain int) *relation.Table {
	names := make([]string, attrs)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	tbl := relation.NewTable(relation.MustSchema(names...))
	for r := 0; r < rows; r++ {
		row := make([]string, attrs)
		for a := range row {
			row[a] = string(rune('a'+a)) + string(rune('0'+rng.Intn(domain)))
		}
		tbl.AppendRow(row)
	}
	return tbl
}

func TestWitnessedClaimsHonestServerPasses(t *testing.T) {
	tbl := zipTable()
	claimed := fd.DiscoverWitnessed(tbl)
	v := CheckWitnessedClaims(tbl, claimed, 200, 1)
	if !v.OK() {
		t.Fatalf("honest witnessed claim rejected: sound=%v missed=%v", v.Sound, v.Missed)
	}
	if v.Probes == 0 {
		t.Error("no completeness probes ran")
	}
}

func TestWitnessedClaimsVacuousFDNotRequired(t *testing.T) {
	// Name is unique, so Name→Zip holds vacuously but is not witnessed: a
	// witnessed claim omitting it must still verify, and a claim
	// containing it is unsound (the paper's server cannot witness it).
	tbl := zipTable()
	claimed := fd.DiscoverWitnessed(tbl)
	if v := CheckWitnessedClaims(tbl, claimed, 200, 1); !v.OK() {
		t.Fatalf("witnessed claim flagged for vacuous FDs: missed=%v", v.Missed)
	}
	vacuous := fd.FD{LHS: relation.NewAttrSet(2), RHS: 0} // Name→Zip, unique LHS
	if fd.Witnessed(relation.Encode(tbl), vacuous) {
		t.Fatal("test premise broken: Name→Zip should be unwitnessed")
	}
	claimed.Add(vacuous)
	if v := CheckWitnessedClaims(tbl, claimed, 50, 1); v.Sound {
		t.Fatal("unwitnessed claimed FD not caught")
	}
}

func TestWitnessedClaimsOmittedFDCaught(t *testing.T) {
	tbl := zipTable()
	claimed := fd.NewSet() // server claims nothing at all
	v := CheckWitnessedClaims(tbl, claimed, 300, 1)
	if len(v.Missed) == 0 {
		t.Fatal("empty claim passed completeness probing")
	}
}
