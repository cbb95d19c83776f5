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

// TestHonestServerPasses: the server's honest answer, the witnessed FDs
// of the table, verifies on random tables too, where unique LHSs make
// many holding FDs vacuous.
func TestHonestServerPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		tbl := randomTable(rng, 4, 2+rng.Intn(30), 2+rng.Intn(3))
		if v := CheckWitnessedClaims(tbl, fd.DiscoverWitnessed(tbl), 200, int64(trial)); !v.OK() {
			t.Fatalf("trial %d: honest claim rejected: false=%v missed=%v\n%v", trial, v.FalseClaims, v.Missed, tbl)
		}
	}
}

func TestFabricatedFDCaught(t *testing.T) {
	tbl := zipTable()
	claimed := fd.DiscoverWitnessed(tbl)
	fake := fd.FD{LHS: relation.NewAttrSet(1), RHS: 0} // City→Zip fails
	claimed.Add(fake)
	v := CheckWitnessedClaims(tbl, claimed, 50, 1)
	if v.Sound {
		t.Fatal("fabricated FD not caught")
	}
	if len(v.FalseClaims) != 1 || v.FalseClaims[0] != fake {
		t.Fatalf("FalseClaims = %v", v.FalseClaims)
	}
}

func TestOmittedFDCaught(t *testing.T) {
	tbl := zipTable()
	zipCity := fd.FD{LHS: relation.NewAttrSet(0), RHS: 1}
	claimed := fd.NewSet()
	for _, f := range fd.DiscoverWitnessed(tbl).Slice() {
		if f != zipCity {
			claimed.Add(f)
		}
	}
	v := CheckWitnessedClaims(tbl, claimed, 200, 1)
	if !v.Sound {
		t.Fatalf("a subset of the witnessed FDs is sound, got FalseClaims = %v", v.FalseClaims)
	}
	found := false
	for _, f := range v.Missed {
		found = found || f == zipCity
	}
	if !found {
		t.Fatalf("omitted Zip→City not reported; Missed = %v", v.Missed)
	}
}

// TestOmissionCaughtOnRandomTables drops one witnessed FD from honest
// claims and checks the package's promise for omissions: they are caught
// with probability growing in the number of probes. The omitted FDs here
// have two-attribute LHSs, which the exhaustive single-attribute probes
// never reach.
func TestOmissionCaughtOnRandomTables(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	probes := []int{200, 1000}
	caught := make([]int, len(probes))
	total := 0
	for trial := 0; trial < 40; trial++ {
		tbl := plantedTable(rng, 30, 3)
		all := fd.DiscoverWitnessed(tbl).Slice()
		if len(all) == 0 {
			continue
		}
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
		for i, n := range probes {
			if v := CheckWitnessedClaims(tbl, claimed, n, int64(trial)); !v.OK() {
				caught[i]++
			}
		}
	}
	if total < 20 {
		t.Fatalf("only %d effective omissions generated", total)
	}
	t.Logf("omissions caught: %d/%d at %d probes, %d/%d at %d probes", caught[0], total, probes[0], caught[1], total, probes[1])
	if caught[1] <= caught[0] || float64(caught[1])/float64(total) < 0.8 {
		t.Fatalf("completeness probing caught %d/%d omissions at %d probes and %d/%d at %d",
			caught[0], total, probes[0], caught[1], total, probes[1])
	}
}

// plantedTable is a random 4-column table whose last column is a
// function of the first two, so {A,B}→D (or a reduction of it) is
// witnessed on top of whatever FDs chance produces.
func plantedTable(rng *rand.Rand, rows, domain int) *relation.Table {
	tbl := relation.NewTable(relation.MustSchema("A", "B", "C", "D"))
	for r := 0; r < rows; r++ {
		a, b := rng.Intn(domain), rng.Intn(domain)
		tbl.AppendRow([]string{
			"a" + string(rune('0'+a)),
			"b" + string(rune('0'+b)),
			"c" + string(rune('0'+rng.Intn(domain))),
			"d" + string(rune('0'+(a*7+b*3)%5)),
		})
	}
	return tbl
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
