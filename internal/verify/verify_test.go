package verify

import (
	"math/rand"
	"testing"

	"f2/internal/fd"
	"f2/internal/partition"
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

// TestOmissionCaughtOnRandomTables drops one witnessed FD with a
// three-attribute LHS from honest claims and checks the package's promise
// for omissions above the exhaustive pairs: they are caught with
// probability growing in the number of probes.
func TestOmissionCaughtOnRandomTables(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	probes := []int{200, 1000}
	caught := make([]int, len(probes))
	total := 0
	for trial := 0; trial < 40; trial++ {
		tbl := plantedTable3(rng, 30)
		claimed, drop, ok := omitOne(rng, tbl, 3)
		if !ok {
			continue
		}
		total++
		for i, n := range probes {
			if v := CheckWitnessedClaims(tbl, claimed, n, int64(trial)); !v.OK() {
				caught[i]++
			}
		}
		_ = drop
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

// TestTwoAttributeOmissionsAlwaysCaught: every omitted witnessed FD whose
// LHS has two attributes is caught at the default 200 probes, because
// those LHSs are probed exhaustively. The tables carry a planted {A,B}→D;
// random probes alone caught 84 of these 200 omissions.
func TestTwoAttributeOmissionsAlwaysCaught(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	total, caught := 0, 0
	for trial := 0; total < 200; trial++ {
		if trial > 2000 {
			t.Fatalf("only %d effective omissions in %d tables", total, trial)
		}
		tbl := plantedTable(rng, 30, 3)
		claimed, drop, ok := omitOne(rng, tbl, 2)
		if !ok {
			continue
		}
		total++
		v := CheckWitnessedClaims(tbl, claimed, 200, int64(trial))
		if !v.OK() {
			caught++
		} else {
			t.Errorf("trial %d: omitted %v not caught", trial, drop)
		}
	}
	t.Logf("omissions caught: %d/%d at 200 probes", caught, total)
}

// omitOne returns tbl's witnessed FDs minus one, chosen at random among
// those whose LHS has size attributes, and the FD it dropped; ok is false
// if there is none, or if the rest imply it (then nothing is omitted).
func omitOne(rng *rand.Rand, tbl *relation.Table, size int) (claimed *fd.Set, drop fd.FD, ok bool) {
	var pick []fd.FD
	all := fd.DiscoverWitnessed(tbl).Slice()
	for _, f := range all {
		if f.LHS.Size() == size {
			pick = append(pick, f)
		}
	}
	if len(pick) == 0 {
		return nil, drop, false
	}
	drop = pick[rng.Intn(len(pick))]
	claimed = fd.NewSet()
	for _, f := range all {
		if f != drop {
			claimed.Add(f)
		}
	}
	return claimed, drop, !fd.Implies(claimed, drop)
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

// plantedTable3 is a random 5-column table whose last column is a
// function of the first three, (4a+2b+c) mod 5 over binary A, B and C, in
// which no two of them determine it: {A,B,C}→E is witnessed and minimal.
func plantedTable3(rng *rand.Rand, rows int) *relation.Table {
	tbl := relation.NewTable(relation.MustSchema("A", "B", "C", "D", "E"))
	for r := 0; r < rows; r++ {
		a, b, c := rng.Intn(2), rng.Intn(2), rng.Intn(2)
		tbl.AppendRow([]string{
			"a" + string(rune('0'+a)),
			"b" + string(rune('0'+b)),
			"c" + string(rune('0'+c)),
			"d" + string(rune('0'+rng.Intn(3))),
			"e" + string(rune('0'+(4*a+2*b+c)%5)),
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
	if fd.Witnessed(partition.NewCache(relation.Encode(tbl)), vacuous) {
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
