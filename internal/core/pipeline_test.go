package core

import (
	"context"
	"strings"
	"testing"

	"f2/internal/crypt"
	"f2/internal/fd"
	"f2/internal/mas"
	"f2/internal/partition"
	"f2/internal/relation"
)

// figure3Table is the running example of §3.3 (Figure 3(a)): two
// overlapping MASs X = {A,B} and Y = {B,C} and the FD C→B.
func figure3Table() *relation.Table {
	return relation.MustFromRows(relation.MustSchema("A", "B", "C"), [][]string{
		{"a3", "b2", "c1"},
		{"a1", "b2", "c1"},
		{"a2", "b2", "c1"},
		{"a2", "b2", "c2"},
		{"a3", "b2", "c2"},
		{"a1", "b1", "c3"},
	})
}

func TestFigure3OverlappingMASs(t *testing.T) {
	tbl := figure3Table()
	got := mas.Discover(tbl)
	want := []relation.AttrSet{relation.NewAttrSet(0, 1), relation.NewAttrSet(1, 2)}
	if len(got.Sets) != 2 || got.Sets[0] != want[0] || got.Sets[1] != want[1] {
		t.Fatalf("MASs = %v, want %v", got.Sets, want)
	}
	if h := overlappingPairs(got.Sets); h != 1 {
		t.Fatalf("overlapping pairs = %d, want 1", h)
	}
}

// overlappingPairs counts the pairs of MASs that share an attribute: h
// in Theorem 3.3's bound on conflict-resolution rows.
func overlappingPairs(sets []relation.AttrSet) int {
	h := 0
	for i := range sets {
		for j := i + 1; j < len(sets); j++ {
			if sets[i].Overlaps(sets[j]) {
				h++
			}
		}
	}
	return h
}

func TestFigure3ConflictResolutionPreservesFD(t *testing.T) {
	tbl := figure3Table()
	res := encryptTable(t, tbl, testConfig(0.5))

	// The paper's point: the naive resolution (Figure 3(e)) breaks C→B;
	// the correct one (Figure 3(f)) preserves it.
	want := fd.DiscoverWitnessed(tbl)
	got := fd.DiscoverWitnessed(res.Encrypted)
	if !want.Equal(got) {
		t.Fatalf("FDs differ after conflict resolution:\n plain: %v\n cipher: %v", want, got)
	}
	cb := fd.FD{LHS: relation.NewAttrSet(2), RHS: 1}
	if !fd.Holds(partition.NewCache(relation.Encode(tbl)), cb) {
		t.Fatal("C→B should hold on the example table")
	}
	if !fd.Holds(partition.NewCache(relation.Encode(res.Encrypted)), cb) {
		t.Fatal("C→B broken on the ciphertext (naive-resolution bug)")
	}
}

func TestConflictResolutionAddsBoundedRows(t *testing.T) {
	tbl := figure3Table()
	res := encryptTable(t, tbl, testConfig(0.5))
	// Theorem 3.3: rows added by conflict resolution ≤ h·n with h
	// overlapping MAS pairs.
	h := overlappingPairs(res.MASs)
	if res.Report.ConflictRows > h*tbl.NumRows() {
		t.Fatalf("conflict rows %d exceed h·n = %d", res.Report.ConflictRows, h*tbl.NumRows())
	}
}

func TestSkipConflictResolutionBreaksFDs(t *testing.T) {
	tbl := figure3Table()
	cfg := testConfig(0.5)
	cfg.SkipConflictResolution = true
	res := encryptTable(t, tbl, cfg)
	cb := fd.FD{LHS: relation.NewAttrSet(2), RHS: 1}
	if fd.Holds(partition.NewCache(relation.Encode(res.Encrypted)), cb) {
		t.Fatal("C→B survived without conflict resolution — ablation flag has no effect")
	}
}

// figure4Table is the Example 3.1 / Figure 4(a) table: MAS {A,B} whose ECs
// collide, so A→B does not hold in D but would falsely hold after
// steps 1–3.
func figure4Table() *relation.Table {
	rows := [][]string{}
	add := func(a, b string, count int) {
		for i := 0; i < count; i++ {
			rows = append(rows, []string{a, b})
		}
	}
	add("a1", "b1", 5)
	add("a2", "b3", 2)
	add("a1", "b2", 4)
	add("a2", "b4", 3)
	return relation.MustFromRows(relation.MustSchema("A", "B"), rows)
}

func TestFigure4FalsePositiveEliminated(t *testing.T) {
	tbl := figure4Table()
	ab := fd.FD{LHS: relation.NewAttrSet(0), RHS: 1}
	if fd.Holds(partition.NewCache(relation.Encode(tbl)), ab) {
		t.Fatal("A→B should fail on Figure 4(a)")
	}
	// Without Step 4 the false positive appears (Example 3.1).
	cfg := testConfig(1.0 / 3)
	cfg.SkipFPElimination = true
	res := encryptTable(t, tbl, cfg)
	if !fd.Holds(partition.NewCache(relation.Encode(res.Encrypted)), ab) {
		t.Fatal("expected A→B to falsely hold without Step 4")
	}
	// With Step 4 it is eliminated.
	res = encryptTable(t, tbl, testConfig(1.0/3))
	if fd.Holds(partition.NewCache(relation.Encode(res.Encrypted)), ab) {
		t.Fatal("A→B still falsely holds after Step 4")
	}
	// Theorem 3.6 lower bound: at least 2k artificial records.
	if res.Report.FPRows < 2*res.Report.K {
		t.Fatalf("FP rows = %d, want ≥ 2k = %d", res.Report.FPRows, 2*res.Report.K)
	}
}

func TestRequirement2InstancesCollisionFree(t *testing.T) {
	// Requirement 2 of Def. 3.1: distinct instances of the same EC share
	// no ciphertext on any attribute; and ciphertexts never repeat across
	// different ECs.
	tbl := figure2Table()
	res := encryptTable(t, tbl, testConfig(1.0/3))
	enc := res.Encrypted
	for a := 0; a < enc.NumAttrs(); a++ {
		// Within a column, a ciphertext value must decrypt to exactly one
		// plaintext (no cross-EC reuse); verified via the decryptor.
		dec, err := NewDecryptor(testConfig(1.0 / 3))
		if err != nil {
			t.Fatal(err)
		}
		plainOf := map[string]string{}
		plain, err := dec.DecryptTable(context.Background(), enc)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < enc.NumRows(); i++ {
			ct := enc.Cell(i, a)
			p := plain.Cell(i, a)
			if prev, ok := plainOf[ct]; ok && prev != p {
				t.Fatalf("ciphertext %q decrypts to both %q and %q", ct, prev, p)
			}
			plainOf[ct] = p
		}
	}
}

func TestMASsPreservedUnderEncryption(t *testing.T) {
	// The MAS structure of Dˆ must equal that of D (the proof of Thm 3.7
	// depends on it, and the server's Step-1 view should be undistorted).
	for _, tblFn := range []func() *relation.Table{figure1Table, figure2Table, figure3Table, figure4Table} {
		tbl := tblFn()
		res := encryptTable(t, tbl, testConfig(0.5))
		want := mas.Discover(tbl).Sets
		got := mas.Discover(res.Encrypted).Sets
		if len(want) != len(got) {
			t.Fatalf("MAS count changed: %v vs %v", want, got)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("MAS sets changed: %v vs %v", want, got)
			}
		}
	}
}

func TestScaleCopiesAndFakeRowsCarryMASOnly(t *testing.T) {
	tbl := figure2Table()
	cfg := testConfig(0.25)
	res := encryptTable(t, tbl, cfg)
	dec, err := NewDecryptor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := dec.DecryptTable(context.Background(), res.Encrypted)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Origins {
		switch o.Kind {
		case RowScaleCopy:
			// MAS attributes decrypt to real values, the rest to filler.
			for a := 0; a < plain.NumAttrs(); a++ {
				artificial := IsArtificialValue(plain.Cell(i, a))
				if o.Carried.Has(a) && artificial {
					t.Fatalf("scale copy row %d: MAS attr %d is filler", i, a)
				}
				if !o.Carried.Has(a) && !artificial {
					t.Fatalf("scale copy row %d: non-MAS attr %d is real", i, a)
				}
			}
		case RowFakeEC, RowFPArtificial:
			for a := 0; a < plain.NumAttrs(); a++ {
				if !IsArtificialValue(plain.Cell(i, a)) {
					t.Fatalf("%v row %d: attr %d not artificial", o.Kind, i, a)
				}
			}
		}
	}
}

func TestEncryptEdgeCases(t *testing.T) {
	cfg := testConfig(0.5)
	// Empty table.
	empty := relation.NewTable(relation.MustSchema("A", "B"))
	res := encryptTable(t, empty, cfg)
	if res.Encrypted.NumRows() != 0 {
		t.Errorf("empty table encrypted to %d rows", res.Encrypted.NumRows())
	}
	// Single row (no MAS at all).
	one := relation.MustFromRows(relation.MustSchema("A", "B"), [][]string{{"x", "y"}})
	res = encryptTable(t, one, cfg)
	if res.Encrypted.NumRows() != 1 || len(res.MASs) != 0 {
		t.Errorf("single-row: %d rows, %d MASs", res.Encrypted.NumRows(), len(res.MASs))
	}
	// All-unique table: everything singleton-encrypted, zero overhead.
	uniq := relation.MustFromRows(relation.MustSchema("A", "B"), [][]string{
		{"1", "x"}, {"2", "y"}, {"3", "z"},
	})
	res = encryptTable(t, uniq, cfg)
	if r := res.Report; r.GroupRows+r.ScaleRows+r.ConflictRows+r.FPRows != 0 {
		t.Errorf("unique table gained artificial rows: %+v", r)
	}
	// Fully duplicated table.
	dup := relation.MustFromRows(relation.MustSchema("A", "B"), [][]string{
		{"v", "w"}, {"v", "w"}, {"v", "w"}, {"v", "w"},
	})
	res = encryptTable(t, dup, cfg)
	if got := fd.DiscoverWitnessed(res.Encrypted); !got.Equal(fd.DiscoverWitnessed(dup)) {
		t.Errorf("duplicated-table FDs differ")
	}
}

func TestConfigValidation(t *testing.T) {
	key := crypt.KeyFromSeed("cfg")
	bad := []Config{
		{Alpha: 0, Key: key},
		{Alpha: -0.5, Key: key},
		{Alpha: 1.5, Key: key},
		{Alpha: 0.5, SplitFactor: 1, Key: key},
		{Alpha: 0.5, SplitFactor: -2, Key: key},
		{Alpha: 0.5, MinInstanceFreq: -1, Key: key},
		{Alpha: 0.5, Parallelism: -1, Key: key},
		{Alpha: 0.5, Parallelism: MaxParallelism + 1, Key: key},
	}
	for i, cfg := range bad {
		if _, err := NewEncryptor(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	good := Config{Alpha: 0.5, Key: key}
	if _, err := NewEncryptor(good); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
	if good.K() != 2 {
		t.Errorf("K(0.5) = %d", good.K())
	}
	tenth := Config{Alpha: 0.1, Key: key}
	if tenth.K() != 10 {
		t.Errorf("K(0.1) = %d, want 10 (⌈1/α⌉ with float slop)", tenth.K())
	}
}

func TestTooWideTableRejected(t *testing.T) {
	names := make([]string, relation.MaxAttrs)
	for i := range names {
		names[i] = "c" + strings.Repeat("x", i+1)
	}
	// relation.MaxAttrs columns is fine; the guard protects the bitset.
	tbl := relation.NewTable(relation.MustSchema(names...))
	row := make([]string, len(names))
	for i := range row {
		row[i] = "v"
	}
	tbl.AppendRow(row)
	enc, err := NewEncryptor(testConfig(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Encrypt(context.Background(), tbl); err != nil {
		t.Errorf("64-column table rejected: %v", err)
	}
}

func TestReportString(t *testing.T) {
	tbl := figure2Table()
	res := encryptTable(t, tbl, testConfig(0.25))
	s := res.Report.String()
	for _, want := range []string{"F² report", "MASs: 1", "GROUP=", "SCALE=", "FP="} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	if res.Report.TotalTime() <= 0 {
		t.Error("TotalTime not positive")
	}
}

func TestRowKindString(t *testing.T) {
	kinds := []RowKind{RowOriginal, RowConflictPart, RowScaleCopy, RowFakeEC, RowFPArtificial}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("RowKind %d: bad String %q", k, s)
		}
		seen[s] = true
	}
}
