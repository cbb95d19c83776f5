package core

import (
	"context"
	"reflect"
	"testing"

	"f2/internal/relation"
	"f2/internal/workload"
)

func TestRecoverWithConflictSplitTuples(t *testing.T) {
	// Figure 3's table forces type-2 conflicts: rows claimed by both
	// MASs are split into parts, and Recover must stitch them back.
	tbl := relation.MustFromRows(relation.MustSchema("A", "B", "C"), [][]string{
		{"a3", "b2", "c1"},
		{"a1", "b2", "c1"},
		{"a2", "b2", "c1"},
		{"a2", "b2", "c2"},
		{"a3", "b2", "c2"},
		{"a1", "b1", "c3"},
	})
	cfg := testConfig(0.5)
	res := encryptTable(t, tbl, cfg)
	if res.Report.ConflictRows == 0 {
		t.Fatal("expected type-2 conflicts on the Figure 3 table")
	}
	dec, err := NewDecryptor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := dec.Recover(context.Background(), res)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.SortedRows(), tbl.SortedRows()) {
		t.Fatalf("recover mismatch:\n got %v\n want %v", back.SortedRows(), tbl.SortedRows())
	}
	// Row order must be the original order, not just the same multiset.
	for i := 0; i < tbl.NumRows(); i++ {
		if !reflect.DeepEqual(back.Row(i), tbl.Row(i)) {
			t.Fatalf("row %d out of order: %v vs %v", i, back.Row(i), tbl.Row(i))
		}
	}
}

func TestRecoverWorkloadRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("all-workload recovery round-trip skipped in -short mode")
	}
	for _, name := range workload.Names() {
		tbl, err := workload.Generate(name, 800, 3)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(0.25)
		res := encryptTable(t, tbl, cfg)
		dec, err := NewDecryptor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		back, err := dec.Recover(context.Background(), res)
		if err != nil {
			t.Fatalf("%s: Recover: %v", name, err)
		}
		if back.NumRows() != tbl.NumRows() {
			t.Fatalf("%s: recovered %d rows, want %d", name, back.NumRows(), tbl.NumRows())
		}
		for i := 0; i < tbl.NumRows(); i++ {
			for a := 0; a < tbl.NumAttrs(); a++ {
				if back.Cell(i, a) != tbl.Cell(i, a) {
					t.Fatalf("%s: cell (%d,%d) mismatch", name, i, a)
				}
			}
		}
	}
}

func TestStripArtificialKeepsOnlyWholeRows(t *testing.T) {
	// Figure 2's columns plus a unique ID: the MAS stays {A,B}, so every
	// artificial row (fake ECs, FP pairs, scale copies) carries filler on
	// ID and is stripped.
	base := figure2Table()
	tbl := relation.NewTable(relation.MustSchema("ID", "A", "B"))
	for i := 0; i < base.NumRows(); i++ {
		tbl.AppendRow(append([]string{string(rune('a' + i))}, base.Row(i)...))
	}
	cfg := testConfig(0.25)
	res := encryptTable(t, tbl, cfg)
	dec, err := NewDecryptor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stripped, err := dec.StripArtificial(context.Background(), res.Encrypted)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.ConflictRows != 0 {
		t.Fatal("unexpected conflicts")
	}
	if !reflect.DeepEqual(stripped.SortedRows(), tbl.SortedRows()) {
		t.Fatalf("strip mismatch: %d rows vs %d", stripped.NumRows(), tbl.NumRows())
	}
}

func TestDecryptTableWrongKeyFailsOrGarbles(t *testing.T) {
	tbl := figure2Table()
	cfg := testConfig(0.25)
	res := encryptTable(t, tbl, cfg)

	other := cfg
	other.Key[0] ^= 0xff
	dec, err := NewDecryptor(other)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := dec.DecryptTable(context.Background(), res.Encrypted)
	if err != nil {
		return // malformed is acceptable
	}
	// If it "decrypts", the cells must not match the real plaintext.
	same := 0
	for i := 0; i < tbl.NumRows(); i++ {
		if plain.Cell(i, 0) == tbl.Cell(i, 0) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("wrong key recovered %d cells", same)
	}
}

func TestRecoverRejectsMismatchedProvenance(t *testing.T) {
	tbl := figure2Table()
	cfg := testConfig(0.25)
	res := encryptTable(t, tbl, cfg)
	dec, err := NewDecryptor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	broken := &Result{Encrypted: res.Encrypted, Origins: res.Origins[:len(res.Origins)-1]}
	if _, err := dec.Recover(context.Background(), broken); err == nil {
		t.Fatal("short provenance accepted")
	}
}

// TestRecoverRejectsOutOfRangeSourceRow: provenance can be read from a
// file, so a source row index outside the table is an error, not a panic
// or an allocation sized by the bad index.
func TestRecoverRejectsOutOfRangeSourceRow(t *testing.T) {
	tbl := figure2Table()
	cfg := testConfig(0.25)
	res := encryptTable(t, tbl, cfg)
	dec, err := NewDecryptor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []int{-1, len(res.Origins), 1 << 40} {
		origins := append([]RowOrigin(nil), res.Origins...)
		origins[0].SourceRow = src
		broken := &Result{Encrypted: res.Encrypted, Origins: origins}
		if _, err := dec.Recover(context.Background(), broken); err == nil {
			t.Errorf("source row %d accepted", src)
		}
	}
}
