package core

import (
	"context"
	"math/rand"
	"testing"

	"f2/internal/crypt"
	"f2/internal/fd"
	"f2/internal/relation"
)

func testConfig(alpha float64) Config {
	cfg := DefaultConfig(crypt.KeyFromSeed("f2-test-key"))
	cfg.Alpha = alpha
	return cfg
}

func encryptTable(t *testing.T, tbl *relation.Table, cfg Config) *Result {
	t.Helper()
	enc, err := NewEncryptor(cfg)
	if err != nil {
		t.Fatalf("NewEncryptor: %v", err)
	}
	res, err := enc.Encrypt(context.Background(), tbl)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	return res
}

// figure1Table is the base table D of Figure 1(a): FD A→B.
func figure1Table() *relation.Table {
	return relation.MustFromRows(relation.MustSchema("A", "B", "C"), [][]string{
		{"a1", "b1", "c1"},
		{"a1", "b1", "c2"},
		{"a1", "b1", "c3"},
		{"a1", "b1", "c1"},
	})
}

func TestEncryptFigure1PreservesFD(t *testing.T) {
	tbl := figure1Table()
	res := encryptTable(t, tbl, testConfig(0.5))

	want := fd.DiscoverWitnessed(tbl)
	got := fd.DiscoverWitnessed(res.Encrypted)
	if !want.Equal(got) {
		t.Fatalf("witnessed FDs differ:\n plain: %v\n cipher: %v\n report: %v",
			want, got, res.Report.String())
	}
	if !want.Has(fd.FD{LHS: relation.NewAttrSet(0), RHS: 1}) {
		t.Fatalf("expected A→B among plaintext FDs, got %v", want)
	}
}

func TestEncryptRoundTrip(t *testing.T) {
	tbl := figure1Table()
	cfg := testConfig(0.25)
	res := encryptTable(t, tbl, cfg)
	dec, err := NewDecryptor(cfg)
	if err != nil {
		t.Fatalf("NewDecryptor: %v", err)
	}
	back, err := dec.Recover(context.Background(), res)
	if err != nil {
		t.Fatalf("Recover: %v\nreport: %v", err, res.Report.String())
	}
	if back.NumRows() != tbl.NumRows() {
		t.Fatalf("recovered %d rows, want %d", back.NumRows(), tbl.NumRows())
	}
	for i := 0; i < tbl.NumRows(); i++ {
		for a := 0; a < tbl.NumAttrs(); a++ {
			if back.Cell(i, a) != tbl.Cell(i, a) {
				t.Fatalf("cell (%d,%d): got %q want %q", i, a, back.Cell(i, a), tbl.Cell(i, a))
			}
		}
	}
}

// TestEncryptFrequencyFlattened checks the α-security core invariant: in
// the encrypted table, for every attribute, every ciphertext frequency f>1
// class has at least k distinct ciphertext values of that same frequency.
func TestEncryptFrequencyFlattened(t *testing.T) {
	tbl := relation.MustFromRows(relation.MustSchema("A", "B"), [][]string{
		{"a1", "b1"}, {"a1", "b1"}, {"a1", "b1"}, {"a1", "b1"}, {"a1", "b1"},
		{"a2", "b3"}, {"a2", "b3"},
		{"a3", "b2"}, {"a3", "b2"}, {"a3", "b2"}, {"a3", "b2"},
		{"a4", "b4"}, {"a4", "b4"}, {"a4", "b4"},
	})
	cfg := testConfig(1.0 / 3.0)
	res := encryptTable(t, tbl, cfg)
	k := cfg.K()
	for a := 0; a < res.Encrypted.NumAttrs(); a++ {
		freq := res.Encrypted.Freq(a)
		byCount := make(map[int]int)
		for _, f := range freq {
			if f > 1 {
				byCount[f]++
			}
		}
		for f, vals := range byCount {
			if vals < k {
				t.Errorf("attr %d: only %d ciphertexts of frequency %d (< k=%d)\n%v",
					a, vals, f, k, res.Report.String())
			}
		}
	}
}

// TestEncryptRandomTablesPreserveFDs is the headline property test:
// witnessed FDs of random small tables survive encryption exactly.
func TestEncryptRandomTablesPreserveFDs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		tbl := randomTable(rng, 4, 24, 3)
		cfg := testConfig([]float64{0.5, 1.0 / 3.0, 0.25}[trial%3])
		res := encryptTable(t, tbl, cfg)

		want := fd.DiscoverWitnessed(tbl)
		got := fd.DiscoverWitnessed(res.Encrypted)
		if !want.Equal(got) {
			t.Fatalf("trial %d: witnessed FDs differ\n plain:  %v\n cipher: %v\n table:\n%v\nreport: %v",
				trial, want, got, tbl, res.Report.String())
		}
	}
}

// randomTable builds a random table with small value domains so FDs and
// duplicates occur frequently.
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
