package fd

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"f2/internal/core"
	"f2/internal/crypt"
	"f2/internal/obs"
	"f2/internal/relation"
	"f2/internal/workload"
)

// encryptedTable returns the F² ciphertext of a generated dataset under a
// key derived from keySeed, with α = 0.25 and split factor 2. Encryption
// is deterministic given the key, so the result is reproducible.
func encryptedTable(tb testing.TB, name string, rows int, seed int64, keySeed string) *relation.Table {
	tb.Helper()
	plain, err := workload.Generate(name, rows, seed)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.DefaultConfig(crypt.KeyFromSeed(keySeed))
	cfg.Alpha, cfg.SplitFactor = 0.25, 2
	enc, err := core.NewEncryptor(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := enc.Encrypt(context.Background(), plain)
	if err != nil {
		tb.Fatal(err)
	}
	return res.Encrypted
}

// TestDiscoverGoldenEncrypted pins the FD sets TANE discovers on fixed
// ciphertexts, and the ciphertext sizes separately. The FD hashes were
// computed before Step 4 emitted one pair set per agreement pattern (and
// before the stripped-partition kernel moved to its flat layout); a change
// to encryption, the kernel or pruning that alters the discovered FDs shows
// up here. The row counts pin Step 4's output size: customer had 2,866
// rows and orders 2,061 when every maximal violated node got its own pair
// set; synthetic had the same 1,015.
func TestDiscoverGoldenEncrypted(t *testing.T) {
	if testing.Short() {
		t.Skip("encrypts three datasets")
	}
	cases := []struct {
		name     string
		rows     int
		seed     int64
		wantRows int
		want     string
	}{
		{workload.NameCustomer, 300, 3, 570, "c4387dfe81bd13a4"},
		{workload.NameOrders, 1000, 5, 2005, "18c80921030fa33a"},
		{workload.NameSynthetic, 1000, 7, 1015, "063def4cda692f33"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			enc := encryptedTable(t, c.name, c.rows, c.seed, fmt.Sprintf("golden-%s-%d", c.name, c.seed))
			if enc.NumRows() != c.wantRows {
				t.Errorf("ciphertext has %d rows, want %d", enc.NumRows(), c.wantRows)
			}
			sch := enc.Schema()
			var b strings.Builder
			for _, set := range []*Set{Discover(enc), DiscoverWitnessed(enc)} {
				for _, f := range set.Slice() {
					b.WriteString(f.Names(sch))
					b.WriteByte('\n')
				}
				b.WriteString("--\n")
			}
			sum := sha256.Sum256([]byte(b.String()))
			if got := hex.EncodeToString(sum[:8]); got != c.want {
				t.Errorf("FD output hash = %s, want %s\n%s", got, c.want, b.String())
			}
		})
	}
}

// TestDiscoverWorkCustomer pins the lattice's work on the ciphertext
// BenchmarkDiscoverWitnessedEncrypted times (customer-600, seed 1): the
// fd.discover span reports 5 levels and 2,756 products. A rewrite of
// candidate generation or pruning that adds levels or products, without
// changing the FDs, shows up here.
func TestDiscoverWorkCustomer(t *testing.T) {
	if testing.Short() {
		t.Skip("encrypts a dataset")
	}
	enc := encryptedTable(t, workload.NameCustomer, 600, 1, "f2bench-1")
	ctx, tr := obs.NewTrace(context.Background(), "", "fds")
	if _, err := DiscoverWitnessedCtx(ctx, enc); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	root := tr.Snapshot().Root
	if len(root.Children) != 1 || root.Children[0].Name != "fd.discover" {
		t.Fatalf("spans = %+v, want one fd.discover", root.Children)
	}
	if attrs := root.Children[0].Attrs; attrs["levels"] != 5 || attrs["products"] != 2756 {
		t.Errorf("fd.discover attrs = %v, want levels 5 and products 2756", attrs)
	}
}
