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
// ciphertexts. The hashes were computed before the stripped-partition
// kernel moved to its flat layout; a change to the kernel or to pruning
// that alters the discovered FDs shows up here.
func TestDiscoverGoldenEncrypted(t *testing.T) {
	if testing.Short() {
		t.Skip("encrypts three datasets")
	}
	cases := []struct {
		name string
		rows int
		seed int64
		want string
	}{
		{workload.NameCustomer, 300, 3, "d855f0accbac29be"},
		{workload.NameOrders, 1000, 5, "d272b304d8605eff"},
		{workload.NameSynthetic, 1000, 7, "4b8e4a25d34b500f"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			enc := encryptedTable(t, c.name, c.rows, c.seed, fmt.Sprintf("golden-%s-%d", c.name, c.seed))
			sch := enc.Schema()
			var b strings.Builder
			fmt.Fprintf(&b, "%d×%d\n", enc.NumRows(), enc.NumAttrs())
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
