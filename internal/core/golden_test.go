package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"f2/internal/crypt"
	"f2/internal/workload"
)

// ciphertextHash is a short SHA-256 over every ciphertext cell (rows in
// order, each cell length-prefixed) and every row's provenance.
func ciphertextHash(res *Result) string {
	h := sha256.New()
	var n [8]byte
	enc := res.Encrypted
	for i := 0; i < enc.NumRows(); i++ {
		for a := 0; a < enc.NumAttrs(); a++ {
			c := enc.Cell(i, a)
			binary.BigEndian.PutUint64(n[:], uint64(len(c)))
			h.Write(n[:])
			h.Write([]byte(c))
		}
	}
	for _, o := range res.Origins {
		fmt.Fprintf(h, "%d/%d/%d;", o.Kind, o.SourceRow, uint64(o.Carried))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestCiphertextGolden pins the exact ciphertext bytes and provenance the
// full pipeline emits for fixed (key, table) pairs at several engine
// widths and for both PRFs. Any change to the cell cipher, the tweak
// formats, the fresh-value minter or emission order shows up here; a
// faster implementation of any of them must leave every hash unchanged.
func TestCiphertextGolden(t *testing.T) {
	cases := []struct {
		name   string
		rows   int
		seed   int64
		prf    crypt.PRF
		widths []int
		want   string
	}{
		{workload.NameCustomer, 300, 3, crypt.PRFAESCTR, []int{1, 3, 8}, "00553d8c0faa204c"},
		{workload.NameOrders, 1000, 5, crypt.PRFAESCTR, []int{1, 3, 8}, "7bf9d333467f7920"},
		{workload.NameSynthetic, 1000, 7, crypt.PRFAESCTR, []int{1, 3, 8}, "1973d4feec430b2e"},
		{workload.NameCustomer, 300, 3, crypt.PRFHMAC, []int{3}, "6477ea6d8da26157"},
	}
	for _, c := range cases {
		plain, err := workload.Generate(c.name, c.rows, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range c.widths {
			t.Run(fmt.Sprintf("%s-%s-w%d", c.name, c.prf, w), func(t *testing.T) {
				cfg := DefaultConfig(crypt.KeyFromSeed(fmt.Sprintf("golden-%s-%d", c.name, c.seed)))
				cfg.Alpha, cfg.SplitFactor = 0.25, 2
				cfg.PRF = c.prf
				cfg.Parallelism = w
				res := encryptTable(t, plain, cfg)
				if got := ciphertextHash(res); got != c.want {
					t.Errorf("ciphertext hash = %s, want %s (%d rows)", got, c.want, res.Encrypted.NumRows())
				}
			})
		}
	}
}
