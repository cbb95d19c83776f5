// Package f2_test holds the end-to-end testing.B benchmarks of the
// pipeline: encryption and decryption of a whole table at both
// parallelism widths, and the raw cell ciphers underneath. The paper's
// §5 tables and figures are regenerated by `f2perf -run 'paper/*'`.
package f2_test

import (
	"context"
	"testing"

	"f2/internal/core"
	"f2/internal/crypt"
	"f2/internal/perf"
	"f2/internal/relation"
	"f2/internal/workload"
)

// The deterministic key/config and the memoized dataset generator are
// shared with the perf harness via internal/perf, so every benchmark
// surface measures the same tables under the same configuration.
func benchKey() crypt.Key { return perf.Key() }

func benchConfig(alpha float64) core.Config { return perf.Config(alpha) }

func mustGen(b *testing.B, name string, n int) *relation.Table {
	b.Helper()
	t, err := perf.Dataset(name, n, 1)
	if err != nil {
		b.Fatal(err)
	}
	return t
}

func mustEncrypt(b *testing.B, tbl *relation.Table, cfg core.Config) *core.Result {
	b.Helper()
	enc, err := core.NewEncryptor(cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := enc.Encrypt(context.Background(), tbl)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkEncrypt measures encryption of one table at parallelism=1
// (every stage inline) and parallelism=0 (GOMAXPROCS workers for the
// stages that mint nothing; emission is serial at both). The outputs are
// byte-identical (enforced by TestParallelEncryptEquivalence in
// internal/core); only the wall clock and allocations may differ. Run
// with `go test -bench=BenchmarkEncrypt -benchtime=3x -benchmem .`; the
// encRows metric shows both widths emit the same number of rows.
func BenchmarkEncrypt(b *testing.B) {
	tbl := mustGen(b, workload.NameSynthetic, 33000)
	for _, c := range []struct {
		name string
		par  int
	}{
		{"parallelism=1", 1},
		{"parallelism=GOMAXPROCS", 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := benchConfig(0.25)
			cfg.Parallelism = c.par
			var last *core.Result
			for i := 0; i < b.N; i++ {
				last = mustEncrypt(b, tbl, cfg)
			}
			b.ReportMetric(float64(last.Encrypted.NumRows()), "encRows")
		})
	}
}

// BenchmarkDecrypt measures sharded table decryption the same way.
func BenchmarkDecrypt(b *testing.B) {
	tbl := mustGen(b, workload.NameSynthetic, 33000)
	res := mustEncrypt(b, tbl, benchConfig(0.25))
	for _, c := range []struct {
		name string
		par  int
	}{
		{"parallelism=1", 1},
		{"parallelism=GOMAXPROCS", 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := benchConfig(0.25)
			cfg.Parallelism = c.par
			dec, err := core.NewDecryptor(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.DecryptTable(context.Background(), res.Encrypted); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCipherCell measures the raw cell ciphers underneath everything.
func BenchmarkCipherCell(b *testing.B) {
	pc, err := crypt.NewProbCipher(benchKey(), crypt.PRFAESCTR)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("prob-encrypt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pc.EncryptCell("1996-03-14"); err != nil {
				b.Fatal(err)
			}
		}
	})
	ct, _ := pc.EncryptCell("1996-03-14")
	b.Run("decrypt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pc.DecryptCell(ct); err != nil {
				b.Fatal(err)
			}
		}
	})
}
