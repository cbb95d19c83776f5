// Package f2_test holds the testing.B benchmarks that regenerate every
// table and figure of the paper's evaluation (§5). Each benchmark mirrors
// one experiment of cmd/f2bench at a reduced default size so that
// `go test -bench=. -benchmem` completes in minutes; custom metrics
// (overhead %, attack success rate) are attached via b.ReportMetric.
package f2_test

import (
	"context"
	"fmt"
	"testing"

	"f2/internal/attack"
	"f2/internal/core"
	"f2/internal/crypt"
	"f2/internal/fd"
	"f2/internal/mas"
	"f2/internal/perf"
	"f2/internal/relation"
	"f2/internal/workload"
)

// The deterministic key/config and the memoized dataset generator are
// shared with internal/bench and the perf harness via internal/perf, so
// every benchmark surface measures the same tables under the same
// configuration.
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

// BenchmarkTable1Datasets regenerates Table 1: dataset generation plus the
// MAS discovery that characterizes each dataset.
func BenchmarkTable1Datasets(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{
		{workload.NameOrders, 10000},
		{workload.NameCustomer, 3000},
		{workload.NameSynthetic, 33000},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tbl := mustGen(b, c.name, c.n)
				res := mas.Discover(tbl)
				b.ReportMetric(float64(len(res.Sets)), "MASs")
			}
		})
	}
}

// BenchmarkFig6AlphaSweepSynthetic regenerates Figure 6(a): F² encryption
// time on the synthetic dataset for decreasing α.
func BenchmarkFig6AlphaSweepSynthetic(b *testing.B) {
	tbl := mustGen(b, workload.NameSynthetic, 33000)
	for _, alpha := range []float64{1.0 / 5, 1.0 / 20, 1.0 / 40} {
		b.Run(fmt.Sprintf("alpha=1_%d", int(1/alpha)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEncrypt(b, tbl, benchConfig(alpha))
			}
		})
	}
}

// BenchmarkFig6AlphaSweepOrders regenerates Figure 6(b) on Orders.
func BenchmarkFig6AlphaSweepOrders(b *testing.B) {
	tbl := mustGen(b, workload.NameOrders, 10000)
	for _, alpha := range []float64{1.0 / 5, 1.0 / 15, 1.0 / 25} {
		b.Run(fmt.Sprintf("alpha=1_%d", int(1/alpha)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEncrypt(b, tbl, benchConfig(alpha))
			}
		})
	}
}

// BenchmarkFig7SizeSweepSynthetic regenerates Figure 7(a): encryption time
// versus data size (α = 0.25).
func BenchmarkFig7SizeSweepSynthetic(b *testing.B) {
	for _, n := range []int{16000, 33000, 66000} {
		tbl := mustGen(b, workload.NameSynthetic, n)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEncrypt(b, tbl, benchConfig(0.25))
			}
		})
	}
}

// BenchmarkFig7SizeSweepOrders regenerates Figure 7(b) (α = 0.2).
func BenchmarkFig7SizeSweepOrders(b *testing.B) {
	for _, n := range []int{5000, 10000, 20000} {
		tbl := mustGen(b, workload.NameOrders, n)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEncrypt(b, tbl, benchConfig(0.2))
			}
		})
	}
}

// BenchmarkFig8Baselines regenerates Figure 8: F² vs deterministic AES vs
// Paillier on the same table (Orders, 2000 rows).
func BenchmarkFig8Baselines(b *testing.B) {
	tbl := mustGen(b, workload.NameOrders, 2000)
	b.Run("F2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustEncrypt(b, tbl, benchConfig(0.2))
		}
	})
	b.Run("AES-deterministic", func(b *testing.B) {
		det, err := crypt.NewDetCipher(benchKey())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < tbl.NumRows(); r++ {
				for a := 0; a < tbl.NumAttrs(); a++ {
					if _, err := det.EncryptCell(tbl.Cell(r, a)); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
	b.Run("Paillier", func(b *testing.B) {
		pk, err := crypt.GeneratePaillier(512)
		if err != nil {
			b.Fatal(err)
		}
		// One row per iteration: full-table Paillier is the paper's
		// "cannot finish within one day" point.
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := i % tbl.NumRows()
			for a := 0; a < tbl.NumAttrs(); a++ {
				if _, err := pk.EncryptCell(tbl.Cell(r, a)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkFig9Overhead regenerates Figure 9: the artificial-record space
// overhead, reported as a custom metric, vs α on Customer (a) and Orders
// (b).
func BenchmarkFig9Overhead(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{
		{workload.NameCustomer, 3000},
		{workload.NameOrders, 10000},
	} {
		tbl := mustGen(b, c.name, c.n)
		for _, alpha := range []float64{1.0 / 2, 1.0 / 5, 1.0 / 10} {
			b.Run(fmt.Sprintf("%s/alpha=1_%d", c.name, int(1/alpha)), func(b *testing.B) {
				var last *core.Result
				for i := 0; i < b.N; i++ {
					last = mustEncrypt(b, tbl, benchConfig(alpha))
				}
				r := last.Report
				b.ReportMetric(100*r.Overhead(), "overhead%")
				b.ReportMetric(float64(r.GroupRows), "GROUProws")
				b.ReportMetric(float64(r.FPRows), "FProws")
			})
		}
	}
}

// BenchmarkFig10Discovery regenerates Figure 10: TANE on the plaintext vs
// the F²-encrypted table (the discovery-time overhead the server pays).
func BenchmarkFig10Discovery(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{
		{workload.NameCustomer, 2000},
		{workload.NameOrders, 5000},
	} {
		tbl := mustGen(b, c.name, c.n)
		res := mustEncrypt(b, tbl, benchConfig(0.2))
		b.Run(c.name+"/plain", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fd.DiscoverWitnessed(tbl)
			}
		})
		b.Run(c.name+"/encrypted", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fd.DiscoverWitnessed(res.Encrypted)
			}
		})
	}
}

// BenchmarkLocalFDvsEncrypt regenerates the §5.4 comparison: the owner's
// choice between discovering FDs locally (TANE) and encrypting for
// outsourcing (F²).
func BenchmarkLocalFDvsEncrypt(b *testing.B) {
	tbl := mustGen(b, workload.NameCustomer, 2000)
	b.Run("TANE-local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fd.Discover(tbl)
		}
	})
	b.Run("F2-encrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustEncrypt(b, tbl, benchConfig(0.25))
		}
	})
}

// BenchmarkSecurityGame regenerates the §4 empirical security check: the
// frequency-analysis game against F² ciphertext, reporting the success
// rate as a metric (must stay ≤ α).
func BenchmarkSecurityGame(b *testing.B) {
	tbl := workload.Skewed(10000, 500, 1.3, 1)
	attr := tbl.Schema().Lookup("V")
	cfg := benchConfig(0.1)
	res := mustEncrypt(b, tbl, cfg)
	pc, err := crypt.NewProbCipher(cfg.Key, cfg.PRF)
	if err != nil {
		b.Fatal(err)
	}
	oracle := func(ct string) (string, bool) {
		p, err := pc.DecryptCell(ct)
		if err != nil {
			return "", false
		}
		return p, !core.IsArtificialValue(p)
	}
	for _, adv := range []attack.Adversary{attack.FrequencyMatcher{}, attack.Kerckhoffs{}} {
		b.Run(adv.Name(), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				g := attack.RunGame(tbl, res.Encrypted, attr, adv, oracle, 2000, int64(i))
				rate = g.Rate()
			}
			b.ReportMetric(rate, "successRate")
		})
	}
}

// BenchmarkAblationSplitFactor sweeps ϖ (Step 2.2 design choice).
func BenchmarkAblationSplitFactor(b *testing.B) {
	tbl := mustGen(b, workload.NameSynthetic, 33000)
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("split=%d", w), func(b *testing.B) {
			cfg := benchConfig(0.25)
			cfg.SplitFactor = w
			var last *core.Result
			for i := 0; i < b.N; i++ {
				last = mustEncrypt(b, tbl, cfg)
			}
			b.ReportMetric(100*last.Report.Overhead(), "overhead%")
		})
	}
}

// BenchmarkAblationMASAlgorithm compares the DUCC-style border search with
// the levelwise sweep (Step 1 design choice, §3.1).
func BenchmarkAblationMASAlgorithm(b *testing.B) {
	tbl := mustGen(b, workload.NameCustomer, 3000)
	b.Run("ducc", func(b *testing.B) {
		var checks int
		for i := 0; i < b.N; i++ {
			checks = mas.Discover(tbl).Checked
		}
		b.ReportMetric(float64(checks), "checks")
	})
	b.Run("levelwise", func(b *testing.B) {
		var checks int
		for i := 0; i < b.N; i++ {
			checks = mas.DiscoverLevelwise(tbl).Checked
		}
		b.ReportMetric(float64(checks), "checks")
	})
}

// BenchmarkAblationPRF compares the two PRF families backing the
// probabilistic cipher.
func BenchmarkAblationPRF(b *testing.B) {
	tbl := mustGen(b, workload.NameOrders, 5000)
	for _, prf := range []crypt.PRF{crypt.PRFAESCTR, crypt.PRFHMAC} {
		b.Run(prf.String(), func(b *testing.B) {
			cfg := benchConfig(0.2)
			cfg.PRF = prf
			for i := 0; i < b.N; i++ {
				mustEncrypt(b, tbl, cfg)
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
	b.Run("instance-encrypt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pc.EncryptInstance("mas:{A1}|attr:1", "1996-03-14", uint64(i&1))
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
