package attack

import (
	"context"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"f2/internal/core"
	"f2/internal/crypt"
	"f2/internal/relation"
	"f2/internal/workload"
)

// skewedTable builds a single-extra-column table with a highly skewed
// attribute A: value "hot" dominates, the rest are near-unique.
func skewedTable() *relation.Table {
	t := relation.NewTable(relation.MustSchema("A", "B"))
	for i := 0; i < 40; i++ {
		t.AppendRow([]string{"hot", "b-hot"})
	}
	for i := 0; i < 10; i++ {
		t.AppendRow([]string{"warm", "b-warm"})
	}
	for i := 0; i < 10; i++ {
		t.AppendRow([]string{"cool", "b-cool"})
	}
	for i := 0; i < 5; i++ {
		t.AppendRow([]string{"cold", "b-cold"})
	}
	return t
}

// detEncrypt encrypts cell-wise with the deterministic baseline.
func detEncrypt(t *testing.T, tbl *relation.Table, key crypt.Key) (*relation.Table, Oracle) {
	t.Helper()
	det, err := crypt.NewDetCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	out := relation.NewTable(tbl.Schema().Clone())
	for i := 0; i < tbl.NumRows(); i++ {
		row := make([]string, tbl.NumAttrs())
		for a := range row {
			c, err := det.EncryptCell(tbl.Cell(i, a))
			if err != nil {
				t.Fatal(err)
			}
			row[a] = c
		}
		out.AppendRow(row)
	}
	oracle := func(cipher string) (string, bool) {
		p, err := det.DecryptCell(cipher)
		return p, err == nil
	}
	return out, oracle
}

// f2Encrypt encrypts with F² and returns the oracle over the prob cipher.
func f2Encrypt(t *testing.T, tbl *relation.Table, alpha float64) (*relation.Table, Oracle, core.Config) {
	t.Helper()
	cfg := core.DefaultConfig(crypt.KeyFromSeed("attack-test"))
	cfg.Alpha = alpha
	enc, err := core.NewEncryptor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := enc.Encrypt(context.Background(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := crypt.NewProbCipher(cfg.Key, cfg.PRF)
	if err != nil {
		t.Fatal(err)
	}
	oracle := func(cipher string) (string, bool) {
		p, err := pc.DecryptCell(cipher)
		if err != nil {
			return "", false
		}
		return p, !core.IsArtificialValue(p)
	}
	return res.Encrypted, oracle, cfg
}

func TestFrequencyMatcherBreaksDeterministic(t *testing.T) {
	tbl := skewedTable()
	enc, oracle := detEncrypt(t, tbl, crypt.KeyFromSeed("det"))
	res := RunGame(tbl, enc, 0, FrequencyMatcher{}, oracle, 2000, 1)
	// Frequencies 40 and 5 are unique; 10 is shared by two values. Expect
	// a success rate far above any reasonable α: ≥ 0.5 of targets.
	if res.Rate() < 0.5 {
		t.Fatalf("frequency matcher rate vs deterministic = %.3f, want ≥ 0.5", res.Rate())
	}
}

func TestF2DefeatsFrequencyMatcher(t *testing.T) {
	tbl := skewedTable()
	alpha := 0.25
	enc, oracle, _ := f2Encrypt(t, tbl, alpha)
	res := RunGame(tbl, enc, 0, FrequencyMatcher{}, oracle, 4000, 2)
	// Allow sampling slack: 3 standard deviations at 4000 trials ≈ 0.02.
	if res.Rate() > alpha+0.05 {
		t.Fatalf("frequency matcher rate vs F² = %.3f, want ≤ α=%.2f (+slack)", res.Rate(), alpha)
	}
}

func TestF2DefeatsKerckhoffs(t *testing.T) {
	tbl := skewedTable()
	// Column A has 4 distinct values: the information-theoretic floor is
	// 1/4, so the operative bound is max(α, 1/4) (see docs/DESIGN.md).
	for _, alpha := range []float64{0.5, 0.25, 0.125} {
		enc, oracle, _ := f2Encrypt(t, tbl, alpha)
		res := RunGame(tbl, enc, 0, Kerckhoffs{}, oracle, 4000, 3)
		bound := alpha
		if floor := 1.0 / float64(tbl.DistinctCount(0)); floor > bound {
			bound = floor
		}
		if res.Rate() > bound+0.05 {
			t.Fatalf("kerckhoffs rate vs F² (α=%.3f) = %.3f, want ≤ %.3f (+slack)", alpha, res.Rate(), bound)
		}
	}
}

func TestF2BoundsHoldOnHighCardinalityColumn(t *testing.T) {
	// On a 300-value Zipf column the α bound binds directly, with no
	// floor: both adversaries must stay below every tested α.
	tbl := workload.Skewed(6000, 300, 1.3, 9)
	attr := tbl.Schema().Lookup("V")
	for _, alpha := range []float64{0.2, 0.1} {
		enc, oracle, _ := f2Encrypt(t, tbl, alpha)
		for _, adv := range []Adversary{FrequencyMatcher{}, Kerckhoffs{}} {
			res := RunGame(tbl, enc, attr, adv, oracle, 3000, 11)
			if res.Rate() > alpha+0.03 {
				t.Fatalf("%s rate %.3f > α=%.2f on high-cardinality column", adv.Name(), res.Rate(), alpha)
			}
		}
	}
}

func TestKerckhoffsStrongerThanBlindGuessOnDet(t *testing.T) {
	// Against deterministic encryption the Kerckhoffs candidate filtering
	// still narrows the field: its rate must beat uniform guessing over
	// all plaintexts.
	tbl := skewedTable()
	enc, oracle := detEncrypt(t, tbl, crypt.KeyFromSeed("det2"))
	res := RunGame(tbl, enc, 0, Kerckhoffs{}, oracle, 4000, 4)
	uniform := 1.0 / float64(tbl.DistinctCount(0))
	if res.Rate() <= uniform/2 {
		t.Fatalf("kerckhoffs rate %.3f not better than uniform %.3f", res.Rate(), uniform)
	}
}

func TestRunGameDeterministicSeed(t *testing.T) {
	tbl := skewedTable()
	enc, oracle := detEncrypt(t, tbl, crypt.KeyFromSeed("det3"))
	a := RunGame(tbl, enc, 0, FrequencyMatcher{}, oracle, 500, 7)
	b := RunGame(tbl, enc, 0, FrequencyMatcher{}, oracle, 500, 7)
	if a.Successes != b.Successes {
		t.Fatal("same seed produced different game results")
	}
}

func TestGameResultRate(t *testing.T) {
	if (GameResult{}).Rate() != 0 {
		t.Error("zero-trial rate should be 0")
	}
	if r := (GameResult{Trials: 4, Successes: 1}).Rate(); r != 0.25 {
		t.Errorf("rate = %v", r)
	}
}

func TestAdversaryGuessesArePlaintexts(t *testing.T) {
	tbl := skewedTable()
	enc, _, _ := f2Encrypt(t, tbl, 0.5)
	k := &Knowledge{PlainFreq: tbl.Freq(0), CipherFreq: enc.Freq(0)}
	rng := rand.New(rand.NewSource(5))
	for e := range k.CipherFreq {
		for _, adv := range []Adversary{FrequencyMatcher{}, Kerckhoffs{}} {
			g := Guess(adv, k, e, rng)
			if _, ok := k.PlainFreq[g]; !ok {
				t.Fatalf("%s guessed %q, not a plaintext value", adv.Name(), g)
			}
		}
		break
	}
}

// TestSuccessProbabilityHandComputed pins SuccessProbability on a table
// small enough to work out by hand, and checks that RunGame's sampled
// rate converges to it.
func TestSuccessProbabilityHandComputed(t *testing.T) {
	plain := relation.NewTable(relation.MustSchema("A"))
	for _, v := range []string{"p1", "p1", "p1", "p2", "p2", "p3"} {
		plain.AppendRow([]string{v})
	}
	// c1×2, c2×1 → p1; c3×2 → p2; c4×1 → p3; f1×2 is artificial. N = 8.
	cipher := relation.NewTable(relation.MustSchema("A"))
	for _, v := range []string{"c1", "c1", "c2", "c3", "c3", "c4", "f1", "f1"} {
		cipher.AppendRow([]string{v})
	}
	truth := map[string]string{"c1": "p1", "c2": "p1", "c3": "p2", "c4": "p3"}
	oracle := func(e string) (string, bool) {
		p, ok := truth[e]
		return p, ok
	}
	for _, tc := range []struct {
		adv  Adversary
		want *big.Rat
	}{
		// Plaintext frequencies p1:3 p2:2 p3:1. The matcher maps
		// frequency 2 to {p2} and 1 to {p3}: it wins on c3 (2 cells) and
		// c4 (1 cell), 3/8.
		{FrequencyMatcher{}, big.NewRat(3, 8)},
		// ϖ' = ⌈3/2⌉ = 2: frequency 2 admits f ≤ 4 = {p1,p2,p3}, frequency
		// 1 admits f ≤ 2 = {p2,p3}. c1: 2·1/3, c2: 0, c3: 2·1/3, c4: 1/2,
		// so (4/3 + 1/2)/8 = 11/48.
		{Kerckhoffs{}, big.NewRat(11, 48)},
	} {
		got := SuccessProbability(plain, cipher, 0, tc.adv, oracle)
		if got.Cmp(tc.want) != 0 {
			t.Errorf("%s: SuccessProbability = %v, want %v", tc.adv.Name(), got, tc.want)
		}
		// 100k trials: σ ≤ 0.0016, so 5σ is well under 0.01.
		p, _ := tc.want.Float64()
		if rate := RunGame(plain, cipher, 0, tc.adv, oracle, 100000, 9).Rate(); math.Abs(rate-p) > 0.008 {
			t.Errorf("%s: RunGame rate %.4f does not converge to %.4f", tc.adv.Name(), rate, p)
		}
	}
}
