// Package attack implements the frequency-analysis attack of the F² paper:
// the security game Exp^freq of §2.4 and the adversaries of §4 — a
// frequency matcher (the classic attack that breaks deterministic
// encryption) and the 4-step Kerckhoffs attacker of §4.2 that additionally
// knows the F² algorithm itself. The empirical success rates measured here
// validate the α-security guarantee: ≤ α for F², near-certainty for
// deterministic encryption on skewed columns.
package attack

import (
	"math/big"
	"math/rand"
	"sort"

	"f2/internal/relation"
)

// Knowledge is what the game hands the adversary: the exact plaintext
// frequency distribution of the attacked column (the paper's conservative
// assumption) and the observable ciphertext frequency distribution.
type Knowledge struct {
	// PlainFreq maps each plaintext value to its frequency in D.
	PlainFreq map[string]int
	// CipherFreq maps each ciphertext value to its frequency in Dˆ.
	CipherFreq map[string]int
}

// Adversary guesses the plaintext behind a ciphertext value, given the
// target's observed frequency and the Knowledge. Both adversaries of §4
// narrow the plaintexts to a candidate set and guess uniformly within it
// (Guess), which is what lets SuccessProbability compute their success
// rate exactly.
type Adversary interface {
	// Name identifies the adversary in reports.
	Name() string
	// Candidates returns the sorted plaintexts the adversary considers
	// for ciphertext e. It may depend on e only through its ciphertext
	// frequency k.CipherFreq[e].
	Candidates(k *Knowledge, e string) []string
}

// Guess returns adv's plaintext guess for ciphertext e: a uniform draw
// from its candidates, or "" when it has none.
func Guess(adv Adversary, k *Knowledge, e string, rng *rand.Rand) string {
	c := adv.Candidates(k, e)
	if len(c) == 0 {
		return ""
	}
	return c[rng.Intn(len(c))]
}

// Oracle reveals the true plaintext of a ciphertext cell (the game referee
// holds the key). real is false for artificial cells minted by F².
type Oracle func(cipher string) (plain string, real bool)

// GameResult reports an empirical Exp^freq run.
type GameResult struct {
	Adversary string
	Trials    int
	Successes int
}

// Rate returns the empirical success probability Pr[Exp^freq = 1].
func (g GameResult) Rate() float64 {
	if g.Trials == 0 {
		return 0
	}
	return float64(g.Successes) / float64(g.Trials)
}

// RunGame plays Exp^freq on one attribute: draw a ciphertext value
// uniformly from the distinct ciphertexts of column attr, let the
// adversary guess, and score against the oracle. Targets include the
// ciphertexts of F²'s fake equivalence classes — the server cannot
// distinguish them (§3.2.1), and the §4.1 security argument counts their
// values among the k same-frequency candidates; a fake target is simply
// unwinnable for the adversary.
func RunGame(plain, cipher *relation.Table, attr int, adv Adversary, oracle Oracle, trials int, seed int64) GameResult {
	return runGame(plain, cipher, attr, adv, oracle, trials, seed, false)
}

// RunGameRealTargets is the conservative variant of RunGame that samples
// targets only among real-plaintext ciphertexts, handing the adversary
// strictly more than the §2.4 game allows. F² may exceed α under this
// stronger game when a column has fewer than k distinct real values of a
// frequency (the fake ECs exist precisely to pad those groups); it is
// reported as an ablation.
func RunGameRealTargets(plain, cipher *relation.Table, attr int, adv Adversary, oracle Oracle, trials int, seed int64) GameResult {
	return runGame(plain, cipher, attr, adv, oracle, trials, seed, true)
}

func runGame(plain, cipher *relation.Table, attr int, adv Adversary, oracle Oracle, trials int, seed int64, realOnly bool) GameResult {
	rng := rand.New(rand.NewSource(seed))
	k := &Knowledge{
		PlainFreq:  plain.Freq(attr),
		CipherFreq: cipher.Freq(attr),
	}
	// E is a multiset: target cells are drawn per row, so values are
	// sampled proportionally to their ciphertext frequency, exactly as
	// "e randomly chosen from E ← Encrypt(P)" in §2.4.
	targets := cipher.Column(attr)
	if realOnly {
		filtered := make([]string, 0, len(targets))
		for _, e := range targets {
			if _, real := oracle(e); real {
				filtered = append(filtered, e)
			}
		}
		targets = filtered
	}
	res := GameResult{Adversary: adv.Name(), Trials: trials}
	if len(targets) == 0 {
		return res
	}
	for t := 0; t < trials; t++ {
		e := targets[rng.Intn(len(targets))]
		guess := Guess(adv, k, e, rng)
		truth, real := oracle(e)
		if real && guess == truth {
			res.Successes++
		}
	}
	return res
}

// SuccessProbability returns the exact success probability that RunGame
// estimates by sampling: over the N ciphertext cells of column attr,
//
//	Σ_e freq(e)/N · [truth(e) ∈ C(e)] / |C(e)|
//
// where C(e) is adv's candidate set and only real targets count (a fake
// target is unwinnable, as in RunGame). Candidate sets are computed once
// per ciphertext frequency. The result is an exact rational, so a bound
// check on it needs no sampling slack.
func SuccessProbability(plain, cipher *relation.Table, attr int, adv Adversary, oracle Oracle) *big.Rat {
	p := new(big.Rat)
	if cipher.NumRows() == 0 {
		return p
	}
	k := &Knowledge{
		PlainFreq:  plain.Freq(attr),
		CipherFreq: cipher.Freq(attr),
	}
	type class struct {
		candidates map[string]bool
		hits       int64 // cells whose truth is a candidate
	}
	byFreq := make(map[int]*class)
	for e, f := range k.CipherFreq {
		truth, real := oracle(e)
		if !real {
			continue
		}
		c := byFreq[f]
		if c == nil {
			c = &class{candidates: make(map[string]bool)}
			for _, p := range adv.Candidates(k, e) {
				c.candidates[p] = true
			}
			byFreq[f] = c
		}
		if c.candidates[truth] {
			c.hits += int64(f)
		}
	}
	for _, c := range byFreq {
		if c.hits > 0 {
			p.Add(p, big.NewRat(c.hits, int64(len(c.candidates))))
		}
	}
	return p.Quo(p, big.NewRat(int64(cipher.NumRows()), 1))
}

// FrequencyMatcher is the classic frequency-analysis adversary: map the
// target ciphertext to the plaintext whose frequency is closest to the
// observed ciphertext frequency, breaking ties uniformly. Against
// deterministic encryption the frequencies match exactly, so any value
// with a unique frequency is recovered with certainty.
type FrequencyMatcher struct{}

// Name implements Adversary.
func (FrequencyMatcher) Name() string { return "frequency-matcher" }

// Candidates implements Adversary.
func (FrequencyMatcher) Candidates(k *Knowledge, e string) []string {
	fe := k.CipherFreq[e]
	best := -1
	var candidates []string
	for p, fp := range k.PlainFreq {
		d := fp - fe
		if d < 0 {
			d = -d
		}
		switch {
		case best < 0 || d < best:
			best = d
			candidates = candidates[:0]
			candidates = append(candidates, p)
		case d == best:
			candidates = append(candidates, p)
		}
	}
	sort.Strings(candidates)
	return candidates
}

// Kerckhoffs is the 4-step adversary of §4.2: it knows the F² algorithm
// (but not the key, nor the owner's α and ϖ).
//
//	Step 1: estimate the split factor ϖ' from the maximum plaintext and
//	        ciphertext frequencies;
//	Step 2: bucket ciphertext values by frequency — each bucket is an ECG;
//	Step 3: for the target's bucket, find the plaintext candidates whose
//	        (split-adjusted) frequency is compatible with the bucket;
//	Step 4: pick a candidate uniformly (the paper shows every consistent
//	        mapping is equally likely, giving success ≤ 1/y ≤ α).
type Kerckhoffs struct{}

// Name implements Adversary.
func (Kerckhoffs) Name() string { return "kerckhoffs-4step" }

// Candidates implements Adversary.
func (Kerckhoffs) Candidates(k *Knowledge, e string) []string {
	// Step 1: ϖ' = max plaintext frequency / max ciphertext frequency,
	// rounded up (splitting divides frequencies; scaling only adds).
	maxP, maxE := 0, 0
	for _, f := range k.PlainFreq {
		if f > maxP {
			maxP = f
		}
	}
	for _, f := range k.CipherFreq {
		if f > maxE {
			maxE = f
		}
	}
	split := 1
	if maxE > 0 && maxP > maxE {
		split = (maxP + maxE - 1) / maxE
	}
	// Step 2: the target's ECG is the set of ciphertexts sharing its
	// frequency (implicitly used via the bucket frequency below).
	fe := k.CipherFreq[e]
	// Step 3: candidate plaintexts whose frequency could have produced an
	// instance of frequency fe: an unsplit instance needs f_D(p) ≤ fe
	// (scaling only inflates), a split one needs ⌈f_D(p)/ϖ'⌉ ≤ fe.
	var candidates []string
	for p, fp := range k.PlainFreq {
		if fp <= fe*split {
			candidates = append(candidates, p)
		}
	}
	if len(candidates) == 0 {
		for p := range k.PlainFreq {
			candidates = append(candidates, p)
		}
	}
	// Step 4 (Guess): uniform choice among consistent mappings.
	sort.Strings(candidates)
	return candidates
}
