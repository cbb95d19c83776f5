// Package core implements F², the frequency-hiding FD-preserving
// encryption scheme of Dong & Wang (ICDE 2017). The pipeline has four
// steps:
//
//  1. MAS discovery — find the maximal attribute sets (maximal non-unique
//     column combinations) and their partitions (Step 1, "MAX");
//  2. splitting-and-scaling encryption — group equivalence classes into
//     collision-free ECGs of size ≥ ⌈1/α⌉, split large classes into ϖ
//     ciphertext instances, and scale every instance to a homogeneous
//     frequency (Step 2, "SSE"; grouping overhead is tracked separately as
//     "GROUP", scaling copies as "SCALE");
//  3. conflict resolution — synchronize the per-MAS encryptions (Step 3,
//     "SYN"): scale copies take fresh values outside their MAS (type-1) and
//     tuples claimed by two overlapping MASs are replaced by two tuples
//     (type-2);
//  4. false-positive elimination — re-witness every FD violation of D that
//     steps 1–3 erased, by inserting ⌈1/α⌉ artificial record pairs per
//     maximal violated dependency, found by a top-down walk of the per-MAS
//     FD lattice (Step 4, "FP").
//
// The result is α-secure against the frequency-analysis attack (every
// ciphertext instance inside an ECG shares its frequency with ≥ ⌈1/α⌉
// plaintext candidates), even under Kerckhoffs's principle, while the
// witnessed functional dependencies of the plaintext table are exactly the
// witnessed functional dependencies of the ciphertext table.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"f2/internal/crypt"
)

// Config parameterizes F² encryption.
type Config struct {
	// Alpha is the α-security threshold in (0, 1]: an adversary armed with
	// the exact plaintext frequency distribution succeeds with probability
	// at most α. ECGs contain k = ⌈1/α⌉ collision-free equivalence classes.
	Alpha float64

	// SplitFactor is ϖ ≥ 2: equivalence classes at or above the split
	// point are encrypted as ϖ distinct ciphertext instances.
	SplitFactor int

	// Key is the symmetric key; all cell ciphertexts derive from it.
	Key crypt.Key

	// PRF selects the pseudorandom function family (default AES-CTR).
	PRF crypt.PRF

	// MinInstanceFreq floors the homogenized ciphertext frequency of every
	// grouped instance. The default (2) guarantees that every witnessed FD
	// of D stays witnessed in Dˆ (see docs/DESIGN.md: a frequency-1 instance
	// would make dependencies over its attributes hold only vacuously).
	// Setting 1 reproduces the paper's formulas verbatim.
	MinInstanceFreq int

	// NaiveSplitPoint disables the optimal split-point search of §3.2.2
	// and splits every equivalence class (j = 1). Ablation only: it shows
	// how many extra scale copies the optimization saves.
	NaiveSplitPoint bool

	// SkipFPElimination disables Step 4 (ablation only: the encrypted
	// table then exhibits false-positive FDs, as in Example 3.1).
	SkipFPElimination bool

	// SkipConflictResolution disables type-2 resolution (ablation only:
	// overlapping MASs then disagree on shared attributes and FDs break,
	// as in Figure 3(e)).
	SkipConflictResolution bool

	// Parallelism bounds the worker goroutines of the stages that mint no
	// fresh values: instance-cipher filling, the Step-4 border searches,
	// and table decryption. Row emission is always serial. 0 (the
	// default) means GOMAXPROCS; 1 runs every stage inline; at most
	// MaxParallelism. The ciphertext is byte-identical at every setting —
	// parallelism is a throughput knob, never a correctness or security
	// one.
	Parallelism int
}

// DefaultConfig returns a Config with the paper's default shape: α = 0.2
// (k = 5), ϖ = 2, AES-CTR PRF.
func DefaultConfig(key crypt.Key) Config {
	return Config{
		Alpha:           0.2,
		SplitFactor:     2,
		Key:             key,
		PRF:             crypt.PRFAESCTR,
		MinInstanceFreq: 2,
	}
}

// K returns k = ⌈1/α⌉, the minimum ECG size.
func (c *Config) K() int {
	return int(math.Ceil(1/c.Alpha - 1e-9))
}

// Workers resolves Parallelism to an effective worker count: the
// configured value when positive, GOMAXPROCS otherwise.
func (c *Config) Workers() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// MaxParallelism caps Config.Parallelism. The value arrives from outside
// the program (an HTTP create request, a restored snapshot) and sizes a
// goroutine pool that every run starts eagerly.
const MaxParallelism = 256

// ValidateParallelism checks a Config.Parallelism value against
// [0, MaxParallelism].
func ValidateParallelism(p int) error {
	if p < 0 || p > MaxParallelism {
		return fmt.Errorf("core: Parallelism must be in [0, %d] (0 = GOMAXPROCS), got %d", MaxParallelism, p)
	}
	return nil
}

// Validate checks parameter ranges and applies defaults for zero values.
func (c *Config) Validate() error {
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("core: alpha must be in (0,1], got %v", c.Alpha)
	}
	if c.SplitFactor == 0 {
		c.SplitFactor = 2
	}
	if c.SplitFactor < 2 {
		return fmt.Errorf("core: split factor ϖ must be ≥ 2, got %d", c.SplitFactor)
	}
	if c.MinInstanceFreq == 0 {
		c.MinInstanceFreq = 2
	}
	if c.MinInstanceFreq < 1 {
		return errors.New("core: MinInstanceFreq must be ≥ 1")
	}
	return ValidateParallelism(c.Parallelism)
}
