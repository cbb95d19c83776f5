package workload

import (
	"fmt"
	"math/rand"

	"f2/internal/relation"
)

// Synthetic generator parameters. A0 and A1 are (distinct affine)
// bijections of j = i mod p1; A3..A6 are bijections of k = i mod p2; A2
// cycles with period s. Every column is injective in its driver, so
// duplicate projections are governed purely by period arithmetic:
//
//   - {A0,A1,A2} duplicates every lcm(p1,s) = 4016 rows (first MAS);
//   - {A2,A3,A4,A5,A6} duplicates every lcm(s,p2) = 16336 rows (second MAS);
//   - any set mixing an A0/A1 column with an A3..A6 column needs
//     lcm(p1,p2) = 256,271 rows to duplicate, so the MASs never merge
//     below that scale.
//
// This reproduces the paper's synthetic dataset shape: 7 attributes, two
// overlapping MASs — one of 3 attributes, one spanning the rest — sharing
// one attribute.
const (
	synP1 = 251  // prime period of the A0/A1 generators
	synS  = 16   // period of the shared attribute A2
	synP2 = 1021 // prime period of the A3..A6 generators

	// SyntheticMinRows and SyntheticMaxRows bound the row counts for which
	// the ground-truth structure below holds (both MASs duplicated, no
	// cross-group duplicates).
	SyntheticMinRows = 2 * 16336
	SyntheticMaxRows = 256271
)

// SyntheticSchema is the 7-attribute synthetic schema.
func SyntheticSchema() *relation.Schema {
	return relation.MustSchema("A0", "A1", "A2", "A3", "A4", "A5", "A6")
}

// Synthetic generates the paper's synthetic dataset shape with known
// ground truth at n rows. For n in [SyntheticMinRows, SyntheticMaxRows):
//
//	MASs: {A0,A1,A2} and {A2,A3,A4,A5,A6}, overlapping at A2.
//	Minimal witnessed FDs: A0↔A1 and Ai↔Aj for all i,j ∈ {3,4,5,6}
//	  (the columns of each group are mutually bijective).
//
// Smaller n keeps the schema and FDs but may lose the second MAS's
// duplicates; benchmarks that sweep sizes below SyntheticMinRows still
// exercise the same code paths with a sparser lattice.
func Synthetic(n int, seed int64) *relation.Table {
	rng := rand.New(rand.NewSource(seed))
	t := relation.NewTable(SyntheticSchema())
	// Randomized affine bijections x ↦ a·x+b (mod p) keep different seeds'
	// value sets distinct while preserving the dependency structure.
	a1, b1 := 1+rng.Intn(synP1-1), rng.Intn(synP1)
	affs := make([][2]int, 4)
	for c := range affs {
		affs[c] = [2]int{1 + rng.Intn(synP2-1), rng.Intn(synP2)}
	}
	tag := rng.Intn(1 << 16)
	row := make([]string, 7)
	for i := 0; i < n; i++ {
		j := i % synP1
		k := i % synP2
		row[0] = fmt.Sprintf("x%d-%d", tag, j)
		row[1] = fmt.Sprintf("y%d-%d", tag, (a1*j+b1)%synP1)
		row[2] = fmt.Sprintf("s%d-%d", tag, i%synS)
		for c := 0; c < 4; c++ {
			row[3+c] = fmt.Sprintf("%c%d-%d", 'p'+c, tag, (affs[c][0]*k+affs[c][1])%synP2)
		}
		t.AppendRow(row)
	}
	return t
}
