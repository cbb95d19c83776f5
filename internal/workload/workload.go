// Package workload generates the evaluation datasets of the F² paper's §5
// at configurable scale:
//
//   - Orders: a TPC-H-like ORDERS table (9 attributes) with planted
//     dependencies and low-cardinality categoricals (OrderStatus,
//     OrderPriority), giving many pairwise-overlapping MASs;
//   - Customer: a TPC-C-like CUSTOMER table (21 attributes) with a
//     Zip→City→State dependency chain and high-cardinality attributes
//     (C_LAST, C_BALANCE), giving large MASs with few collisions;
//   - Synthetic: a 7-attribute table with exactly two overlapping MASs
//     ({A0,A1,A2} and {A2,A3,A4,A5,A6}) and a known minimal FD set —
//     ground truth for tests.
//
// The paper runs at 0.96M–15M rows; generators here take an explicit row
// count so benchmarks can sweep laptop-scale sizes with the same shape
// (see docs/DESIGN.md on the scale substitution).
package workload

import (
	"fmt"
	"math/rand"

	"f2/internal/relation"
)

// Dataset names used by the CLI tools and the benchmark harness.
const (
	NameOrders    = "orders"
	NameCustomer  = "customer"
	NameSynthetic = "synthetic"
)

// Generate builds the named dataset with n rows.
func Generate(name string, n int, seed int64) (*relation.Table, error) {
	switch name {
	case NameOrders:
		return Orders(n, seed), nil
	case NameCustomer:
		return Customer(n, seed), nil
	case NameSynthetic:
		return Synthetic(n, seed), nil
	default:
		return nil, fmt.Errorf("workload: unknown dataset %q (want %s|%s|%s)",
			name, NameOrders, NameCustomer, NameSynthetic)
	}
}

// Names lists the available datasets.
func Names() []string { return []string{NameOrders, NameCustomer, NameSynthetic} }

// ZipfColumn fills a column with a Zipf-distributed choice among `distinct`
// values — the skewed frequency profile that makes frequency analysis
// dangerous. s > 1 controls the skew.
func ZipfColumn(rng *rand.Rand, n, distinct int, s float64, prefix string) []string {
	z := rand.NewZipf(rng, s, 1, uint64(distinct-1))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, z.Uint64())
	}
	return out
}

// UniformColumn fills a column with uniform choices among `distinct` values.
func UniformColumn(rng *rand.Rand, n, distinct int, prefix string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, rng.Intn(distinct))
	}
	return out
}

// syllables are the TPC-C C_LAST syllables.
var syllables = []string{"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"}

// tpccLastName renders a number as a TPC-C style last name (3 syllables,
// 1000 distinct values).
func tpccLastName(n int) string {
	return syllables[(n/100)%10] + syllables[(n/10)%10] + syllables[n%10]
}

// SkewedSchema is the schema of the Skewed dataset.
func SkewedSchema() *relation.Schema {
	return relation.MustSchema("ID", "V", "W")
}

// Skewed generates the frequency-analysis stress dataset: a unique key, a
// Zipf-distributed high-cardinality attribute V (the classic prey of
// frequency analysis), and a derived bucket attribute W with the planted
// dependency V→W. The MAS is {V,W}. Use it to demonstrate α-security on
// columns whose domain is large enough for α < 1/|domain| to be
// meaningful (see docs/DESIGN.md on the low-cardinality floor).
func Skewed(n, distinct int, s float64, seed int64) *relation.Table {
	rng := rand.New(rand.NewSource(seed))
	t := relation.NewTable(SkewedSchema())
	z := rand.NewZipf(rng, s, 1, uint64(distinct-1))
	row := make([]string, 3)
	for i := 0; i < n; i++ {
		v := z.Uint64()
		row[0] = fmt.Sprintf("id%08d", i)
		row[1] = fmt.Sprintf("v%d", v)
		row[2] = fmt.Sprintf("w%d", v/8)
		t.AppendRow(row)
	}
	return t
}
