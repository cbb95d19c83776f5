package core

import (
	"context"
	"testing"

	"f2/internal/mas"
	"f2/internal/workload"
)

// TestPipelineInvariantsOnWorkloads sweeps the security and correctness
// invariants of Def. 3.1 / §3.2 / Theorems 3.3 and 3.6 over every
// generated workload, inspecting the internal plan (not just the output
// table).
func TestPipelineInvariantsOnWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-workload invariant sweep skipped in -short mode")
	}
	for _, tc := range []struct {
		name  string
		rows  int
		alpha float64
	}{
		{workload.NameOrders, 3000, 0.25},
		{workload.NameCustomer, 2000, 0.2},
		{workload.NameSynthetic, 33000, 1.0 / 3},
	} {
		tbl, err := workload.Generate(tc.name, tc.rows, 5)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(tc.alpha)
		enc, err := NewEncryptor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := enc.Encrypt(context.Background(), tbl)
		if err != nil {
			t.Fatal(err)
		}
		k := cfg.K()

		// Re-derive the plan structure the way the encryptor does, so the
		// grouping invariants can be checked directly.
		disc := mas.Discover(tbl)
		mint := &freshMinter{}
		for _, m := range disc.Sets {
			groups := buildECGs(tbl, disc.Partitions[m], m, k, mint)
			attrs := m.Attrs()
			for _, g := range groups {
				planSplit(g, cfg.SplitFactor, cfg.MinInstanceFreq)
				assignRows(g)
				// |ECG| ≥ k (§3.2.1).
				if len(g.members) < k {
					t.Fatalf("%s: ECG with %d < k=%d members", tc.name, len(g.members), k)
				}
				totalRows := 0
				for i, a := range g.members {
					// Collision-freedom (Def. 3.4).
					for j := i + 1; j < len(g.members); j++ {
						b := g.members[j]
						for c := range attrs {
							if a.rep[c] == b.rep[c] {
								t.Fatalf("%s: ECG members collide on attr %d", tc.name, attrs[c])
							}
						}
					}
					// Requirement 1: the instances of an EC carry exactly
					// its f original rows (before scaling copies).
					assigned := 0
					for _, inst := range a.instances {
						assigned += len(inst.assignedRows)
						// Homogenized frequency (scaling).
						if len(inst.assignedRows)+inst.copies != g.target {
							t.Fatalf("%s: instance frequency %d+%d ≠ target %d",
								tc.name, len(inst.assignedRows), inst.copies, g.target)
						}
					}
					if !a.fake && assigned != len(a.rows) {
						t.Fatalf("%s: EC of size %d has %d assigned rows", tc.name, len(a.rows), assigned)
					}
					totalRows += assigned
					// MinInstanceFreq floor.
					if g.target < cfg.MinInstanceFreq {
						t.Fatalf("%s: target %d below floor", tc.name, g.target)
					}
				}
			}
		}

		// Theorem 3.3: conflict-resolution rows ≤ h·n.
		h := len(mas.OverlappingPairs(res.MASs))
		if res.Report.ConflictRows > h*tbl.NumRows() {
			t.Fatalf("%s: SYN rows %d > h·n = %d", tc.name, res.Report.ConflictRows, h*tbl.NumRows())
		}
		// Theorem 3.6 flavor: FP rows are 2k per emitted agreement
		// pattern, and every maximal node shares some pattern.
		if res.Report.FPRows != 2*k*res.Report.FPPatterns || res.Report.FPPatterns > res.Report.FPNodes {
			t.Fatalf("%s: FP rows %d, patterns %d, nodes %d: want rows = 2k·patterns, patterns ≤ nodes",
				tc.name, res.Report.FPRows, res.Report.FPPatterns, res.Report.FPNodes)
		}
		// Row accounting: encrypted = original + conflicts + scale + group + FP.
		wantRows := tbl.NumRows() + res.Report.ConflictRows + res.Report.ScaleRows +
			res.Report.GroupRows + res.Report.FPRows
		if res.Encrypted.NumRows() != wantRows {
			t.Fatalf("%s: row accounting %d ≠ %d", tc.name, res.Encrypted.NumRows(), wantRows)
		}
		if len(res.Origins) != res.Encrypted.NumRows() {
			t.Fatalf("%s: provenance rows %d ≠ table rows %d", tc.name, len(res.Origins), res.Encrypted.NumRows())
		}
	}
}

// TestFrequencyFlatnessOnWorkloads asserts the attacker-visible invariant
// on real workloads: within every attribute of the ciphertext, every
// frequency class with f ≥ 2 contains at least k distinct ciphertexts.
func TestFrequencyFlatnessOnWorkloads(t *testing.T) {
	for _, name := range []string{workload.NameOrders, workload.NameSynthetic} {
		tbl, err := workload.Generate(name, 4000, 6)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(0.25)
		res := encryptTable(t, tbl, cfg)
		k := cfg.K()
		for a := 0; a < res.Encrypted.NumAttrs(); a++ {
			byCount := map[int]int{}
			for _, f := range res.Encrypted.Freq(a) {
				if f > 1 {
					byCount[f]++
				}
			}
			for f, vals := range byCount {
				if vals < k {
					t.Errorf("%s attr %d: %d ciphertexts at frequency %d (< k=%d)",
						name, a, vals, f, k)
				}
			}
		}
	}
}

// TestCiphertextValueSetsDisjointAcrossAttrs guards against tweak reuse:
// no ciphertext string may appear in two different columns.
func TestCiphertextValueSetsDisjointAcrossAttrs(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-row tweak-reuse sweep skipped in -short mode")
	}
	tbl, err := workload.Generate(workload.NameSynthetic, 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	res := encryptTable(t, tbl, testConfig(0.5))
	seen := map[string]int{}
	for a := 0; a < res.Encrypted.NumAttrs(); a++ {
		for v := range res.Encrypted.Freq(a) {
			if prev, ok := seen[v]; ok && prev != a {
				t.Fatalf("ciphertext %q appears in columns %d and %d", v, prev, a)
			}
			seen[v] = a
		}
	}
}
