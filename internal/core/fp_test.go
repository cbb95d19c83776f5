package core

import (
	"context"
	"fmt"
	"testing"

	"f2/internal/fd"
	"f2/internal/obs"
	"f2/internal/relation"
	"f2/internal/workload"
)

// rowPairPatterns returns every agreement pattern realized by a pair of
// distinct rows of t.
func rowPairPatterns(t *relation.Table) map[relation.AttrSet]bool {
	codes := make([][]int, t.NumAttrs())
	for a := range codes {
		dict := make(map[string]int)
		codes[a] = make([]int, t.NumRows())
		for r := range codes[a] {
			v := t.Cell(r, a)
			if _, ok := dict[v]; !ok {
				dict[v] = len(dict)
			}
			codes[a][r] = dict[v]
		}
	}
	out := make(map[relation.AttrSet]bool)
	for i := 0; i < t.NumRows(); i++ {
		for j := i + 1; j < t.NumRows(); j++ {
			var p relation.AttrSet
			for a := range codes {
				if codes[a][i] == codes[a][j] {
					p = p.Add(a)
				}
			}
			out[p] = true
		}
	}
	return out
}

// fpPairPatterns returns the agreement pattern of every Step-4 artificial
// pair of res, in emission order. Pairs are emitted as adjacent rows.
func fpPairPatterns(t *testing.T, res *Result) []relation.AttrSet {
	t.Helper()
	enc := res.Encrypted
	var out []relation.AttrSet
	for r := 0; r < enc.NumRows(); r++ {
		if res.Origins[r].Kind != RowFPArtificial {
			continue
		}
		if r+1 >= enc.NumRows() || res.Origins[r+1].Kind != RowFPArtificial {
			t.Fatalf("artificial row %d has no partner", r)
		}
		out = append(out, agreementPattern(enc, r, r+1))
		r++
	}
	return out
}

// TestStepFourOnePairSetPerPattern sweeps Step 4 over every workload
// generator at several seeds and widths: the ciphertext is byte-identical
// at every width, its witnessed FDs equal the plaintext's, every
// artificial pair replicates the agreement pattern of a real row pair of
// D, and each distinct pattern gets exactly one set of k pairs.
func TestStepFourOnePairSetPerPattern(t *testing.T) {
	if testing.Short() {
		t.Skip("encrypts twelve tables at three widths")
	}
	gen := func(name string, seed int64) *relation.Table {
		if name == "skewed" {
			return workload.Skewed(600, 80, 1.3, seed)
		}
		rows := 400
		if name == workload.NameCustomer {
			rows = 200 // 21 attributes: Step 1 dominates the sweep
		}
		tbl, err := workload.Generate(name, rows, seed)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	for _, name := range []string{workload.NameCustomer, workload.NameOrders, workload.NameSynthetic, "skewed"} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/%d", name, seed), func(t *testing.T) {
				plain := gen(name, seed)
				var base *Result
				for _, par := range parallelWidths {
					cfg := testConfig(0.25)
					cfg.Parallelism = par
					res := encryptTable(t, plain, cfg)
					if base != nil {
						requireResultsIdentical(t, fmt.Sprintf("parallelism=%d", par), base, res)
						continue
					}
					base = res
				}

				if want, got := fd.DiscoverWitnessed(plain), fd.DiscoverWitnessed(base.Encrypted); !want.Equal(got) {
					t.Fatalf("witnessed FDs differ:\nplain  %v\ncipher %v", want, got)
				}
				cfg := testConfig(0.25)
				k := cfg.K()
				pairs := fpPairPatterns(t, base)
				real := rowPairPatterns(plain)
				distinct := make(map[relation.AttrSet]int)
				for _, p := range pairs {
					if !real[p] {
						t.Fatalf("artificial pair pattern %v is not realized by any row pair of D", p)
					}
					distinct[p]++
				}
				for p, n := range distinct {
					if n != k {
						t.Fatalf("pattern %v has %d artificial pairs, want k=%d", p, n, k)
					}
				}
				rep := base.Report
				if rep.FPRows != 2*k*len(distinct) || rep.FPPatterns != len(distinct) {
					t.Fatalf("FPRows=%d FPPatterns=%d, want 2k·%d and %d distinct patterns",
						rep.FPRows, rep.FPPatterns, len(distinct), len(distinct))
				}
				if rep.FPPatterns > rep.FPNodes {
					t.Fatalf("%d patterns for %d maximal nodes", rep.FPPatterns, rep.FPNodes)
				}
			})
		}
	}
}

// findSpan returns the first span named name in a depth-first walk.
func findSpan(s *obs.SpanSnapshot, name string) *obs.SpanSnapshot {
	if s.Name == name {
		return s
	}
	for i := range s.Children {
		if f := findSpan(&s.Children[i], name); f != nil {
			return f
		}
	}
	return nil
}

// TestIncrementalStepFourPatterns drives two incremental flushes under a
// trace. An append whose agreement sets are all patterns the rebuild
// already emitted must add no artificial rows; an append that newly
// violates two FDs must emit exactly their two patterns. Both keep the
// witnessed FDs, and the Step-4 spans carry fpPatterns, so a trace alone
// shows fpRows = 2k·fpPatterns.
func TestIncrementalStepFourPatterns(t *testing.T) {
	cfg := testConfig(0.5)
	k := cfg.K()
	flush := func(rows [][]string, appended []string) (rebuild, flushed *Result, root obs.SpanSnapshot) {
		t.Helper()
		ctx, tr := obs.NewTrace(context.Background(), "", "test")
		u, res0, err := NewUpdater(ctx, cfg, relation.MustFromRows(relation.MustSchema("A", "B"), rows))
		if err != nil {
			t.Fatal(err)
		}
		if err := u.Buffer([][]string{appended}); err != nil {
			t.Fatal(err)
		}
		res, err := u.Flush(ctx)
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		if u.LastFlush != FlushModeIncremental {
			t.Fatalf("flush took %q, want incremental", u.LastFlush)
		}
		if want, got := fd.DiscoverWitnessed(u.Current()), fd.DiscoverWitnessed(res.Encrypted); !want.Equal(got) {
			t.Fatalf("witnessed FDs diverged: %v vs %v", got, want)
		}
		return res0, res, tr.Snapshot().Root
	}
	checkSpan := func(root obs.SpanSnapshot, span string, nodes, patterns, rows int) {
		t.Helper()
		s := findSpan(&root, span)
		if s == nil {
			t.Fatalf("no %s span", span)
		}
		if s.Attrs["fpNodes"] != nodes || s.Attrs["fpPatterns"] != patterns || rows != 2*k*patterns {
			t.Errorf("%s attrs %v with %d FP rows, want fpNodes=%d fpPatterns=%d and rows = 2k·fpPatterns",
				span, s.Attrs, rows, nodes, patterns)
		}
	}

	// MAS {A,B}. The rebuild witnesses A→B with rows 0/2 (pattern {A})
	// and B→A with rows 2/3 (pattern {B}). The appended {a2,b1} agrees
	// with rows 0/1 on {B}, with row 3 on {A} and with row 2 on nothing.
	res0, res, root := flush([][]string{{"a1", "b1"}, {"a1", "b1"}, {"a1", "b2"}, {"a2", "b2"}}, []string{"a2", "b1"})
	if res0.Report.FPPatterns != 2 {
		t.Fatalf("rebuild emitted %d patterns, want 2", res0.Report.FPPatterns)
	}
	checkSpan(root, "encrypt.step4.fp", res0.Report.FPNodes, 2, res0.Report.FPRows)
	if res.Report.FPRows != res0.Report.FPRows {
		t.Fatalf("append of emitted patterns added FP rows: %d → %d", res0.Report.FPRows, res.Report.FPRows)
	}
	checkSpan(root, "incremental.re-witness", 0, 0, res.Report.FPRows-res0.Report.FPRows)

	// Nothing is violated until {a1,b2} breaks both A→B and B→A.
	res0, res, root = flush([][]string{{"a1", "b1"}, {"a1", "b1"}, {"a2", "b2"}, {"a2", "b2"}}, []string{"a1", "b2"})
	if res0.Report.FPPatterns != 0 || res.Report.FPPatterns != 2 {
		t.Fatalf("patterns %d → %d, want 0 → 2", res0.Report.FPPatterns, res.Report.FPPatterns)
	}
	checkSpan(root, "incremental.re-witness", 2, 2, res.Report.FPRows-res0.Report.FPRows)
}
