package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"f2/internal/border"
	"f2/internal/fd"
	"f2/internal/mas"
	"f2/internal/obs"
	"f2/internal/partition"
	"f2/internal/pool"
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

// firstRows and findViolation are the representative scan Step 4 ran
// before its predicate moved onto cached stripped partitions, kept as the
// reference the PLI witness must reproduce. findViolation scans the first
// row of every class of a partition under M ⊇ X∪{Y}, in class order, and
// returns the first representative whose X codes an earlier one holds
// with a different Y code, paired with the first representative holding
// those X codes.
func firstRows(p *partition.Partition) []int {
	rows := make([]int, len(p.Classes))
	for ci, c := range p.Classes {
		rows[ci] = c.Rows[0]
	}
	return rows
}

func findViolation(coded *relation.Coded, rows []int, attrs relation.AttrSet, y int) (ri, rj int, violated bool) {
	cols := attrs.Attrs()
	ycol := coded.Column(y)
	seen := make(map[string]int, len(rows))
	codes := make([]int32, len(cols))
	for _, r := range rows {
		for i, a := range cols {
			codes[i] = coded.Column(a)[r]
		}
		key := fmt.Sprint(codes)
		if f, ok := seen[key]; ok {
			if ycol[f] != ycol[r] {
				return f, r, true
			}
		} else {
			seen[key] = r
		}
	}
	return 0, 0, false
}

// checkWitnesses draws random nodes X→Y with X∪{Y} inside m and compares
// the PLI witness of X, from a cache whose query order varies the subset
// each PLI is built from, with the representative scan over π_m.
func checkWitnesses(t *testing.T, rng *rand.Rand, coded *relation.Coded, cache *partition.Cache, m relation.AttrSet, nodes int) {
	t.Helper()
	attrs := m.Attrs()
	if len(attrs) < 2 {
		return
	}
	reps := firstRows(partition.OfCoded(coded, m, partition.NewWorkspace()))
	for i := 0; i < nodes; i++ {
		y := attrs[rng.Intn(len(attrs))]
		x := relation.AttrSet(rng.Int63()).Intersect(m).Remove(y)
		if x.IsEmpty() {
			continue
		}
		wf, wr, want := findViolation(coded, reps, x, y)
		gf, gr, got := cache.Get(x).Violation(coded.Column(y))
		if got != want || got && (gf != wf || gr != wr) {
			t.Fatalf("%v→%d under %v: PLI witness (%d, %d, %v), representative scan (%d, %d, %v)",
				x, y, m, gf, gr, got, wf, wr, want)
		}
	}
}

// TestViolationMatchesFindViolation: the order-free PLI witness equals
// the representative scan's pair on random tables (m = every column) and
// on the MASs of customer, orders and synthetic tables.
func TestViolationMatchesFindViolation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		attrs := 2 + rng.Intn(6)
		tbl := relation.NewTable(relation.MustSchema(names(attrs)...))
		rows, domain := rng.Intn(60), 1+rng.Intn(5)
		for r := 0; r < rows; r++ {
			row := make([]string, attrs)
			for a := range row {
				row[a] = fmt.Sprint(rng.Intn(domain))
			}
			tbl.AppendRow(row)
		}
		coded := relation.Encode(tbl)
		checkWitnesses(t, rng, coded, partition.NewCache(coded), relation.FullAttrSet(attrs), 30)
	}
	for _, name := range []string{workload.NameCustomer, workload.NameOrders, workload.NameSynthetic} {
		tbl, err := workload.Generate(name, 600, 3)
		if err != nil {
			t.Fatal(err)
		}
		disc := mas.Discover(tbl)
		cache := partition.NewCache(disc.Coded)
		for _, m := range disc.Sets {
			checkWitnesses(t, rng, disc.Coded, cache, m, 40)
		}
	}
}

func names(m int) []string {
	out := make([]string, m)
	for a := range out {
		out[a] = fmt.Sprintf("C%d", a)
	}
	return out
}

// BenchmarkStepFourCustomer times Step 4 alone on the audit workload's
// customer table: Steps 1–3 run once, then every iteration repeats the
// border searches and the artificial-pair emission into a fresh table.
func BenchmarkStepFourCustomer(b *testing.B) {
	tbl, err := workload.Generate(workload.NameCustomer, 600, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	e, err := NewEncryptor(testConfig(0.25))
	if err != nil {
		b.Fatal(err)
	}
	e.mint = &freshMinter{}
	e.kern = e.cipher.NewKernel()
	e.pool = pool.New(e.cfg.Workers())
	defer e.pool.Close()
	disc := mas.Discover(tbl)
	plans, err := e.buildPlans(ctx, tbl, disc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		out := relation.NewTable(tbl.Schema().Clone())
		if _, _, err := e.eliminateFalsePositives(ctx, tbl, disc.Coded, plans, out, &Result{}); err != nil {
			b.Fatal(err)
		}
	}
}

// referenceStepFour runs Step 4's border searches as they ran before the
// PLI cache, on the representative scan: for each RHS attribute, the
// border of "some MAS covers X∪{Y} and findViolation finds a pair". It
// returns the summed predicate checks and the witnesses of the maximal
// nodes in ascending-Y, border order, the order patterns are emitted in.
func referenceStepFour(disc *mas.Result, m int) (checks int, witnesses []fpWitness) {
	reps := make([][]int, len(disc.Sets))
	for i, s := range disc.Sets {
		reps[i] = firstRows(disc.Partitions[s])
	}
	repFor := func(attrs relation.AttrSet) []int {
		for i, s := range disc.Sets {
			if attrs.SubsetOf(s) {
				return reps[i]
			}
		}
		return nil
	}
	for y := 0; y < m; y++ {
		universe := relation.AttrSet(0)
		for _, s := range disc.Sets {
			if s.Has(y) && s.Size() >= 2 {
				universe = universe.Union(s)
			}
		}
		universe = universe.Remove(y)
		if universe.IsEmpty() {
			continue
		}
		found := make(map[relation.AttrSet]fpWitness)
		sets, stats := border.Find(universe, func(x relation.AttrSet) bool {
			rows := repFor(x.Add(y))
			if rows == nil {
				return false
			}
			ri, rj, violated := findViolation(disc.Coded, rows, x, y)
			if violated {
				found[x] = fpWitness{ri, rj}
			}
			return violated
		})
		checks += stats.Checks
		for _, x := range sets {
			witnesses = append(witnesses, found[x])
		}
	}
	return checks, witnesses
}

// TestStepFourUnderEvictionMatchesReference encrypts a wide,
// low-cardinality table whose PLIs outgrow the cache budget, so Step 4's
// caches evict, and checks FPChecks, FPNodes and the emitted patterns, in
// order, against the representative scan, which caches nothing.
func TestStepFourUnderEvictionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const attrs = 10
	tbl := relation.NewTable(relation.MustSchema(names(attrs)...))
	for r := 0; r < 120; r++ {
		row := make([]string, attrs)
		for a := range row {
			row[a] = fmt.Sprint(rng.Intn(3))
		}
		tbl.AppendRow(row)
	}
	ctx, tr := obs.NewTrace(context.Background(), "", "test")
	enc, err := NewEncryptor(testConfig(0.5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := enc.Encrypt(ctx, tbl)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	root := tr.Snapshot().Root
	if sp := findSpan(&root, "encrypt.step4.fp"); sp == nil || sp.Attrs["pliEvictions"] == 0 {
		t.Fatalf("Step 4 did not evict: span %+v", sp)
	}

	checks, witnesses := referenceStepFour(mas.Discover(tbl), attrs)
	var want []relation.AttrSet
	seen := make(map[relation.AttrSet]bool)
	for _, w := range witnesses {
		if p := agreementPattern(tbl, w.ri, w.rj); !seen[p] {
			seen[p] = true
			want = append(want, p)
		}
	}
	var got []relation.AttrSet
	for i, p := range fpPairPatterns(t, res) {
		if i%res.Report.K == 0 {
			got = append(got, p)
		}
	}
	rep := res.Report
	if rep.FPChecks != checks || rep.FPNodes != len(witnesses) || !reflect.DeepEqual(got, want) {
		t.Fatalf("FPChecks %d, FPNodes %d, patterns %v; reference %d, %d, %v",
			rep.FPChecks, rep.FPNodes, got, checks, len(witnesses), want)
	}
}
