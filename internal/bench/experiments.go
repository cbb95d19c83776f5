package bench

import (
	"context"
	"fmt"
	"time"

	"f2/internal/attack"
	"f2/internal/core"
	"f2/internal/crypt"
	"f2/internal/fd"
	"f2/internal/relation"
	"f2/internal/workload"
)

// Experiment is a named harness entry point.
type Experiment struct {
	ID    string
	Paper string // which table/figure of the paper it regenerates
	Run   func(context.Context, Options) ([]*Table, error)
}

// Experiments lists every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1", RunTable1},
		{"fig6", "Figure 6 (a,b)", RunFig6},
		{"fig7", "Figure 7 (a,b)", RunFig7},
		{"fig8", "Figure 8 (a,b)", RunFig8},
		{"fig9", "Figure 9 (a-d)", RunFig9},
		{"fig10", "Figure 10 (a,b)", RunFig10},
		{"local", "§5.4 local vs outsourcing", RunLocalVsOutsource},
		{"security", "§4 empirical α-security", RunSecurity},
		{"ablation", "design-choice ablations", RunAblations},
		{"updates", "§7 append amortization (incremental engine)", RunUpdates},
	}
}

// RunTable1 regenerates Table 1: dataset descriptions, extended with the
// observed MAS counts the paper quotes in §5.1.
func RunTable1(ctx context.Context, o Options) ([]*Table, error) {
	t := &Table{
		ID:     "table1",
		Title:  "Dataset description (paper Table 1, laptop scale)",
		Header: []string{"dataset", "#attrs", "#tuples", "size(MB)", "#MASs", "MAS sizes"},
		Notes: []string{
			"paper: Orders 9 attrs/15M rows/1.64GB (9 MASs), Customer 21/0.96M/282MB (15 MASs), Synthetic 7/4M/224MB (2 MASs)",
		},
	}
	for _, d := range []struct {
		name string
		n    int
	}{
		{workload.NameOrders, o.scale(40000)},
		{workload.NameCustomer, o.scale(10000)},
		{workload.NameSynthetic, o.scale(100000)},
	} {
		tbl, err := dataset(d.name, d.n, o.Seed)
		if err != nil {
			return nil, err
		}
		cfg := benchConfig(0.2)
		enc, err := core.NewEncryptor(cfg)
		if err != nil {
			return nil, err
		}
		res, err := enc.Encrypt(ctx, tbl)
		if err != nil {
			return nil, err
		}
		sizes := ""
		min, max := 0, 0
		for _, m := range res.MASs {
			s := m.Size()
			if min == 0 || s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		if len(res.MASs) > 0 {
			sizes = fmt.Sprintf("%d-%d attrs", min, max)
		}
		t.AddRow(d.name, fmt.Sprint(tbl.NumAttrs()), fmt.Sprint(tbl.NumRows()),
			mb(tbl.ApproxBytes()), fmt.Sprint(len(res.MASs)), sizes)
	}
	return []*Table{t}, nil
}

// RunFig6 regenerates Figure 6: per-step encryption time for various α on
// the synthetic (a) and Orders (b) datasets.
func RunFig6(ctx context.Context, o Options) ([]*Table, error) {
	var out []*Table
	cases := []struct {
		id, name string
		n        int
		alphas   []float64
	}{
		{"fig6a", workload.NameSynthetic, o.scale(50000),
			[]float64{1.0 / 5, 1.0 / 10, 1.0 / 15, 1.0 / 20, 1.0 / 25, 1.0 / 30, 1.0 / 35, 1.0 / 40}},
		{"fig6b", workload.NameOrders, o.scale(20000),
			[]float64{1.0 / 5, 1.0 / 10, 1.0 / 15, 1.0 / 20, 1.0 / 25}},
	}
	for _, c := range cases {
		tbl, err := dataset(c.name, c.n, o.Seed)
		if err != nil {
			return nil, err
		}
		t := &Table{
			ID:     c.id,
			Title:  fmt.Sprintf("Time per step vs α (%s, n=%d)", c.name, c.n),
			Header: []string{"alpha", "MAX(ms)", "SSE(ms)", "SYN(ms)", "FP(ms)", "total(ms)"},
			Notes:  []string{"paper: time ~flat in α; SSE grows slightly as α shrinks"},
		}
		for _, a := range c.alphas {
			res, err := encrypt(ctx, tbl, benchConfig(a))
			if err != nil {
				return nil, err
			}
			r := res.Report
			t.AddRow(alphaLabel(a), ms(r.TimeMAX), ms(r.TimeSSE), ms(r.TimeSYN), ms(r.TimeFP), ms(r.TotalTime()))
		}
		out = append(out, t)
	}
	return out, nil
}

// RunFig7 regenerates Figure 7: per-step encryption time for various data
// sizes on the synthetic (a, α=0.25) and Orders (b, α=0.2) datasets.
func RunFig7(ctx context.Context, o Options) ([]*Table, error) {
	var out []*Table
	cases := []struct {
		id, name string
		alpha    float64
		sizes    []int
	}{
		{"fig7a", workload.NameSynthetic, 0.25,
			[]int{o.scale(33000), o.scale(66000), o.scale(99000), o.scale(132000)}},
		{"fig7b", workload.NameOrders, 0.2,
			[]int{o.scale(10000), o.scale(20000), o.scale(40000), o.scale(80000)}},
	}
	for _, c := range cases {
		t := &Table{
			ID:     c.id,
			Title:  fmt.Sprintf("Time per step vs data size (%s, α=%s)", c.name, alphaLabel(c.alpha)),
			Header: []string{"rows", "MB", "MAX(ms)", "SSE(ms)", "SYN(ms)", "FP(ms)", "total(ms)"},
			Notes:  []string{"paper: all steps grow with size; SSE superlinear on synthetic"},
		}
		for _, n := range c.sizes {
			tbl, err := dataset(c.name, n, o.Seed)
			if err != nil {
				return nil, err
			}
			res, err := encrypt(ctx, tbl, benchConfig(c.alpha))
			if err != nil {
				return nil, err
			}
			r := res.Report
			t.AddRow(fmt.Sprint(n), mb(tbl.ApproxBytes()),
				ms(r.TimeMAX), ms(r.TimeSSE), ms(r.TimeSYN), ms(r.TimeFP), ms(r.TotalTime()))
		}
		out = append(out, t)
	}
	return out, nil
}

// RunFig8 regenerates Figure 8: total encryption time of F² vs the
// deterministic AES baseline vs the Paillier baseline. Paillier is run
// with a 512-bit modulus (the paper's toolbox used 1024) and small sizes —
// it is orders of magnitude slower either way, which is the figure's
// point.
func RunFig8(ctx context.Context, o Options) ([]*Table, error) {
	paillier, err := crypt.GeneratePaillier(512)
	if err != nil {
		return nil, err
	}
	det, err := crypt.NewDetCipher(benchKey())
	if err != nil {
		return nil, err
	}
	var out []*Table
	cases := []struct {
		id, name string
		alpha    float64
		sizes    []int
	}{
		{"fig8a", workload.NameSynthetic, 0.25, []int{o.scale(1000), o.scale(2000), o.scale(4000)}},
		{"fig8b", workload.NameOrders, 0.2, []int{o.scale(1000), o.scale(2000), o.scale(4000)}},
	}
	for _, c := range cases {
		t := &Table{
			ID:     c.id,
			Title:  fmt.Sprintf("F² vs AES vs Paillier (%s, α=%s)", c.name, alphaLabel(c.alpha)),
			Header: []string{"rows", "F2(ms)", "AES(ms)", "Paillier(ms)"},
			Notes: []string{
				"paper: AES < F² << Paillier (log scale); Paillier DNF beyond 0.653GB",
				"Paillier here uses a 512-bit modulus; the paper's toolbox used 1024-bit keys",
			},
		}
		for _, n := range c.sizes {
			tbl, err := dataset(c.name, n, o.Seed)
			if err != nil {
				return nil, err
			}
			res, err := encrypt(ctx, tbl, benchConfig(c.alpha))
			if err != nil {
				return nil, err
			}
			aesTime, err := timeCellwise(tbl, det)
			if err != nil {
				return nil, err
			}
			pailTime, err := timeCellwise(tbl, paillier)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprint(n), ms(res.Report.TotalTime()), ms(aesTime), ms(pailTime))
		}
		out = append(out, t)
	}
	return out, nil
}

// timeCellwise encrypts every cell with a baseline cipher and returns the
// elapsed time.
func timeCellwise(tbl *relation.Table, c crypt.CellCipher) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < tbl.NumRows(); i++ {
		for a := 0; a < tbl.NumAttrs(); a++ {
			if _, err := c.EncryptCell(tbl.Cell(i, a)); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start), nil
}

// RunFig9 regenerates Figure 9: artificial-record overhead by step, vs α
// on Customer (a) and Orders (b), and vs data size on Customer (c) and
// Orders (d).
func RunFig9(ctx context.Context, o Options) ([]*Table, error) {
	var out []*Table
	alphaCases := []struct {
		id, name string
		n        int
	}{
		{"fig9a", workload.NameCustomer, o.scale(10000)},
		{"fig9b", workload.NameOrders, o.scale(20000)},
	}
	alphas := []float64{1, 1.0 / 2, 1.0 / 3, 1.0 / 4, 1.0 / 5, 1.0 / 6, 1.0 / 7, 1.0 / 8, 1.0 / 9, 1.0 / 10}
	for _, c := range alphaCases {
		tbl, err := dataset(c.name, c.n, o.Seed)
		if err != nil {
			return nil, err
		}
		t := &Table{
			ID:     c.id,
			Title:  fmt.Sprintf("Space overhead by step vs α (%s, n=%d)", c.name, c.n),
			Header: []string{"alpha", "GROUP", "SCALE", "SYN", "FP", "total"},
			Notes:  []string{"paper: GROUP and FP dominate; overhead grows as α shrinks"},
		}
		for _, a := range alphas {
			res, err := encrypt(ctx, tbl, benchConfig(a))
			if err != nil {
				return nil, err
			}
			r := res.Report
			t.AddRow(alphaLabel(a),
				pct(r.OverheadBy(r.GroupRows)), pct(r.OverheadBy(r.ScaleRows)),
				pct(r.OverheadBy(r.ConflictRows)), pct(r.OverheadBy(r.FPRows)),
				pct(r.Overhead()))
		}
		out = append(out, t)
	}
	sizeCases := []struct {
		id, name string
		alpha    float64
		sizes    []int
	}{
		{"fig9c", workload.NameCustomer, 0.2,
			[]int{o.scale(2500), o.scale(5000), o.scale(10000), o.scale(20000)}},
		{"fig9d", workload.NameOrders, 0.2,
			[]int{o.scale(5000), o.scale(10000), o.scale(20000), o.scale(40000)}},
	}
	for _, c := range sizeCases {
		t := &Table{
			ID:     c.id,
			Title:  fmt.Sprintf("Space overhead by step vs data size (%s, α=%s)", c.name, alphaLabel(c.alpha)),
			Header: []string{"rows", "GROUP", "SCALE", "SYN", "FP", "total"},
			Notes:  []string{"paper: Customer overhead shrinks with size (FP rows are size-independent); Orders grows (EC collisions grow)"},
		}
		for _, n := range c.sizes {
			tbl, err := dataset(c.name, n, o.Seed)
			if err != nil {
				return nil, err
			}
			res, err := encrypt(ctx, tbl, benchConfig(c.alpha))
			if err != nil {
				return nil, err
			}
			r := res.Report
			t.AddRow(fmt.Sprint(n),
				pct(r.OverheadBy(r.GroupRows)), pct(r.OverheadBy(r.ScaleRows)),
				pct(r.OverheadBy(r.ConflictRows)), pct(r.OverheadBy(r.FPRows)),
				pct(r.Overhead()))
		}
		out = append(out, t)
	}
	return out, nil
}

// RunFig10 regenerates Figure 10: the FD-discovery time overhead
// o = (T' - T)/T of running TANE on the encrypted vs the plaintext table,
// for various α, on Customer (a) and Orders (b).
func RunFig10(ctx context.Context, o Options) ([]*Table, error) {
	var out []*Table
	cases := []struct {
		id, name string
		n        int
	}{
		{"fig10a", workload.NameCustomer, o.scale(4000)},
		{"fig10b", workload.NameOrders, o.scale(10000)},
	}
	alphas := []float64{1.0 / 2, 1.0 / 4, 1.0 / 6, 1.0 / 8, 1.0 / 10}
	for _, c := range cases {
		tbl, err := dataset(c.name, c.n, o.Seed)
		if err != nil {
			return nil, err
		}
		baseStart := time.Now()
		plainFDs := fd.DiscoverWitnessed(tbl)
		baseTime := time.Since(baseStart)
		t := &Table{
			ID:     c.id,
			Title:  fmt.Sprintf("FD discovery overhead on Dˆ vs D (%s, n=%d, TANE on D: %s ms)", c.name, c.n, ms(baseTime)),
			Header: []string{"alpha", "TANE(D)(ms)", "TANE(Dˆ)(ms)", "overhead", "FDs preserved"},
			Notes:  []string{"paper: overhead ≤ 0.4 (Customer) / 0.35 (Orders), growing as α shrinks"},
		}
		for _, a := range alphas {
			res, err := encrypt(ctx, tbl, benchConfig(a))
			if err != nil {
				return nil, err
			}
			encStart := time.Now()
			cipherFDs := fd.DiscoverWitnessed(res.Encrypted)
			encTime := time.Since(encStart)
			preserved := "yes"
			if !plainFDs.Equal(cipherFDs) {
				preserved = fmt.Sprintf("NO (%d vs %d)", plainFDs.Len(), cipherFDs.Len())
			}
			t.AddRow(alphaLabel(a), ms(baseTime), ms(encTime),
				fmt.Sprintf("%.3f", float64(encTime-baseTime)/float64(baseTime)), preserved)
		}
		out = append(out, t)
	}
	return out, nil
}

// RunLocalVsOutsource regenerates the §5.4 comparison: discovering FDs
// locally (TANE on D) vs preparing for outsourcing (encrypting with F²).
func RunLocalVsOutsource(ctx context.Context, o Options) ([]*Table, error) {
	t := &Table{
		ID:     "local",
		Title:  "Local FD discovery vs F² encryption (§5.4)",
		Header: []string{"dataset", "rows", "TANE(D)(ms)", "F2 encrypt(ms)", "ratio"},
		Notes: []string{
			"paper: TANE 1736s vs F² 2s on the 25MB synthetic dataset — DOES NOT REPRODUCE here:",
			"a stripped-partition TANE is fast on these narrow schemas at laptop scale, so the",
			"ratio inverts. The paper's qualitative argument (discovery cost explodes with schema",
			"width while F² stays near-linear in rows) survives; its §5.4 constants reflect the",
			"original Java implementation at 15M rows.",
		},
	}
	for _, c := range []struct {
		name string
		n    int
	}{
		{workload.NameSynthetic, o.scale(33000)},
		{workload.NameCustomer, o.scale(4000)},
		{workload.NameOrders, o.scale(20000)},
	} {
		tbl, err := dataset(c.name, c.n, o.Seed)
		if err != nil {
			return nil, err
		}
		tStart := time.Now()
		fd.Discover(tbl)
		taneTime := time.Since(tStart)
		res, err := encrypt(ctx, tbl, benchConfig(0.25))
		if err != nil {
			return nil, err
		}
		encTime := res.Report.TotalTime()
		t.AddRow(c.name, fmt.Sprint(c.n), ms(taneTime), ms(encTime),
			fmt.Sprintf("%.2fx", float64(taneTime)/float64(encTime)))
	}
	return []*Table{t}, nil
}

// RunSecurity measures the empirical α-security of §4: success rates of
// the frequency matcher and the 4-step Kerckhoffs adversary against F²,
// against the deterministic AES baseline, per dataset and α.
func RunSecurity(ctx context.Context, o Options) ([]*Table, error) {
	t := &Table{
		ID:     "security",
		Title:  "Empirical frequency-analysis success rate (Exp^freq, §2.4/§4)",
		Header: []string{"dataset", "column", "scheme", "alpha", "freq-matcher", "kerckhoffs", "bound"},
		Notes: []string{
			"F² rates must stay ≤ max(α, blind guess 1/d) — α binds on high-cardinality columns,",
			"the blind-guess floor on low-cardinality ones (see docs/DESIGN.md); deterministic",
			"encryption is broken outright on skewed columns. 4000 game trials per cell.",
		},
	}
	type secCase struct {
		name   string
		tbl    *relation.Table
		column string
	}
	ordersTbl, err := dataset(workload.NameOrders, o.scale(8000), o.Seed)
	if err != nil {
		return nil, err
	}
	cases := []secCase{
		{"skewed-zipf", workload.Skewed(o.scale(20000), 1000, 1.3, o.Seed), "V"},
		{workload.NameOrders, ordersTbl, "O_ORDERPRIORITY"},
	}
	for _, c := range cases {
		tbl := c.tbl
		attr := tbl.Schema().Lookup(c.column)
		blind := 1.0 / float64(tbl.DistinctCount(attr))
		// Deterministic baseline.
		det, err := crypt.NewDetCipher(benchKey())
		if err != nil {
			return nil, err
		}
		detTbl := relation.NewTable(tbl.Schema().Clone())
		for i := 0; i < tbl.NumRows(); i++ {
			row := make([]string, tbl.NumAttrs())
			for a := range row {
				ct, err := det.EncryptCell(tbl.Cell(i, a))
				if err != nil {
					return nil, err
				}
				row[a] = ct
			}
			detTbl.AppendRow(row)
		}
		detOracle := func(ct string) (string, bool) {
			p, err := det.DecryptCell(ct)
			return p, err == nil
		}
		fm := attack.RunGame(tbl, detTbl, attr, attack.FrequencyMatcher{}, detOracle, 4000, o.Seed)
		kk := attack.RunGame(tbl, detTbl, attr, attack.Kerckhoffs{}, detOracle, 4000, o.Seed)
		t.AddRow(c.name, c.column, "AES-det", "-",
			fmt.Sprintf("%.3f", fm.Rate()), fmt.Sprintf("%.3f", kk.Rate()), "none")

		for _, alpha := range []float64{1.0 / 2, 1.0 / 5, 1.0 / 10} {
			cfg := benchConfig(alpha)
			res, err := encrypt(ctx, tbl, cfg)
			if err != nil {
				return nil, err
			}
			pc, err := crypt.NewProbCipher(cfg.Key, cfg.PRF)
			if err != nil {
				return nil, err
			}
			oracle := func(ct string) (string, bool) {
				p, err := pc.DecryptCell(ct)
				if err != nil {
					return "", false
				}
				return p, !core.IsArtificialValue(p)
			}
			fm := attack.RunGame(tbl, res.Encrypted, attr, attack.FrequencyMatcher{}, oracle, 4000, o.Seed)
			kk := attack.RunGame(tbl, res.Encrypted, attr, attack.Kerckhoffs{}, oracle, 4000, o.Seed)
			bound := alpha
			suffix := ""
			if blind > bound {
				bound = blind
				suffix = " (floor)"
			}
			t.AddRow(c.name, c.column, "F2", alphaLabel(alpha),
				fmt.Sprintf("%.3f", fm.Rate()), fmt.Sprintf("%.3f", kk.Rate()),
				fmt.Sprintf("≤%.3f%s", bound, suffix))
		}
	}
	return []*Table{t}, nil
}
