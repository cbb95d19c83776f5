package bench

import (
	"context"
	"fmt"
	"time"

	"f2/internal/core"
	"f2/internal/crypt"
	"f2/internal/mas"
	"f2/internal/workload"
)

// RunAblations runs the design-choice ablations called out in
// docs/DESIGN.md: split factor ϖ, split point, MAS-discovery algorithm,
// PRF family, and the effect of disabling Step 3/Step 4.
func RunAblations(ctx context.Context, o Options) ([]*Table, error) {
	var out []*Table
	for _, f := range []func(context.Context, Options) (*Table, error){
		ablationSplitFactor,
		ablationSplitPoint,
		ablationMASSearch,
		ablationPRF,
		ablationSteps,
	} {
		t, err := f(ctx, o)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// ablationSplitFactor sweeps ϖ: larger split factors spread each
// equivalence class over more ciphertext instances (better Kerckhoffs
// margin: success ≤ 1/y with y = ϖk'+k-k') at the cost of more scale
// copies.
func ablationSplitFactor(ctx context.Context, o Options) (*Table, error) {
	tbl, err := dataset(workload.NameSynthetic, o.scale(33000), o.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ablation-splitfactor",
		Title:  "Split factor ϖ sweep (synthetic, α=0.25)",
		Header: []string{"ϖ", "instances", "SCALE rows", "total overhead", "SSE(ms)"},
		Notes:  []string{"§3.2.2: ϖ is user-chosen; §4.2: larger ϖ increases the ciphertext count y per ECG"},
	}
	for _, w := range []int{2, 3, 4, 6, 8} {
		cfg := benchConfig(0.25)
		cfg.SplitFactor = w
		res, err := encrypt(ctx, tbl, cfg)
		if err != nil {
			return nil, err
		}
		r := res.Report
		t.AddRow(fmt.Sprint(w), fmt.Sprint(r.NumInstances), fmt.Sprint(r.ScaleRows),
			pct(r.Overhead()), ms(r.TimeSSE))
	}
	return t, nil
}

// ablationMASSearch compares the DUCC-style border search against the
// levelwise Apriori sweep (§3.1 argues DUCC's cost tracks the border, not
// the attribute count).
func ablationMASSearch(ctx context.Context, o Options) (*Table, error) {
	t := &Table{
		ID:     "ablation-mas",
		Title:  "MAS discovery: DUCC border search vs levelwise sweep",
		Header: []string{"dataset", "rows", "ducc(ms)", "ducc checks", "levelwise(ms)", "levelwise checks"},
	}
	for _, c := range []struct {
		name string
		n    int
	}{
		{workload.NameOrders, o.scale(10000)},
		{workload.NameCustomer, o.scale(4000)},
		{workload.NameSynthetic, o.scale(33000)},
	} {
		tbl, err := dataset(c.name, c.n, o.Seed)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ducc := mas.Discover(tbl)
		duccTime := time.Since(start)
		start = time.Now()
		level := mas.DiscoverLevelwise(tbl)
		levelTime := time.Since(start)
		if len(ducc.Sets) != len(level.Sets) {
			return nil, fmt.Errorf("bench: MAS algorithms disagree on %s (%d vs %d sets)",
				c.name, len(ducc.Sets), len(level.Sets))
		}
		t.AddRow(c.name, fmt.Sprint(c.n), ms(duccTime), fmt.Sprint(ducc.Checked),
			ms(levelTime), fmt.Sprint(level.Checked))
	}
	return t, nil
}

// ablationPRF compares the AES-CTR and HMAC-SHA256 pseudorandom functions
// backing the probabilistic cipher.
func ablationPRF(ctx context.Context, o Options) (*Table, error) {
	tbl, err := dataset(workload.NameOrders, o.scale(10000), o.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ablation-prf",
		Title:  "PRF family: AES-CTR vs HMAC-SHA256 (Orders, α=0.2)",
		Header: []string{"prf", "SSE(ms)", "SYN(ms)", "total(ms)"},
	}
	for _, prf := range []crypt.PRF{crypt.PRFAESCTR, crypt.PRFHMAC} {
		cfg := benchConfig(0.2)
		cfg.PRF = prf
		res, err := encrypt(ctx, tbl, cfg)
		if err != nil {
			return nil, err
		}
		r := res.Report
		t.AddRow(prf.String(), ms(r.TimeSSE), ms(r.TimeSYN), ms(r.TotalTime()))
	}
	return t, nil
}

// ablationSteps disables conflict resolution and FP elimination in turn,
// demonstrating why each step exists (Figure 3(e) and Example 3.1).
func ablationSteps(ctx context.Context, o Options) (*Table, error) {
	tbl, err := dataset(workload.NameSynthetic, o.scale(33000), o.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ablation-steps",
		Title:  "Disabling pipeline steps (synthetic, α=0.25)",
		Header: []string{"variant", "rows out", "overhead", "total(ms)"},
		Notes:  []string{"skipping Step 4 leaves false-positive FDs; skipping Step 3 breaks FDs across overlapping MASs (checked by unit tests)"},
	}
	variants := []struct {
		name string
		mod  func(*core.Config)
	}{
		{"full pipeline", func(*core.Config) {}},
		{"skip FP elimination", func(c *core.Config) { c.SkipFPElimination = true }},
		{"skip conflict resolution", func(c *core.Config) { c.SkipConflictResolution = true }},
	}
	for _, v := range variants {
		cfg := benchConfig(0.25)
		v.mod(&cfg)
		res, err := encrypt(ctx, tbl, cfg)
		if err != nil {
			return nil, err
		}
		r := res.Report
		t.AddRow(v.name, fmt.Sprint(r.EncryptedRows), pct(r.Overhead()), ms(r.TotalTime()))
	}
	return t, nil
}

// ablationSplitPoint compares the optimal split-point search of §3.2.2
// against naively splitting every equivalence class (j = 1): the optimal
// point is "close to the ECs of the largest frequency (few split is
// needed)", which the copy counts confirm.
func ablationSplitPoint(ctx context.Context, o Options) (*Table, error) {
	t := &Table{
		ID:     "ablation-splitpoint",
		Title:  "Optimal vs naive split point (α=0.25, ϖ=2)",
		Header: []string{"dataset", "rows", "optimal SCALE rows", "naive SCALE rows", "saved"},
	}
	for _, c := range []struct {
		name string
		n    int
	}{
		{workload.NameSynthetic, o.scale(33000)},
		{workload.NameOrders, o.scale(10000)},
	} {
		tbl, err := dataset(c.name, c.n, o.Seed)
		if err != nil {
			return nil, err
		}
		opt, err := encrypt(ctx, tbl, benchConfig(0.25))
		if err != nil {
			return nil, err
		}
		cfg := benchConfig(0.25)
		cfg.NaiveSplitPoint = true
		naive, err := encrypt(ctx, tbl, cfg)
		if err != nil {
			return nil, err
		}
		saved := naive.Report.ScaleRows - opt.Report.ScaleRows
		t.AddRow(c.name, fmt.Sprint(c.n),
			fmt.Sprint(opt.Report.ScaleRows), fmt.Sprint(naive.Report.ScaleRows),
			fmt.Sprintf("%d (%.1f%%)", saved, 100*float64(saved)/float64(max(naive.Report.ScaleRows, 1))))
	}
	return t, nil
}
