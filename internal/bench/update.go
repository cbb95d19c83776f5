package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"f2/internal/core"
	"f2/internal/mas"
	"f2/internal/relation"
	"f2/internal/workload"
)

// RunUpdates measures the §7 future-work item this repo implements: the
// amortized cost of an append stream under three flush strategies —
// per-row rebuild (flush after every appended row), buffered rebuild
// (flush per batch, full pipeline), and the incremental engine (flush per
// batch, touching only the ECGs the rows land in). The appended rows are
// synthesized border-stably (existing MAS projections, fresh values
// elsewhere), so the incremental path never needs its rebuild fallback
// and the comparison isolates the engine itself.
func RunUpdates(ctx context.Context, o Options) ([]*Table, error) {
	base := o.scale(5000)
	batches, perBatch := 8, o.scale(400)/8
	if perBatch < 1 {
		perBatch = 1
	}
	tbl, err := dataset(workload.NameSynthetic, base+1, o.Seed) // +1: distinct cache key vs other experiments
	if err != nil {
		return nil, err
	}
	stream, err := borderStableStream(tbl, batches*perBatch, o.Seed)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "updates",
		Title: fmt.Sprintf("Append amortization (synthetic, n=%d, %d batches × %d rows, α=1/4)", base+1, batches, perBatch),
		Header: []string{"strategy", "flushes", "rebuilds", "incremental",
			"uniq checks", "border probes", "re-enc rows", "time(ms)"},
		Notes: []string{
			"paper §7: updates 'apply splitting and scaling from scratch'; the incremental engine",
			"re-checks the border locally (probes are O(m) row compares, not O(n·m) table scans)",
			"and re-encrypts only appended/patched rows, reusing the rest of the ciphertext",
		},
	}

	type strategy struct {
		name     string
		mode     core.UpdateStrategy
		rowFlush bool // flush after every appended row
	}
	for _, s := range []strategy{
		{"incremental", core.UpdateIncremental, false},
		{"buffered-rebuild", core.UpdateRebuild, false},
		{"per-row-rebuild", core.UpdateRebuild, true},
	} {
		u, _, err := core.NewUpdater(ctx, benchConfig(0.25), tbl)
		if err != nil {
			return nil, err
		}
		u.Strategy = s.mode
		flushes, checks, probes, reenc := 0, 0, 0, 0
		start := time.Now()
		for b := 0; b < batches; b++ {
			batch := stream[b*perBatch : (b+1)*perBatch]
			if s.rowFlush {
				for _, row := range batch {
					if err := u.Buffer([][]string{row}); err != nil {
						return nil, err
					}
					res, err := u.Flush(ctx)
					if err != nil {
						return nil, err
					}
					flushes++
					checks += res.Report.UniquenessChecks
					probes += res.Report.BorderProbes
					reenc += res.Report.ReencryptedRows
				}
				continue
			}
			if err := u.Buffer(batch); err != nil {
				return nil, err
			}
			res, err := u.Flush(ctx)
			if err != nil {
				return nil, err
			}
			flushes++
			checks += res.Report.UniquenessChecks
			probes += res.Report.BorderProbes
			reenc += res.Report.ReencryptedRows
		}
		elapsed := time.Since(start)
		t.AddRow(s.name, fmt.Sprint(flushes), fmt.Sprint(u.Rebuilds-1),
			fmt.Sprint(u.IncrementalFlushes), fmt.Sprint(checks), fmt.Sprint(probes),
			fmt.Sprint(reenc), ms(elapsed))
	}
	return []*Table{t}, nil
}

// borderStableStream synthesizes count append rows that provably keep
// the
// MAS border of tbl: each row copies an existing size-≥2 equivalence
// class's projection over one MAS and takes globally fresh values
// elsewhere, so every agreement set it realizes is contained in one an
// existing row pair already realizes — hence inside an existing MAS.
func borderStableStream(tbl *relation.Table, count int, seed int64) ([][]string, error) {
	disc := mas.Discover(tbl)
	if len(disc.Sets) == 0 {
		return nil, fmt.Errorf("bench: update workload has no MASs")
	}
	type pool struct {
		attrs relation.AttrSet
		reps  [][]string // projections of non-singleton classes
	}
	pools := make([]pool, 0, len(disc.Sets))
	for _, m := range disc.Sets {
		var reps [][]string
		for _, c := range disc.Partitions[m].NonSingletonClasses() {
			reps = append(reps, tbl.Project(c.Rows[0], m))
		}
		if len(reps) > 0 {
			pools = append(pools, pool{attrs: m, reps: reps})
		}
	}
	if len(pools) == 0 {
		return nil, fmt.Errorf("bench: update workload has no grouped classes")
	}
	rng := rand.New(rand.NewSource(seed + 99))
	rows := make([][]string, count)
	for i := range rows {
		row := make([]string, tbl.NumAttrs())
		for a := range row {
			row[a] = fmt.Sprintf("upd-%d-%d", i, a)
		}
		p := pools[rng.Intn(len(pools))]
		rep := p.reps[rng.Intn(len(p.reps))]
		for ai, a := range p.attrs.Attrs() {
			row[a] = rep[ai]
		}
		rows[i] = row
	}
	return rows, nil
}
