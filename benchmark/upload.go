package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"f2/internal/mas"
	"f2/internal/partition"
	"f2/internal/relation"
	"f2/internal/workload"
)

// uploadTables is how many distinct tables the upload loop rotates
// through. The orders generator's MAS structure — and with it the cost of
// a create — varies widely from one seed to the next (3 to 8 MASs at 2,000
// rows), so one run averages over many tables; consecutive run seeds share
// most of them.
const uploadTables = 64

// upload creates a fresh orders table and deletes it again, in a closed
// loop with one client.
type upload struct {
	p      *params
	tables []*relation.Table
	bodies [][]byte
	cells  []int64 // plaintext cell bytes per table
	program
}

func newUpload(p *params) (bench, error) {
	b := &upload{p: p}
	for i := 0; i < uploadTables; i++ {
		t, err := workload.Generate(workload.NameOrders, p.uploadRows, p.seed+int64(i))
		if err != nil {
			return nil, err
		}
		body, err := createBody(fmt.Sprintf("upload-%d", i), t, p.keySeed())
		if err != nil {
			return nil, err
		}
		b.tables = append(b.tables, t)
		b.bodies = append(b.bodies, body)
		b.cells = append(b.cells, cellBytes(t.JSON().Rows))
	}
	return b, nil
}

// setup boots the program and runs the first upload after boot, which
// pays the cold costs every later one is spared.
func (b *upload) setup(ctx context.Context, dir string) error {
	in, err := boot(dir)
	if err != nil {
		return err
	}
	b.in = in
	c := newClient(in.base, 1, nil)
	defer c.hc.CloseIdleConnections()
	_, _, _, _, err = b.cycle(ctx, c, 0, false)
	return err
}

// cycle creates table i and deletes it, returning both latencies, the
// create response and, when asked, the bytes the dataset occupied in the
// store between the two.
func (b *upload) cycle(ctx context.Context, c *client, i int, du bool) (create, del time.Duration, resp datasetResponse, disk int64, err error) {
	start := time.Now()
	if err = c.callJSON(ctx, "create_dataset", "POST", "/v1/datasets", b.bodies[i], &resp); err != nil {
		return 0, 0, resp, 0, err
	}
	create = time.Since(start)
	if du {
		if disk, err = storedBytes(b.in, resp.Dataset.ID); err != nil {
			return create, 0, resp, 0, err
		}
	}
	start = time.Now()
	_, err = c.call(ctx, "delete_dataset", "DELETE", "/v1/datasets/"+resp.Dataset.ID, nil)
	return create, time.Since(start), resp, disk, err
}

func (b *upload) measure(ctx context.Context, window time.Duration, tr *tracer) (*pass, error) {
	c := newClient(b.in.base, 1, tr)
	defer c.hc.CloseIdleConnections()
	for i := 1; i <= 2; i++ { // warm-up
		if _, _, _, _, err := b.cycle(ctx, c, i, false); err != nil {
			return nil, err
		}
	}
	if err := tr.begin(ctx, c); err != nil {
		return nil, err
	}
	ps := &pass{}
	// Space is measured once per table, on its first upload: expansion
	// and stored bytes are deterministic for a given table and key seed.
	seen := map[int]bool{}
	var plainRows, encRows, disk, cells int64
	end := time.Now().Add(window)
	for i := 0; time.Now().Before(end); i++ {
		k := i % uploadTables
		ps.attempted += 2
		create, del, resp, du, err := b.cycle(ctx, c, k, !seen[k])
		switch {
		case resp.Dataset.ID == "":
			ps.failed += 2
			ps.primary.fail()
			ps.secondary.fail()
			continue
		case err != nil:
			ps.failed++
			ps.primary.add(ms(create))
			ps.secondary.fail()
		default:
			ps.primary.add(ms(create))
			ps.secondary.add(ms(del))
		}
		ps.userBytes += b.cells[k]
		if got, want := resp.Report.OriginalRows, b.tables[k].NumRows(); got != want {
			ps.reject(fmt.Errorf("create of table %d reports %d original rows, uploaded %d", k, got, want))
		}
		if !seen[k] && err == nil {
			seen[k] = true
			plainRows += int64(resp.Report.OriginalRows)
			encRows += int64(resp.Report.EncryptedRows)
			disk += du
			cells += b.cells[k]
		}
	}
	if err := tr.end(ctx, c); err != nil {
		return nil, err
	}
	if plainRows == 0 {
		return nil, errors.New("no upload succeeded in the window")
	}
	ps.expansion = float64(encRows) / float64(plainRows)
	ps.diskRatio = float64(disk) / float64(cells)

	// Untimed: upload table 0 once more and check what the program holds.
	var resp datasetResponse
	if err := c.callJSON(ctx, "", "POST", "/v1/datasets", b.bodies[0], &resp); err != nil {
		return nil, err
	}
	if err := checkOutputs(ctx, c, resp.Dataset.ID, newModel(b.tables[0]), b.p, ps); err != nil {
		return nil, err
	}
	_, err := c.call(ctx, "", "DELETE", "/v1/datasets/"+resp.Dataset.ID, nil)
	return ps, err
}

// probe times the layers a create runs before any server span starts —
// building the relation from the decoded rows — and Step 1's pieces
// called directly, on the window's first table.
func (b *upload) probe(ctx context.Context, tr *tracer) error {
	t := b.tables[0]
	sch, rows := t.Schema(), t.JSON().Rows
	if err := tr.timeCall("relation.from_rows_ms", 5, func() error {
		_, err := relation.FromRows(sch, rows)
		return err
	}); err != nil {
		return err
	}
	var res *mas.Result
	if err := tr.timeCall("mas.discover_ms", 5, func() (err error) {
		res, err = mas.DiscoverCtx(ctx, t)
		return err
	}); err != nil {
		return err
	}
	return tr.timeCall("partition.of_ms", 5, func() error {
		for _, x := range res.Sets {
			partition.Of(t, x)
		}
		return nil
	})
}
