package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"f2/internal/core"
	"f2/internal/mas"
	"f2/internal/relation"
	"f2/internal/store"
	"f2/internal/workload"
)

// restart reopens a stored dataset with an acknowledged but unflushed WAL
// tail, then makes the first request and the first flush, in a closed
// loop with one client. The incremental plan is not persisted, so that
// first flush is always a full rebuild.
//
// Every cycle restarts from a byte copy of the same on-disk state. Letting
// the appends accumulate instead would grow the dataset with every cycle,
// so a faster program would run more cycles on a larger table and be
// timed on different work.
type restart struct {
	p      *params
	base   *relation.Table
	create []byte
	tail   [][]byte // append bodies left unflushed in the WAL
	append []byte   // each cycle's append
	m      *model   // what the dataset holds after a cycle

	appendBytes int64 // plaintext cell bytes of each cycle's append

	dir, pristine string
	id            string
	program
}

func newRestart(p *params) (bench, error) {
	base, err := workload.Generate(workload.NameSynthetic, p.restartRows, p.seed)
	if err != nil {
		return nil, err
	}
	stream, err := workload.Generate(workload.NameSynthetic, (p.restartTail+1)*batchRows, p.seed+7)
	if err != nil {
		return nil, err
	}
	b := &restart{p: p, base: base, m: newModel(base)}
	if b.create, err = createBody("restart", base, p.keySeed()); err != nil {
		return nil, err
	}
	rows := stream.JSON().Rows
	for i := 0; i <= p.restartTail; i++ {
		batch := rows[i*batchRows : (i+1)*batchRows]
		body, err := appendBody(batch)
		if err != nil {
			return nil, err
		}
		if i < p.restartTail {
			b.tail = append(b.tail, body)
		} else {
			b.append, b.appendBytes = body, cellBytes(batch)
		}
		b.m.add(batch)
	}
	return b, nil
}

// setup creates the dataset and journals the tail: the state every cycle
// restarts from.
func (b *restart) setup(ctx context.Context, dir string) (err error) {
	b.dir = dir
	if b.id, err = b.bootWith(ctx, dir, b.create); err != nil {
		return err
	}
	c := newClient(b.in.base, 1, nil)
	defer c.hc.CloseIdleConnections()
	for _, body := range b.tail {
		if _, err := c.call(ctx, "", "POST", "/v1/datasets/"+b.id+"/rows", body); err != nil {
			return err
		}
	}
	return nil
}

// restore replaces the data directory with the pristine copy.
func (b *restart) restore() error {
	if err := os.RemoveAll(b.dir); err != nil {
		return err
	}
	return copyDir(b.pristine, b.dir)
}

// cycleTimes are one cycle's milestones, each timed from the reopen.
type cycleTimes struct {
	read  time.Duration // first request answered (lazy boot: no hydration)
	write time.Duration // first append acknowledged (hydration, replay, fsync)
	flush time.Duration // first flush done (a full rebuild)
}

// cycle reopens the restored store and serves the first request, the
// first append and the first flush. The instance stays open.
func (b *restart) cycle(ctx context.Context, c *client) (t cycleTimes, got summary, err error) {
	start := time.Now()
	if b.in, err = boot(b.dir); err != nil {
		return t, got, err
	}
	c.base = b.in.base
	path := "/v1/datasets/" + b.id
	if _, err = c.call(ctx, "get_dataset", "GET", path, nil); err != nil {
		return t, got, err
	}
	t.read = time.Since(start)
	if _, err = c.call(ctx, "append_rows", "POST", path+"/rows", b.append); err != nil {
		return t, got, err
	}
	t.write = time.Since(start)
	var resp datasetResponse
	if err = c.callJSON(ctx, "flush", "POST", path+"/flush?wait=1", nil, &resp); err != nil {
		return t, got, err
	}
	t.flush = time.Since(start)
	return t, resp.Dataset, nil
}

func (b *restart) measure(ctx context.Context, window time.Duration, tr *tracer) (*pass, error) {
	if err := b.teardown(); err != nil {
		return nil, err
	}
	b.pristine = b.dir + ".pristine"
	if err := copyDir(b.dir, b.pristine); err != nil {
		return nil, err
	}
	c := newClient("", 1, tr)
	defer c.hc.CloseIdleConnections()
	ps := &pass{}
	// next restores the data directory and runs one cycle; a timed cycle's
	// failure counts against the window instead of ending the run.
	next := func(timed bool) (summary, error) {
		if err := b.restore(); err != nil {
			return summary{}, err
		}
		t, got, err := b.cycle(ctx, c)
		switch {
		case !timed:
			return got, err
		case err != nil:
			ps.failed++
			ps.primary.fail()
			ps.secondary.fail()
		default:
			ps.userBytes += b.appendBytes
			ps.primary.add(ms(t.flush))
			ps.secondary.add(ms(t.write))
			ps.firstRead.add(ms(t.read))
			if got.Rows != len(b.m.rows) || got.PendingRows != 0 {
				ps.reject(fmt.Errorf("after restart and flush the dataset has %d rows (%d pending), %d were acknowledged",
					got.Rows, got.PendingRows, len(b.m.rows)))
			}
		}
		return got, nil
	}

	if _, err := next(false); err != nil { // warm-up
		return nil, err
	}
	if err := b.teardown(); err != nil {
		return nil, err
	}
	if tr != nil {
		tr.start()
	}
	for end := time.Now().Add(window); time.Now().Before(end); {
		ps.attempted++
		if _, err := next(true); err != nil {
			return nil, err
		}
		if tr != nil && b.in != nil {
			// Each boot's counters start at zero: its final scrape is
			// its whole contribution.
			after, err := c.scrape(ctx)
			if err != nil {
				return nil, err
			}
			tr.add(nil, after)
		}
		if err := b.teardown(); err != nil {
			return nil, err
		}
		c.hc.CloseIdleConnections()
	}
	if tr != nil {
		tr.stop()
	}

	// Untimed: one more cycle, then check what the program holds.
	got, err := next(false)
	if err != nil {
		return nil, err
	}
	ps.expansion = got.expansion()
	if ps.diskRatio, err = storedRatio(b.in, b.id, b.m); err != nil {
		return nil, err
	}
	return ps, checkOutputs(ctx, c, b.id, b.m, b.p, ps)
}

// probe times the recovery layers directly on a copy of the restart
// state: the boot-time index scan, chunk hydration, rebuilding the
// updater from its state, and Step 1 on the recovered table.
func (b *restart) probe(ctx context.Context, tr *tracer) error {
	dir := b.dir + ".probe"
	if err := copyDir(b.pristine, dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	var loaded []*store.Loaded
	if err := tr.timeCall("store.load_all_ms", 5, func() (err error) {
		loaded, _, err = st.LoadAll()
		return err
	}); err != nil {
		return err
	}
	if len(loaded) != 1 {
		return fmt.Errorf("probe: store holds %d datasets, want 1", len(loaded))
	}
	var state *core.UpdaterState
	if err := tr.timeCall("store.load_state_ms", 5, func() (err error) {
		state, err = st.LoadState(ctx, b.id)
		return err
	}); err != nil {
		return err
	}
	var upd *core.Updater
	if err := tr.timeCall("core.restore_updater_ms", 5, func() (err error) {
		upd, err = core.RestoreUpdater(loaded[0].Config, state)
		return err
	}); err != nil {
		return err
	}
	return tr.timeCall("mas.discover_ms", 5, func() error {
		_, err := mas.DiscoverCtx(ctx, upd.Current())
		return err
	})
}
