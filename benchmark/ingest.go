package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"f2/internal/relation"
	"f2/internal/workload"
)

// pollEvery is the reader's period: one GET of the dataset summary every
// 25 ms, sharing the appenders' two connections.
const pollEvery = 25 * time.Millisecond

// ingest streams appends at a fixed rate into one growing dataset while a
// reader polls it. Fresh rows from another synthetic seed make the stream
// mix incremental flushes with rebuild fallbacks.
type ingest struct {
	p      *params
	base   *relation.Table
	create []byte
	rows   [][][]string // rows[i] is append i's batch
	bodies [][]byte

	program
	id string
	m  *model
}

func newIngest(p *params) (bench, error) {
	base, err := workload.Generate(workload.NameSynthetic, p.ingestRows, p.seed)
	if err != nil {
		return nil, err
	}
	b := &ingest{p: p, base: base}
	if b.create, err = createBody("ingest", base, p.keySeed()); err != nil {
		return nil, err
	}
	// Enough batches for the longest pass: warm-up, window and drain.
	n := int(p.ingestRate*(p.warmup+p.window+p.drainMax).Seconds()) + 1
	stream, err := workload.Generate(workload.NameSynthetic, n*batchRows, p.seed+7)
	if err != nil {
		return nil, err
	}
	all := stream.JSON().Rows
	for i := 0; i < n; i++ {
		batch := all[i*batchRows : (i+1)*batchRows]
		body, err := appendBody(batch)
		if err != nil {
			return nil, err
		}
		b.rows = append(b.rows, batch)
		b.bodies = append(b.bodies, body)
	}
	return b, nil
}

func (b *ingest) setup(ctx context.Context, dir string) (err error) {
	b.m = newModel(b.base)
	b.id, err = b.bootWith(ctx, dir, b.create)
	return err
}

func (b *ingest) probe(context.Context, *tracer) error { return nil }

// poll is one reader observation: when the response arrived and how many
// rows the ciphertext covered.
type poll struct {
	at   time.Time
	rows int
}

func (b *ingest) measure(ctx context.Context, window time.Duration, tr *tracer) (*pass, error) {
	c := newClient(b.in.base, 2, tr)
	defer c.hc.CloseIdleConnections()
	path := "/v1/datasets/" + b.id
	gen := openLoop{rate: b.p.ingestRate, workers: 2}
	start := time.Now().Add(10 * time.Millisecond)
	winStart := start.Add(b.p.warmup)
	winEnd := winStart.Add(window)
	interval := time.Duration(float64(time.Second) / gen.rate)
	inWindow := func(i int) bool {
		due := start.Add(time.Duration(i) * interval)
		return !due.Before(winStart) && due.Before(winEnd)
	}

	// The schedule stops early once every append due in the window has
	// finished and the reader has seen all of them encrypted; until then
	// the stream keeps running, so the last timed appends become visible
	// through the same flush policy as the rest.
	windowLeft := atomic.Int64{}
	for i := 0; start.Add(time.Duration(i) * interval).Before(winEnd); i++ {
		if inWindow(i) {
			windowLeft.Add(1)
		}
	}
	maxTarget := atomic.Int64{}
	targets := make([]int, len(b.bodies)) // rows+pendingRows each append's ack reported
	sched, stopSched := context.WithCancel(ctx)
	defer stopSched()

	var polls []poll
	var pollErr error
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		began, ended := false, false
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
			}
			// On traced passes the reader also brackets the window.
			now := time.Now()
			if !began && !now.Before(winStart) {
				began, pollErr = true, tr.begin(ctx, c)
			} else if began && !ended && !now.Before(winEnd) {
				ended, pollErr = true, tr.end(ctx, c)
			}
			if pollErr != nil {
				return
			}
			var resp datasetResponse
			if err := c.callJSON(ctx, "get_dataset", "GET", path, nil, &resp); err != nil {
				pollErr = err
				return
			}
			p := poll{at: time.Now(), rows: resp.Dataset.Rows}
			polls = append(polls, p)
			if !p.at.Before(winEnd) && windowLeft.Load() == 0 && int64(p.rows) >= maxTarget.Load() {
				stopSched()
			}
		}
	}()

	timings := gen.run(sched, start, winEnd.Add(b.p.drainMax), func(i int) error {
		var resp datasetResponse
		err := c.callJSON(ctx, "append_rows", "POST", path+"/rows", b.bodies[i], &resp)
		if err == nil {
			targets[i] = resp.Dataset.Rows + resp.Dataset.PendingRows
		}
		if inWindow(i) {
			if err == nil {
				raise(&maxTarget, int64(targets[i]))
			}
			windowLeft.Add(-1)
		}
		return err
	})
	close(stopPoll)
	pollWG.Wait()
	if pollErr != nil {
		return nil, fmt.Errorf("reader: %w", pollErr)
	}

	ps := &pass{}
	for i, t := range timings {
		if t.err == nil {
			b.m.add(b.rows[i])
		}
		if !inWindow(i) {
			continue
		}
		ps.attempted++
		ps.late.add(ms(t.lateness()))
		if t.err != nil {
			ps.failed++
			ps.secondary.fail()
			ps.primary.fail()
			if statusOf(t.err) == http.StatusTooManyRequests {
				ps.refused++
			}
			continue
		}
		ps.userBytes += cellBytes(b.rows[i])
		ps.secondary.add(ms(t.latency()))
		if lag, ok := visibleAfter(polls, t.done, targets[i]); ok {
			ps.primary.add(ms(lag))
		} else {
			ps.failed++
			ps.primary.fail()
		}
	}
	if ps.attempted == 0 {
		return nil, errors.New("no append was due in the window")
	}

	// Untimed from here: make everything visible, then check the outputs.
	var flushed datasetResponse
	if err := c.callJSON(ctx, "", "POST", path+"/flush?wait=1", nil, &flushed); err != nil {
		return nil, err
	}
	if got, want := flushed.Dataset.Rows, len(b.m.rows); got != want {
		ps.reject(fmt.Errorf("after the final flush the dataset has %d rows, %d were acknowledged", got, want))
	}
	ps.expansion = flushed.Dataset.expansion()
	var err error
	if ps.diskRatio, err = storedRatio(b.in, b.id, b.m); err != nil {
		return nil, err
	}
	return ps, checkOutputs(ctx, c, b.id, b.m, b.p, ps)
}

// visibleAfter returns how long after ack the first poll showed at least
// target rows encrypted. polls are in arrival order and their row counts
// never decrease.
func visibleAfter(polls []poll, ack time.Time, target int) (time.Duration, bool) {
	j := sort.Search(len(polls), func(k int) bool { return !polls[k].at.Before(ack) })
	k := sort.Search(len(polls), func(k int) bool { return polls[k].rows >= target })
	if k < j {
		k = j
	}
	if k == len(polls) {
		return 0, false
	}
	return polls[k].at.Sub(ack), true
}

// raise stores v in x if it is larger.
func raise(x *atomic.Int64, v int64) {
	for {
		cur := x.Load()
		if v <= cur || x.CompareAndSwap(cur, v) {
			return
		}
	}
}
