package main

import (
	"context"
	"sync"
	"time"
)

// openLoop issues operations on a fixed schedule — op i is due at
// start + i/rate — whatever the server's pace, the way independent users
// arrive. A fixed set of workers (one per client connection) takes the
// operations in order; when all are busy, due operations wait, and that
// wait is charged to them: latency runs from the due time, not the send
// time, so a stall shows in every operation due during it (no coordinated
// omission).
type openLoop struct {
	rate    float64 // operations per second
	workers int
}

// opTiming is one scheduled operation: when it was due, when a worker
// started it, when it finished, and how.
type opTiming struct {
	due, sent, done time.Time
	err             error
}

func (t opTiming) latency() time.Duration  { return t.done.Sub(t.due) }
func (t opTiming) lateness() time.Duration { return t.sent.Sub(t.due) }

// run schedules operations due before end and returns their timings,
// indexed by operation number. It returns once every started operation
// has finished. Cancelling ctx stops scheduling early, not the operations
// already started; those never started are dropped from the result.
func (g openLoop) run(ctx context.Context, start, end time.Time, op func(i int) error) []opTiming {
	interval := time.Duration(float64(time.Second) / g.rate)
	n := int(end.Sub(start) / interval)
	if end.Sub(start)%interval != 0 {
		n++
	}
	timings := make([]opTiming, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < g.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				t := &timings[i] // each index is written by exactly one worker
				t.sent = time.Now()
				t.err = op(i)
				t.done = time.Now()
			}
		}()
	}
	issued := 0
	timer := time.NewTimer(0)
	<-timer.C
schedule:
	for ; issued < n; issued++ {
		due := start.Add(time.Duration(issued) * interval)
		timings[issued].due = due
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break schedule
			}
		}
		select {
		case jobs <- issued:
		case <-ctx.Done():
			break schedule
		}
	}
	timer.Stop()
	close(jobs)
	wg.Wait()
	return timings[:issued]
}
