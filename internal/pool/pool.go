// Package pool provides the bounded worker pool behind every parallel
// stage of the F² pipeline: instance-cipher filling, the false-positive
// border searches, and table decryption fan out through a Pool instead
// of spawning unbounded goroutines. None of them mints fresh values; row
// emission stays serial.
//
// The pool mirrors the job-execution pattern of internal/server: a fixed
// set of worker goroutines, context cancellation honored both while a
// task waits for a worker and between tasks of a batch, and panic
// recovery that converts a crashing task into an error for the submitter
// (so one poisoned task cannot take down a whole service process).
//
// Invariants:
//
//   - a pool of two or more workers executes at most as many tasks
//     concurrently as it has workers, however many Run/ForEach calls are
//     in flight;
//   - a Pool with one worker starts no goroutine and bounds nothing: Run
//     and ForEach execute on each calling goroutine, ForEach bodies in
//     index order, so concurrent callers run their tasks concurrently.
//     The serial pipeline is literally the parallel pipeline at width 1;
//   - ForEach never returns before every started task has finished, so
//     callers may hand tasks shared, index-partitioned state without
//     further synchronization.
package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by Run and ForEach once Close has been called.
var ErrClosed = errors.New("pool: closed")

// Task is one unit of work executed on a pool worker.
type Task func(ctx context.Context) error

// Pool is a fixed-size worker pool.
type Pool struct {
	jobs    chan job
	quit    chan struct{}
	wg      sync.WaitGroup
	workers int
}

type job struct {
	ctx  context.Context
	fn   Task
	done chan error
}

// New starts a pool with the given number of workers (minimum 1). A
// one-worker pool spawns no goroutines at all: work runs inline on the
// submitting goroutine, so it does not limit how many callers run tasks
// at once.
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{quit: make(chan struct{}), workers: workers}
	if workers > 1 {
		p.jobs = make(chan job)
		p.wg.Add(workers)
		for w := 0; w < workers; w++ {
			go p.worker()
		}
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case j := <-p.jobs:
			if err := j.ctx.Err(); err != nil {
				j.done <- err // abandoned while queued
				continue
			}
			j.done <- protect(j.ctx, j.fn)
		}
	}
}

// protect executes one task, converting a panic into an error carrying
// the panic value (the stack is attached so the failure is debuggable
// from the error alone — the pool has no logger of its own).
func protect(ctx context.Context, fn Task) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pool: task panic: %v\n%s", r, debug.Stack())
		}
	}()
	return fn(ctx)
}

// closed reports whether Close has been called.
func (p *Pool) closed() bool {
	select {
	case <-p.quit:
		return true
	default:
		return false
	}
}

// Run executes fn on a pool worker and blocks until it finishes,
// returning its error. While the task waits for a worker, a cancelled ctx
// abandons it; once running, cancellation is fn's responsibility. After
// Close, Run returns ErrClosed.
func (p *Pool) Run(ctx context.Context, fn Task) error {
	if p.workers == 1 {
		if p.closed() {
			return ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		return protect(ctx, fn)
	}
	j := job{ctx: ctx, fn: fn, done: make(chan error, 1)}
	select {
	case p.jobs <- j:
	case <-ctx.Done():
		return ctx.Err()
	case <-p.quit:
		return ErrClosed
	}
	return <-j.done
}

// ForEach runs fn(ctx, i) for every i in [0, n), spreading the calls
// across the pool's workers, and returns after all started calls have
// finished. On a one-worker pool the calls run inline, in index order.
//
// Indices are claimed dynamically (an atomic counter, not static
// striping), so uneven task costs still balance. The first failure — an
// error or a recovered panic — stops further indices from being claimed;
// fn may therefore be skipped for some indices, and callers must treat
// the batch's output as invalid as a whole. The error returned is that
// of the lowest failing index, so it does not depend on the width or the
// schedule: indices are claimed in order and every claimed call
// finishes, so when index i fails every index below it has run. A
// cancellation that stops the batch between calls is returned only when
// no call failed.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if p.workers == 1 {
		if p.closed() {
			return ErrClosed
		}
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			i := i
			if err := protect(ctx, func(ctx context.Context) error { return fn(ctx, i) }); err != nil {
				return err
			}
		}
		return nil
	}
	// A single task on a multi-worker pool still occupies a worker slot:
	// the "at most Workers tasks execute concurrently" bound must hold
	// even when several ForEach batches share one pool.
	if n == 1 {
		return p.Run(ctx, func(ctx context.Context) error { return fn(ctx, 0) })
	}
	w := p.workers
	if w > n {
		w = n
	}

	var next atomic.Int64
	var stop atomic.Bool
	var mu sync.Mutex
	failed, failure := n, error(nil) // lowest failing index and its error
	errs := make([]error, w)
	var wg sync.WaitGroup
	for r := 0; r < w; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = p.Run(ctx, func(ctx context.Context) error {
				for !stop.Load() {
					i := int(next.Add(1)) - 1
					if i >= n {
						return nil
					}
					if err := ctx.Err(); err != nil {
						return err
					}
					if err := protect(ctx, func(ctx context.Context) error { return fn(ctx, i) }); err != nil {
						stop.Store(true)
						mu.Lock()
						if i < failed {
							failed, failure = i, err
						}
						mu.Unlock()
						return nil
					}
				}
				return nil
			})
		}(r)
	}
	wg.Wait()
	if failure != nil {
		return failure
	}
	// No call failed: what is left is a cancellation, while a slot was
	// queued or between calls, or a closed pool.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close stops accepting work and waits for running tasks to finish.
// Tasks still waiting for a worker see their Run return ErrClosed.
func (p *Pool) Close() {
	close(p.quit)
	p.wg.Wait()
}
