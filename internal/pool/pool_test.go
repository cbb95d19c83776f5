package pool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachVisitsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := New(workers)
			defer p.Close()
			const n = 1000
			seen := make([]atomic.Int32, n)
			if err := p.ForEach(context.Background(), n, func(ctx context.Context, i int) error {
				seen[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("index %d visited %d times", i, got)
				}
			}
		})
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := New(workers)
	defer p.Close()
	var active, peak atomic.Int32
	err := p.ForEach(context.Background(), 64, func(ctx context.Context, i int) error {
		a := active.Add(1)
		for {
			cur := peak.Load()
			if a <= cur || peak.CompareAndSwap(cur, a) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		active.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, pool has %d workers", p, workers)
	}
}

func TestForEachPropagatesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		defer p.Close()
		boom := errors.New("boom")
		err := p.ForEach(context.Background(), 100, func(ctx context.Context, i int) error {
			if i == 13 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want %v", workers, err, boom)
		}
	}
}

// TestForEachErrorIsLowestIndex: when every task fails and index 0
// fails last, ForEach still reports index 0's error, at every width.
func TestForEachErrorIsLowestIndex(t *testing.T) {
	for _, workers := range []int{1, 8} {
		p := New(workers)
		defer p.Close()
		for run := 0; run < 10; run++ {
			err := p.ForEach(context.Background(), 64, func(ctx context.Context, i int) error {
				if i == 0 {
					time.Sleep(5 * time.Millisecond)
				}
				return fmt.Errorf("task %d failed", i)
			})
			if err == nil || err.Error() != "task 0 failed" {
				t.Fatalf("workers=%d run %d: got %v, want task 0's error", workers, run, err)
			}
		}
	}
}

func TestForEachRecoversPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		defer p.Close()
		err := p.ForEach(context.Background(), 8, func(ctx context.Context, i int) error {
			if i == 3 {
				panic("kaboom")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("workers=%d: want panic error, got %v", workers, err)
		}
	}
}

func TestForEachHonorsCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		defer p.Close()
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int32
		err := p.ForEach(ctx, 10000, func(ctx context.Context, i int) error {
			if calls.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if c := calls.Load(); c >= 10000 {
			t.Fatalf("workers=%d: cancellation did not stop the batch (%d calls)", workers, c)
		}
	}
}

func TestRunAfterClose(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		p.Close()
		if err := p.Run(context.Background(), func(ctx context.Context) error { return nil }); !errors.Is(err, ErrClosed) {
			t.Fatalf("workers=%d: got %v, want ErrClosed", workers, err)
		}
		if err := p.ForEach(context.Background(), 3, func(ctx context.Context, i int) error { return nil }); !errors.Is(err, ErrClosed) {
			t.Fatalf("workers=%d: ForEach got %v, want ErrClosed", workers, err)
		}
	}
}

func TestSerialForEachRunsInOrder(t *testing.T) {
	p := New(1)
	defer p.Close()
	var order []int
	if err := p.ForEach(context.Background(), 32, func(ctx context.Context, i int) error {
		order = append(order, i) // safe: one worker runs inline
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("serial pool ran index %d at position %d", got, i)
		}
	}
}

func TestSingleTaskBatchOccupiesWorker(t *testing.T) {
	// A ForEach of one task on a multi-worker pool must still go through
	// a worker slot, so concurrent batches respect the pool bound.
	p := New(2)
	defer p.Close()
	var active, peak atomic.Int32
	track := func() {
		a := active.Add(1)
		for {
			cur := peak.Load()
			if a <= cur || peak.CompareAndSwap(cur, a) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		active.Add(-1)
	}
	var wg sync.WaitGroup
	for b := 0; b < 4; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.ForEach(context.Background(), 1, func(ctx context.Context, i int) error {
				track()
				return nil
			})
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 2 {
		t.Fatalf("%d single-task batches ran concurrently on a 2-worker pool", got)
	}
}
