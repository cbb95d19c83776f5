package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopChargesStalls stalls the whole server for 200 ms once and
// checks that every request due during the stall carries the wait in its
// latency — none is silently sent late and timed from its send — and
// that the generator reports how late it ran.
func TestOpenLoopChargesStalls(t *testing.T) {
	const stall = 200 * time.Millisecond
	var (
		mu         sync.Mutex // every request takes it, so the stall blocks them all
		served     int
		stallStart time.Time
		stallEnd   time.Time
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		served++
		if served == 40 {
			stallStart = time.Now()
			time.Sleep(stall)
			stallEnd = time.Now()
		}
		mu.Unlock()
	}))
	defer srv.Close()
	c := newClient(srv.URL, 2, nil)
	defer c.hc.CloseIdleConnections()

	start := time.Now().Add(10 * time.Millisecond)
	timings := openLoop{rate: 200, workers: 2}.run(context.Background(), start, start.Add(time.Second), func(int) error {
		_, err := c.call(context.Background(), "", "GET", "/", nil)
		return err
	})
	if len(timings) != 200 {
		t.Fatalf("%d operations ran, want 200", len(timings))
	}
	mu.Lock()
	begin, end := stallStart, stallEnd
	mu.Unlock()
	if end.IsZero() {
		t.Fatal("the server never stalled")
	}
	var ps pass
	during := 0
	for i, tm := range timings {
		if tm.err != nil {
			t.Fatalf("op %d: %v", i, tm.err)
		}
		ps.late.add(ms(tm.lateness()))
		if tm.due.After(begin) && tm.due.Before(end) {
			during++
			if wait := end.Sub(tm.due); tm.latency() < wait {
				t.Errorf("op %d was due %v before the stall ended but reports %v", i, wait, tm.latency())
			}
		}
	}
	if during < 30 {
		t.Errorf("only %d operations were due during the stall, want ~40", during)
	}
	late := layerValue(t, "loadgen.late_p99_ms", &layerInput{tr: newTracer(), ps: &ps})
	if late < ms(stall)/2 {
		t.Errorf("loadgen.late_p99_ms = %.1f, want the stall to show (≥ %.0f)", late, ms(stall)/2)
	}
}

// layerValue evaluates one per-layer metric by name.
func layerValue(t *testing.T, name string, in *layerInput) float64 {
	t.Helper()
	for _, l := range layerMetrics {
		if l.name == name {
			return l.value(in)
		}
	}
	t.Fatalf("no per-layer metric %q", name)
	return 0
}
