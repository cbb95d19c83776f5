// Package obs is the pipeline tracing layer: a dependency-free,
// context-propagated span tree giving every request — and every offline
// pipeline run that opts in — per-stage attribution.
//
// A Trace carries a request-scoped ID and an append-only tree of Spans
// (name, start, duration, attributes like rows or bytes fsynced). The
// instrumented code never knows whether a trace is attached:
//
//	ctx, sp := obs.Start(ctx, "encrypt.step2.group")
//	defer sp.End()
//	sp.SetAttr("ecgs", len(ecgs))
//
// When the incoming context carries no trace, Start returns (ctx, nil)
// after a single context lookup and every Span method is a nil-check
// no-op, so library users pay ~nothing for the instrumentation (the
// perf harness gates this at ≤2%, see docs/OBSERVABILITY.md). When a
// trace is attached — f2served attaches one per request — spans nest
// through the context exactly like cancellation does, across goroutines
// included: spans started by pool workers hang off the step span that
// spawned them.
//
// The package deliberately has no exporter, no sampling, and no
// dependencies: traces are plain data. Consumers snapshot them
// (Trace.Snapshot) into JSON-ready trees; internal/server keeps a
// bounded Ring of completed snapshots behind GET /v1/debug/traces.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// ctxKey carries the active *Span (from which the Trace is reachable).
type ctxKey struct{}

// Trace is one request-scoped span tree. All mutation goes through the
// trace mutex, so spans may be started and ended from concurrent
// goroutines (the parallel pipeline sections do).
type Trace struct {
	id    string
	start time.Time

	mu       sync.Mutex
	root     *Span
	finished bool
}

// Span is one timed region of a trace. A nil *Span is the valid,
// cost-free "tracing disabled" value: every method nil-checks.
type Span struct {
	trace    *Trace
	name     string
	start    time.Time
	duration time.Duration
	ended    bool
	attrs    []attr
	children []*Span
}

type attr struct {
	key   string
	value any
}

// NewTrace starts a trace with the given id (empty draws a random one)
// and attaches its root span to the context. The returned context is
// what instrumented code should run under.
func NewTrace(ctx context.Context, id, rootName string) (context.Context, *Trace) {
	if id == "" {
		id = NewTraceID()
	}
	now := time.Now()
	t := &Trace{id: id, start: now}
	t.root = &Span{trace: t, name: rootName, start: now}
	return context.WithValue(ctx, ctxKey{}, t.root), t
}

// NewTraceID draws a random 16-hex-digit trace id.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// A broken entropy source should not take observability down
		// with it; a constant id still yields a usable trace.
		return "trace-entropy-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// FromContext returns the trace attached to ctx, if any.
func FromContext(ctx context.Context) *Trace {
	if sp, ok := ctx.Value(ctxKey{}).(*Span); ok {
		return sp.trace
	}
	return nil
}

// Start opens a child span under the context's active span. When the
// context carries no trace this is the no-op path: one context lookup,
// then (ctx, nil) — the caller's deferred End and SetAttr calls all
// nil-check.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent, ok := ctx.Value(ctxKey{}).(*Span)
	if !ok {
		return ctx, nil
	}
	sp := parent.startChild(name)
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// Record appends an already-measured span of duration d ending now —
// for stages whose start predates the context that can carry them, like
// the time a pooled job spent queued before a worker picked it up.
func Record(ctx context.Context, name string, d time.Duration, kv ...any) {
	parent, ok := ctx.Value(ctxKey{}).(*Span)
	if !ok {
		return
	}
	sp := parent.startChild(name)
	t := sp.trace
	t.mu.Lock()
	sp.start = time.Now().Add(-d)
	sp.duration = d
	sp.ended = true
	for i := 0; i+1 < len(kv); i += 2 {
		if k, ok := kv[i].(string); ok {
			sp.attrs = append(sp.attrs, attr{k, kv[i+1]})
		}
	}
	t.mu.Unlock()
}

func (s *Span) startChild(name string) *Span {
	t := s.trace
	child := &Span{trace: t, name: name, start: time.Now()}
	t.mu.Lock()
	s.children = append(s.children, child)
	t.mu.Unlock()
	return child
}

// End closes the span. Safe on nil and idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.trace
	t.mu.Lock()
	if !s.ended {
		s.duration = time.Since(s.start)
		s.ended = true
	}
	t.mu.Unlock()
}

// SetAttr attaches a key/value attribute to the span. Safe on nil.
// Values should be JSON-encodable scalars (string, int, float64, bool).
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	t := s.trace
	t.mu.Lock()
	s.attrs = append(s.attrs, attr{key, value})
	t.mu.Unlock()
}

// Finish closes the root span and freezes the trace duration. Spans
// still open keep accumulating until their own End; snapshots mark them.
func (t *Trace) Finish() {
	t.mu.Lock()
	if !t.root.ended {
		t.root.duration = time.Since(t.root.start)
		t.root.ended = true
	}
	t.finished = true
	t.mu.Unlock()
}

// SpanSnapshot is the JSON-ready form of one span. Start offsets are
// relative to the trace start so a tree reads as a timeline.
type SpanSnapshot struct {
	Name       string         `json:"name"`
	StartMs    float64        `json:"startMs"`
	DurationMs float64        `json:"durationMs"`
	Open       bool           `json:"open,omitempty"` // still running at snapshot time
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []SpanSnapshot `json:"children,omitempty"`
}

// TraceSnapshot is the JSON-ready form of a whole trace.
type TraceSnapshot struct {
	ID         string       `json:"id"`
	Start      time.Time    `json:"start"`
	DurationMs float64      `json:"durationMs"`
	Complete   bool         `json:"complete"`
	Root       SpanSnapshot `json:"root"`
}

// Snapshot renders the trace as plain data, safe to serialize and to
// retain after the request that produced it is gone. It may be taken
// mid-flight (the ?trace=1 inline view); open spans report their
// elapsed-so-far duration with Open=true.
func (t *Trace) Snapshot() *TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	snap := &TraceSnapshot{
		ID:       t.id,
		Start:    t.start,
		Complete: t.finished,
		Root:     t.snapshotSpan(t.root, now),
	}
	snap.DurationMs = snap.Root.DurationMs
	return snap
}

func (t *Trace) snapshotSpan(s *Span, now time.Time) SpanSnapshot {
	d := s.duration
	if !s.ended {
		d = now.Sub(s.start)
	}
	out := SpanSnapshot{
		Name:       s.name,
		StartMs:    float64(s.start.Sub(t.start).Nanoseconds()) / 1e6,
		DurationMs: float64(d.Nanoseconds()) / 1e6,
		Open:       !s.ended,
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.key] = a.value
		}
	}
	for _, c := range s.children {
		out.Children = append(out.Children, t.snapshotSpan(c, now))
	}
	return out
}

// EachSpan walks every span below the root (the root itself excluded —
// its duration is the request latency, already metered elsewhere) in
// depth-first order, calling fn with the span's name and duration. Open
// spans are skipped: a stage observation must be a completed
// measurement. Used to feed per-stage histograms.
func (s *TraceSnapshot) EachSpan(fn func(name string, d time.Duration)) {
	var walk func(sp *SpanSnapshot)
	walk = func(sp *SpanSnapshot) {
		for i := range sp.Children {
			c := &sp.Children[i]
			if !c.Open {
				fn(c.Name, time.Duration(c.DurationMs*1e6))
			}
			walk(c)
		}
	}
	walk(&s.Root)
}

// StageTotals sums the durations of the root's direct children by name
// — the "top-level stage timings" a request log line carries.
func (s *TraceSnapshot) StageTotals() map[string]time.Duration {
	if len(s.Root.Children) == 0 {
		return nil
	}
	out := make(map[string]time.Duration, len(s.Root.Children))
	for i := range s.Root.Children {
		c := &s.Root.Children[i]
		out[c.Name] += time.Duration(c.DurationMs * 1e6)
	}
	return out
}
