package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"f2/internal/obs"
)

// statusRecorder captures the status code a handler writes — and whether
// any body bytes went out — so the instrumentation middleware can label
// its metrics and knows when a response is already committed.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(p)
}

// Flush forwards to the underlying writer when it supports streaming, so
// wrapping a handler in the middleware never silently strips its flush
// capability. Flushing commits the response exactly like a write does.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		r.wrote = true
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController, which
// discovers optional interfaces (Flusher, Hijacker, deadlines) through
// the Unwrap chain.
//
//lint:ignore f2vet/deadexport called by http.ResponseController through an interface net/http does not export
func (r *statusRecorder) Unwrap() http.ResponseWriter {
	return r.ResponseWriter
}

// instrument wraps a handler with panic recovery, a per-request trace,
// structured request logging, and per-op metrics (count by status class +
// latency histogram under the op label). The trace travels in the request
// context through the job pool into the pipeline; on completion its
// snapshot lands in the trace ring (GET /v1/debug/traces) and every
// completed span feeds the f2_stage_duration_seconds histograms.
func (s *Server) instrument(op string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, tr := obs.NewTrace(r.Context(), "", op)
		r = r.WithContext(ctx)
		// Track the live trace so an incident capture mid-request can
		// include this request's open span tree.
		untrack := s.traces.Track(tr)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				s.logf("panic in %s: %v\n%s", op, p, debug.Stack())
				if !rec.wrote {
					writeError(rec, http.StatusInternalServerError, "internal error")
				}
				// A panic after the response committed can't be
				// reported to the client, but the metric must still
				// count a server failure, not whatever status the
				// truncated response started with.
				rec.status = http.StatusInternalServerError
			}
			d := time.Since(start)
			s.metrics.Observe(op, rec.status, d)
			tr.Finish()
			untrack()
			snap := tr.Snapshot()
			s.traces.Add(snap)
			snap.EachSpan(s.metrics.ObserveStage)
			s.logRequest(r, op, rec.status, d, snap)
			if thr := s.opts.SlowRequestThreshold; thr > 0 && d >= thr {
				s.retainSlowRequest(op, rec.status, d, snap)
			}
		}()
		h(rec, r)
	})
}

// logRequest emits the structured request log line: one record carrying
// the trace id, op, status, total latency, and the top-level stage
// timings as a nested group (so `jq .stages` over the JSON log recovers
// the per-stage breakdown of every request).
func (s *Server) logRequest(r *http.Request, op string, status int, d time.Duration, snap *obs.TraceSnapshot) {
	if s.opts.Logger == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("op", op),
		slog.Int("status", status),
		slog.Float64("durationMs", float64(d.Nanoseconds())/1e6),
		slog.String("traceId", snap.ID),
	}
	if totals := snap.StageTotals(); len(totals) > 0 {
		stages := make([]any, 0, len(totals))
		for name, sd := range totals {
			stages = append(stages, slog.Float64(name, float64(sd.Nanoseconds())/1e6))
		}
		attrs = append(attrs, slog.Group("stages", stages...))
	}
	// Level follows the outcome: 5xx is a server failure worth an alert,
	// 4xx (including 499 client-gone) is the client's doing and only
	// warrants a warning, everything else is routine.
	level := slog.LevelInfo
	switch {
	case status >= 500:
		level = slog.LevelError
	case status >= 400:
		level = slog.LevelWarn
	}
	s.opts.Logger.LogAttrs(r.Context(), level, "request", attrs...)
}

// apiError is the JSON error envelope of every non-2xx response.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON writes v with the given status; encoding failures surface in
// the log, not the (already committed) response.
// jsonBufs recycles encode buffers across responses: writeJSON is on
// every request path, and per-response buffer churn shows up as GC
// assist time under load.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		// Responses are built from marshalable structs; an encode failure
		// is a programming error, surfaced as a 500 with no body rather
		// than a half-written 200.
		jsonBufs.Put(buf)
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	// An explicit Content-Length keeps bodies larger than the server's
	// internal write buffer out of chunked encoding: one framing, fewer
	// syscalls per response.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	jsonBufs.Put(buf)
}

// writeError writes the JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// StatusClientClosedRequest is nginx's non-standard 499 "client closed
// request": the client disconnected before the response was written.
// Reported as a 4xx because the aborted work is the client's doing, not
// a server failure — the distinction keeps ERROR-level logs (and the 5xx
// metrics class) meaning "the server is broken".
const StatusClientClosedRequest = 499

// errStatus maps a pipeline error to a status code in the context of
// request r: a context.Canceled that traces back to the client's own
// disconnect is 499, cancellation from server shutdown is a retryable
// 503, a deadline is 408, a closed pool 503, everything else 500.
func (s *Server) errStatus(r *http.Request, err error) int {
	switch {
	case errors.Is(err, context.Canceled):
		if r != nil && r.Context().Err() != nil {
			return StatusClientClosedRequest
		}
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	case errors.Is(err, ErrPoolClosed):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// httpStatusOf is errStatus without a request: cancellation cannot be
// attributed to a client disconnect, so it stays 408.
func httpStatusOf(err error) int {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	case errors.Is(err, ErrPoolClosed):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}
