package server

import (
	"net/http"

	"f2/internal/obs"
)

// handleTraces serves the live trace API: the last N completed request
// traces (newest first) plus the K slowest seen since boot. Each entry
// is a full span tree — stage timings, emission passes, WAL fsyncs —
// rendered as JSON.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"recent":  s.traces.Recent(),
		"slowest": s.traces.Slowest(),
	})
}

// handleTraceByID serves one retained trace by id. A trace that has been
// evicted from both retention sets is a 404, not an error — the ring is
// bounded by design.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.traces.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no retained trace %q", id)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// inlineTrace attaches the request's in-flight span tree to a mutation
// response when the client opted in with ?trace=1. The trace has not
// finished at serialization time (the response itself is part of it), so
// the snapshot marks the still-open request span with "open": true.
func inlineTrace(r *http.Request, resp map[string]any) {
	if snap := traceSnapshot(r); snap != nil {
		resp["trace"] = snap
	}
}

// traceSnapshot returns the request's trace when ?trace=1 asked for it,
// for handlers with typed response structs (the hot paths avoid
// map[string]any: reflection-based map encoding shows up in profiles).
func traceSnapshot(r *http.Request) *obs.TraceSnapshot {
	if r.URL.Query().Get("trace") != "1" {
		return nil
	}
	if tr := obs.FromContext(r.Context()); tr != nil {
		return tr.Snapshot()
	}
	return nil
}
