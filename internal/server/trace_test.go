package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"f2/internal/store"
)

// traceJSON mirrors the obs.TraceSnapshot wire shape.
type traceJSON struct {
	ID         string   `json:"id"`
	DurationMs float64  `json:"durationMs"`
	Complete   bool     `json:"complete"`
	Root       spanJSON `json:"root"`
}

type spanJSON struct {
	Name       string         `json:"name"`
	DurationMs float64        `json:"durationMs"`
	Open       bool           `json:"open"`
	Attrs      map[string]any `json:"attrs"`
	Children   []spanJSON     `json:"children"`
}

// spanNames flattens a span tree into name → total duration.
func spanNames(s spanJSON, into map[string]float64) {
	into[s.Name] += s.DurationMs
	for _, c := range s.Children {
		spanNames(c, into)
	}
}

// TestTraceAPIEndToEnd is the acceptance path for the trace layer:
// create + append + flush against a durable server, then read
// /v1/debug/traces and find a span tree that covers the encrypt steps,
// the WAL fsync, and the snapshot rotation, all with real durations.
func TestTraceAPIEndToEnd(t *testing.T) {
	dir := t.TempDir()
	_, ts := newDurableServer(t, dir, 2)

	rows := [][]string{
		{"g1", "id1"}, {"g1", "id2"}, {"g1", "id3"},
		{"g2", "id4"}, {"g2", "id5"},
	}
	id := createDataset(t, ts.URL, []string{"G", "ID"}, rows)
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/rows",
		map[string]any{"rows": [][]string{{"g1", "id6"}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d, body %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/flush?wait=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: status %d, body %s", resp.StatusCode, body)
	}

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/debug/traces", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traces: status %d, body %s", resp.StatusCode, body)
	}
	var listing struct {
		Recent  []traceJSON `json:"recent"`
		Slowest []traceJSON `json:"slowest"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatalf("traces: %v in %s", err, body)
	}
	if len(listing.Recent) < 3 {
		t.Fatalf("want ≥ 3 recent traces (create, append, flush), got %d", len(listing.Recent))
	}

	// Union the span names across all retained traces: the create covers
	// the encrypt steps and the first snapshot, the append covers the WAL
	// path, the flush covers the pipeline again plus snapshot rotation.
	all := map[string]float64{}
	byOp := map[string]traceJSON{}
	for _, tr := range listing.Recent {
		if !tr.Complete {
			t.Errorf("retained trace %s is not complete", tr.ID)
		}
		if tr.ID == "" {
			t.Error("retained trace has empty id")
		}
		spanNames(tr.Root, all)
		byOp[tr.Root.Name] = tr
	}
	for _, stage := range []string{
		"encrypt.step1.mas", "encrypt.step2.group", "encrypt.step3.emit", "encrypt.step4.fp",
		"wal.append", "wal.fsync",
		"snapshot.save", "snapshot.seal", "snapshot.chunks", "snapshot.index",
		"snapshot.gc", "snapshot.compact-wal",
		"job.queue", "job.run", "update.flush",
	} {
		if _, ok := all[stage]; !ok {
			t.Errorf("no retained trace contains span %q; union %v", stage, keys(all))
		}
	}
	var total float64
	for _, d := range all {
		total += d
	}
	if total <= 0 {
		t.Fatalf("span durations sum to %v; want > 0", total)
	}

	// Each retained trace must be fetchable by id, and an evicted or
	// unknown id must 404.
	flushTr, ok := byOp["flush"]
	if !ok {
		t.Fatalf("no trace rooted at op \"flush\"; ops %v", keys2(byOp))
	}
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/debug/traces/"+flushTr.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace by id: status %d, body %s", resp.StatusCode, body)
	}
	var single traceJSON
	if err := json.Unmarshal(body, &single); err != nil {
		t.Fatal(err)
	}
	if single.ID != flushTr.ID || single.Root.Name != "flush" {
		t.Fatalf("trace by id returned %s/%s, want %s/flush", single.ID, single.Root.Name, flushTr.ID)
	}
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/debug/traces/nope", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace id: status %d, want 404", resp.StatusCode)
	}
}

// TestFDsTraceAttributesTANE: GET /fds records TANE as an fd.discover span
// inside job.run, and the span feeds the stage histogram.
func TestFDsTraceAttributesTANE(t *testing.T) {
	_, ts := newTestServer(t, 2)
	id := createDataset(t, ts.URL, []string{"G", "ID"},
		[][]string{{"a", "1"}, {"a", "2"}, {"b", "3"}, {"b", "4"}})
	if resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+id+"/fds", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("fds: status %d, body %s", resp.StatusCode, body)
	}

	_, body := doJSON(t, http.MethodGet, ts.URL+"/v1/debug/traces", nil)
	var listing struct {
		Recent []traceJSON `json:"recent"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatalf("traces: %v in %s", err, body)
	}
	var discover *spanJSON
	for _, tr := range listing.Recent {
		if tr.Root.Name != "discover_fds" {
			continue
		}
		for _, job := range tr.Root.Children {
			for i, c := range job.Children {
				if job.Name == "job.run" && c.Name == "fd.discover" {
					discover = &job.Children[i]
				}
			}
		}
	}
	if discover == nil {
		t.Fatalf("no discover_fds trace with job.run > fd.discover in %s", body)
	}
	for _, attr := range []string{"rows", "attrs", "levels", "products"} {
		if _, ok := discover.Attrs[attr]; !ok {
			t.Errorf("fd.discover lacks attribute %q: %v", attr, discover.Attrs)
		}
	}

	_, body = doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if want := `f2_stage_duration_seconds_count{stage="fd.discover"} 1`; !strings.Contains(string(body), want) {
		t.Errorf("/metrics lacks %q", want)
	}
}

// TestInlineTraceOptIn: mutation responses carry the span tree only when
// the client asked with ?trace=1.
func TestInlineTraceOptIn(t *testing.T) {
	_, ts := newTestServer(t, 2)
	rows := [][]string{{"a", "1"}, {"a", "2"}, {"b", "3"}}

	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets?trace=1", map[string]any{
		"name": "traced", "columns": []string{"G", "ID"}, "rows": rows,
		"alpha": 0.25, "keySeed": "trace-test",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d, body %s", resp.StatusCode, body)
	}
	var traced struct {
		Trace *traceJSON `json:"trace"`
	}
	if err := json.Unmarshal(body, &traced); err != nil {
		t.Fatal(err)
	}
	if traced.Trace == nil {
		t.Fatalf("?trace=1 response has no trace: %s", body)
	}
	if traced.Trace.Root.Name != "create_dataset" || !traced.Trace.Root.Open {
		t.Fatalf("inline trace root = %q open=%v; want create_dataset, still open",
			traced.Trace.Root.Name, traced.Trace.Root.Open)
	}
	names := map[string]float64{}
	spanNames(traced.Trace.Root, names)
	if _, ok := names["encrypt.step1.mas"]; !ok {
		t.Errorf("inline trace missing encrypt spans; got %v", keys(names))
	}

	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets", map[string]any{
		"name": "plain", "columns": []string{"G", "ID"}, "rows": rows,
		"alpha": 0.25, "keySeed": "trace-test-2",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d, body %s", resp.StatusCode, body)
	}
	var untraced map[string]json.RawMessage
	if err := json.Unmarshal(body, &untraced); err != nil {
		t.Fatal(err)
	}
	if _, ok := untraced["trace"]; ok {
		t.Fatalf("response without ?trace=1 carries a trace: %s", body)
	}
}

// TestRequestLogCarriesTraceAndStages: the structured request log line is
// JSON with the trace id and a stages group matching the retained trace.
func TestRequestLogCarriesTraceAndStages(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	srv, err := New(Options{Workers: 2, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	createDataset(t, ts.URL, []string{"G", "ID"},
		[][]string{{"a", "1"}, {"a", "2"}, {"b", "3"}})

	var logged struct {
		Msg     string             `json:"msg"`
		Op      string             `json:"op"`
		Status  int                `json:"status"`
		TraceID string             `json:"traceId"`
		Stages  map[string]float64 `json:"stages"`
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if err := json.Unmarshal([]byte(line), &logged); err != nil {
			t.Fatalf("request log is not JSON: %v in %q", err, line)
		}
		if logged.Msg == "request" && logged.Op == "create_dataset" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no create_dataset request log in %q", buf.String())
	}
	if logged.Status != http.StatusCreated {
		t.Errorf("logged status = %d, want 201", logged.Status)
	}
	if logged.TraceID == "" {
		t.Error("request log has no traceId")
	}
	if len(logged.Stages) == 0 {
		t.Error("request log has no stages group")
	}
	if _, ok := srv.traces.Get(logged.TraceID); !ok {
		t.Errorf("logged traceId %q is not retained in the ring", logged.TraceID)
	}
}

// TestStageHistogramRendered: completed traces feed the
// f2_stage_duration_seconds histograms exposed on /metrics.
func TestStageHistogramRendered(t *testing.T) {
	_, ts := newTestServer(t, 2)
	createDataset(t, ts.URL, []string{"G", "ID"},
		[][]string{{"a", "1"}, {"a", "2"}, {"b", "3"}})

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`f2_stage_duration_seconds_count{stage="encrypt.step1.mas"}`,
		`f2_stage_duration_seconds_sum{stage="encrypt.step2.group"}`,
		`f2_stage_duration_seconds_bucket{stage="encrypt.step4.fp",le="+Inf"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestTraceRingBounded: the server's ring honors the configured recent
// bound — old traces fall out, the debug endpoint never grows unbounded.
func TestTraceRingBounded(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Workers: 1, TraceRecent: 2, TraceSlowest: 1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		st.Close()
	})

	for i := 0; i < 5; i++ {
		resp, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz %d: status %d", i, resp.StatusCode)
		}
	}
	recent := srv.traces.Recent()
	if len(recent) != 2 {
		t.Fatalf("ring retains %d recent traces, want 2", len(recent))
	}
	if len(srv.traces.Slowest()) != 1 {
		t.Fatalf("ring retains %d slowest traces, want 1", len(srv.traces.Slowest()))
	}
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func keys2(m map[string]traceJSON) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
