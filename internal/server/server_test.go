package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"f2/internal/core"
	"f2/internal/relation"
	"f2/internal/workload"
)

func newTestServer(t *testing.T, workers int) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Options{Workers: workers, AttackTrials: 200, VerifyProbes: 50})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var reader *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reader = bytes.NewReader(data)
	} else {
		reader = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func createDataset(t *testing.T, base string, columns []string, rows [][]string) string {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, base+"/v1/datasets", map[string]any{
		"name":    "test",
		"columns": columns,
		"rows":    rows,
		"alpha":   0.25,
		"keySeed": "server-test-key",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d, body %s", resp.StatusCode, body)
	}
	var created struct {
		Dataset Summary `json:"dataset"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.Dataset.ID == "" {
		t.Fatalf("create: no id in %s", body)
	}
	return created.Dataset.ID
}

// pollFlushJob polls GET /v1/datasets/{id}/flush/{jobID} until the job
// finishes, returning its flush mode and the post-flush summary. Fails
// the test if the job reports failure or never completes.
func pollFlushJob(t *testing.T, base, id, jobID string) (string, Summary) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body := doJSON(t, http.MethodGet, base+"/v1/datasets/"+id+"/flush/"+jobID, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("flush job poll: status %d, body %s", resp.StatusCode, body)
		}
		var job struct {
			Status    string  `json:"status"`
			Error     string  `json:"error"`
			FlushMode string  `json:"flushMode"`
			Dataset   Summary `json:"dataset"`
		}
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		switch job.Status {
		case "done":
			return job.FlushMode, job.Dataset
		case "failed":
			t.Fatalf("flush job %s failed: %s", jobID, job.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("flush job %s still running after 30s", jobID)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func decryptRows(t *testing.T, base, id string) ([]string, [][]string, int) {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, base+"/v1/datasets/"+id+"/decrypt", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decrypt: status %d, body %s", resp.StatusCode, body)
	}
	var dec struct {
		Columns     []string   `json:"columns"`
		Rows        [][]string `json:"rows"`
		PendingRows int        `json:"pendingRows"`
	}
	if err := json.Unmarshal(body, &dec); err != nil {
		t.Fatal(err)
	}
	return dec.Columns, dec.Rows, dec.PendingRows
}

func sortedRows(t *testing.T, columns []string, rows [][]string) [][]string {
	t.Helper()
	tbl, err := (&relation.JSONTable{Columns: columns, Rows: rows}).Table()
	if err != nil {
		t.Fatal(err)
	}
	return tbl.SortedRows()
}

// TestRoundTripOverHTTP drives the full lifecycle: upload → encrypt →
// append → flush → decrypt, and checks the recovered plaintext equals
// everything uploaded.
func TestRoundTripOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, 2)
	tbl, err := workload.Generate(workload.NameOrders, 300, 11)
	if err != nil {
		t.Fatal(err)
	}
	all := tbl.JSON()
	upload, tail := all.Rows[:250], all.Rows[250:]
	id := createDataset(t, ts.URL, all.Columns, upload)

	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/rows",
		map[string]any{"rows": tail})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d, body %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/flush?wait=1", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: status %d, body %s", resp.StatusCode, body)
	}

	columns, rows, pending := decryptRows(t, ts.URL, id)
	if pending != 0 {
		t.Fatalf("pending = %d after explicit flush", pending)
	}
	if !reflect.DeepEqual(sortedRows(t, columns, rows), tbl.SortedRows()) {
		t.Fatal("decrypted rows differ from uploaded rows")
	}

	// The FD and report endpoints answer on the same session.
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+id+"/fds", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fds: status %d, body %s", resp.StatusCode, body)
	}
	var fds struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(body, &fds); err != nil {
		t.Fatal(err)
	}
	if fds.Count == 0 {
		t.Error("no witnessed FDs discovered on the encrypted view")
	}

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+id+"/report?trials=200", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d, body %s", resp.StatusCode, body)
	}
	var report struct {
		Attack struct {
			OK bool `json:"ok"`
		} `json:"attack"`
		Verify struct {
			OK bool `json:"ok"`
		} `json:"verify"`
	}
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatal(err)
	}
	if !report.Attack.OK {
		t.Errorf("attack report not ok: %s", body)
	}
	if !report.Verify.OK {
		t.Errorf("verify report not ok: %s", body)
	}
}

// TestBadRequests covers the 4xx surface.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, 1)
	id := createDataset(t, ts.URL, []string{"A", "B"}, [][]string{
		{"a1", "b1"}, {"a1", "b1"}, {"a2", "b2"}, {"a3", "b3"},
	})

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		raw    string
		want   int
	}{
		{"unknown dataset", http.MethodGet, "/v1/datasets/ds_nope", nil, "", http.StatusNotFound},
		{"append to unknown dataset", http.MethodPost, "/v1/datasets/ds_nope/rows",
			map[string]any{"rows": [][]string{{"x", "y"}}}, "", http.StatusNotFound},
		{"malformed JSON", http.MethodPost, "/v1/datasets", nil, "{not json", http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/datasets", nil,
			`{"name":"x","columns":["A"],"rows":[["1"]],"bogus":true}`, http.StatusBadRequest},
		{"no rows", http.MethodPost, "/v1/datasets",
			map[string]any{"name": "x", "columns": []string{"A"}, "rows": [][]string{}}, "", http.StatusBadRequest},
		{"ragged rows", http.MethodPost, "/v1/datasets",
			map[string]any{"name": "x", "columns": []string{"A", "B"},
				"rows": [][]string{{"a", "b"}, {"only"}}}, "", http.StatusBadRequest},
		{"duplicate columns", http.MethodPost, "/v1/datasets",
			map[string]any{"name": "x", "columns": []string{"A", "A"},
				"rows": [][]string{{"a", "b"}}}, "", http.StatusBadRequest},
		{"bad alpha", http.MethodPost, "/v1/datasets",
			map[string]any{"name": "x", "columns": []string{"A"},
				"rows": [][]string{{"a"}}, "alpha": 1.5}, "", http.StatusBadRequest},
		{"append no rows", http.MethodPost, "/v1/datasets/" + id + "/rows",
			map[string]any{"rows": [][]string{}}, "", http.StatusBadRequest},
		{"append ragged row", http.MethodPost, "/v1/datasets/" + id + "/rows",
			map[string]any{"rows": [][]string{{"a", "b"}, {"wrong", "cell", "count"}}}, "", http.StatusBadRequest},
		{"bad trials", http.MethodGet, "/v1/datasets/" + id + "/report?trials=zillion", nil, "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var body []byte
			if tc.raw != "" {
				r, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.raw))
				if err != nil {
					t.Fatal(err)
				}
				defer r.Body.Close()
				resp = r
			} else {
				resp, body = doJSON(t, tc.method, ts.URL+tc.path, tc.body)
			}
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.want, body)
			}
		})
	}

	// A failed ragged append must not corrupt the buffer: the dataset
	// still round-trips to exactly the original rows.
	columns, rows, _ := decryptRows(t, ts.URL, id)
	got := sortedRows(t, columns, rows)
	want := sortedRows(t, []string{"A", "B"}, [][]string{
		{"a1", "b1"}, {"a1", "b1"}, {"a2", "b2"}, {"a3", "b3"},
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows after rejected append: %v, want %v", got, want)
	}
}

// postRaw POSTs body verbatim, so tests can send bytes json.Marshal
// would never produce.
func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// bufferedRows returns the rows the dataset's updater holds pending.
func bufferedRows(t *testing.T, srv *Server, id string) [][]string {
	t.Helper()
	ds, ok := srv.reg.Get(id)
	if !ok {
		t.Fatalf("no dataset %s", id)
	}
	ds.Lock()
	defer ds.Unlock()
	return ds.upd.State().Buffer.JSON().Rows
}

// createBuffering creates a two-column dataset whose appends stay
// pending: its flush threshold is far above what a test appends.
func createBuffering(t *testing.T, base string, rows [][]string) string {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, base+"/v1/datasets", map[string]any{
		"name":          "buffering",
		"columns":       []string{"A", "B"},
		"rows":          rows,
		"keySeed":       "server-test-key",
		"flushFraction": 100,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d, body %s", resp.StatusCode, body)
	}
	var created struct {
		Dataset Summary `json:"dataset"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	return created.Dataset.ID
}

// TestAppendRowsBodies pins how POST /v1/datasets/{id}/rows decodes its
// body: every body encoding/json accepts under decodeBody's rules buffers
// exactly the rows json.Unmarshal yields, and malformed, unknown-field,
// trailing-data and wrongly shaped bodies are 400s that buffer nothing.
func TestAppendRowsBodies(t *testing.T) {
	srv, ts := newTestServer(t, 1)
	id := createBuffering(t, ts.URL, [][]string{{"a1", "b1"}, {"a1", "b1"}, {"a2", "b2"}, {"a3", "b3"}})
	url := ts.URL + "/v1/datasets/" + id + "/rows"

	accept := []string{
		`{"rows":[["a","b"],["c","d"]]}`,
		` { "rows" : [ [ "x" , "y" ] ] } `,
		"{\n\t\"rows\": [[\"a\",\"b\"],\n [\"c\",\"d\"]]\r\n}",
		`{"rows":[["üñïçödé","line"]]}`,
		`{"rows":[["", ""]]}`,
		`{"rows":[["a\"b","c\\d"]]}`,
		`{"rows":[["a\u0041","\/"]]}`,
		`{"Rows":[["a","b"]]}`, // encoding/json matches keys case-insensitively
		// Invalid UTF-8 becomes U+FFFD, whether or not another cell of the
		// body carries an escape.
		"{\"rows\":[[\"a\xffb\",\"c\"]]}",
		"{\"rows\":[[\"a\xffb\",\"\\u0063\"]]}",
	}
	for _, body := range accept {
		var want appendRowsRequest
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatalf("json.Unmarshal(%q): %v", body, err)
		}
		before := len(bufferedRows(t, srv, id))
		if resp, out := postRaw(t, url, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("append %q: status %d, body %s", body, resp.StatusCode, out)
		}
		if got := bufferedRows(t, srv, id)[before:]; !reflect.DeepEqual(got, want.Rows) {
			t.Errorf("append %q buffered %q, json.Unmarshal gives %q", body, got, want.Rows)
		}
	}

	reject := []string{
		``,
		`{}`,
		`{"rows":[]}`,
		`{"rows":[[]]}`,                   // a row of no cells
		`{"rows":[["a"],["b","c","d"]]}`,  // ragged
		`{"rows":[["a","b"]],"extra":1}`,  // unknown field
		`{"rows":[["a","b"]]} trailing`,   // trailing data
		`{"rows":[["a","b"],null]}`,       // null row
		`{"rows":[[1,"b"]]}`,              // non-string cell
		`{"rows":[["a","b"]]`,             // truncated
		`{"rows":[["a","b",]]}`,           // trailing comma
		"{\"rows\":[[\"a\x01b\",\"c\"]]}", // raw control byte
		`[{"rows":[]}]`,                   // wrong top level
	}
	before := bufferedRows(t, srv, id)
	for _, body := range reject {
		if resp, out := postRaw(t, url, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("append %q: status %d, want 400 (body %s)", body, resp.StatusCode, out)
		}
	}
	if got := bufferedRows(t, srv, id); !reflect.DeepEqual(got, before) {
		t.Fatalf("rejected appends changed the buffer: %q, want %q", got, before)
	}
}

// TestConcurrentAppendsOneDataset races many append batches (some
// triggering buffered rebuilds) against one dataset; afterwards every row
// must be present exactly once. Run with -race.
func TestConcurrentAppendsOneDataset(t *testing.T) {
	_, ts := newTestServer(t, 4)
	id := createDataset(t, ts.URL, []string{"A", "B", "C"}, [][]string{
		{"a1", "b1", "c1"}, {"a1", "b1", "c2"}, {"a2", "b2", "c3"}, {"a2", "b2", "c4"},
	})

	const goroutines = 8
	const perG = 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				row := []string{
					fmt.Sprintf("a-%d-%d", g, i),
					fmt.Sprintf("b-%d-%d", g, i),
					fmt.Sprintf("c-%d-%d", g, i),
				}
				resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/rows",
					map[string]any{"rows": [][]string{row}})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("append %d/%d: status %d, body %s", g, i, resp.StatusCode, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/flush?wait=1", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: status %d, body %s", resp.StatusCode, body)
	}
	columns, rows, pending := decryptRows(t, ts.URL, id)
	if pending != 0 {
		t.Fatalf("pending = %d after flush", pending)
	}
	if len(rows) != 4+goroutines*perG {
		t.Fatalf("decrypted %d rows, want %d", len(rows), 4+goroutines*perG)
	}
	seen := make(map[string]int)
	for _, r := range rows {
		seen[strings.Join(r, "\x1f")]++
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			key := strings.Join([]string{
				fmt.Sprintf("a-%d-%d", g, i),
				fmt.Sprintf("b-%d-%d", g, i),
				fmt.Sprintf("c-%d-%d", g, i),
			}, "\x1f")
			if seen[key] != 1 {
				t.Fatalf("appended row %d/%d appears %d times", g, i, seen[key])
			}
		}
	}
	_ = columns
}

// TestPoolRunsJobsInParallel proves the worker pool genuinely overlaps
// jobs: two jobs rendezvous with each other, which can only succeed if
// both execute at the same time.
func TestPoolRunsJobsInParallel(t *testing.T) {
	pool := NewPool(2, nil)
	defer pool.Close()
	barrier := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = pool.Run(t.Context(), func(ctx context.Context) error {
				select {
				case barrier <- struct{}{}: // partner arrived second
				case <-barrier: // partner arrived first
				case <-time.After(10 * time.Second):
					return fmt.Errorf("job %d: partner never arrived — jobs serialized", i)
				}
				return nil
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
}

// TestConcurrentEncryptsRunInParallel starts two encrypt requests for
// different datasets and watches the pool gauge reach two simultaneously
// active jobs: the requests genuinely overlap on the worker pool.
func TestConcurrentEncryptsRunInParallel(t *testing.T) {
	srv, ts := newTestServer(t, 2)
	tbl, err := workload.Generate(workload.NameSynthetic, 6000, 5)
	if err != nil {
		t.Fatal(err)
	}
	all := tbl.JSON()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets", map[string]any{
				"name":    fmt.Sprintf("parallel-%d", i),
				"columns": all.Columns,
				"rows":    all.Rows,
				"keySeed": fmt.Sprintf("parallel-key-%d", i),
			})
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("create %d: status %d, body %s", i, resp.StatusCode, body)
			}
		}(i)
	}

	sawBoth := make(chan bool, 1)
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if _, active, _ := srv.pool.Stats(); active >= 2 {
				sawBoth <- true
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		sawBoth <- false
	}()
	wg.Wait()
	if !<-sawBoth {
		t.Fatal("never observed two simultaneously active pool jobs")
	}
}

// TestHealthzAndMetrics checks the observability endpoints.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, 1)
	createDataset(t, ts.URL, []string{"A", "B"}, [][]string{
		{"a1", "b1"}, {"a1", "b1"}, {"a2", "b2"},
	})

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	var health struct {
		Status   string `json:"status"`
		Datasets int    `json:"datasets"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Datasets != 1 {
		t.Fatalf("healthz = %s", body)
	}

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`f2_http_requests_total{op="create_dataset",class="2xx"} 1`,
		`f2_http_request_duration_seconds_bucket{op="create_dataset",le="+Inf"} 1`,
		"f2_datasets 1",
		"f2_pool_workers 1",
		"f2_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestFlushModeReporting drives the incremental-update wiring end to end:
// a border-stable append flushes through the incremental engine, a
// border-moving one falls back to a rebuild, and both paths surface in
// the response, the summary, and the f2_flushes_total metric.
func TestFlushModeReporting(t *testing.T) {
	_, ts := newTestServer(t, 1)
	// G repeats (MAS {G}); ID is unique, so appends that reuse an existing
	// G value with a fresh ID provably keep the border.
	id := createDataset(t, ts.URL, []string{"G", "ID"}, [][]string{
		{"g1", "id1"}, {"g1", "id2"}, {"g1", "id3"},
		{"g2", "id4"}, {"g2", "id5"},
	})

	appendAndFlush := func(rows [][]string) (string, Summary) {
		t.Helper()
		resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/rows",
			map[string]any{"rows": rows})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append: status %d, body %s", resp.StatusCode, body)
		}
		var appended struct {
			FlushScheduled bool   `json:"flushScheduled"`
			FlushJobID     string `json:"flushJobId"`
		}
		if err := json.Unmarshal(body, &appended); err != nil {
			t.Fatal(err)
		}
		if appended.FlushScheduled {
			// The append crossed the threshold and kicked off a background
			// flush; the job carries its mode. The explicit flush afterwards
			// is a no-op and must not echo that mode.
			mode, sum := pollFlushJob(t, ts.URL, id, appended.FlushJobID)
			resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/flush?wait=1", map[string]any{})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("flush: status %d, body %s", resp.StatusCode, body)
			}
			var out struct {
				FlushMode string `json:"flushMode"`
			}
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if out.FlushMode != "" {
				t.Fatalf("no-op flush reported mode %q", out.FlushMode)
			}
			return mode, sum
		}
		resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/flush?wait=1", map[string]any{})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("flush: status %d, body %s", resp.StatusCode, body)
		}
		var out struct {
			FlushMode string  `json:"flushMode"`
			Dataset   Summary `json:"dataset"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out.FlushMode, out.Dataset
	}

	mode, sum := appendAndFlush([][]string{{"g1", "id-new-1"}, {"g2", "id-new-2"}})
	if mode != "incremental" {
		t.Fatalf("border-stable append flushed via %q", mode)
	}
	if sum.IncrementalFlushes != 1 || sum.LastFlushMode != "incremental" || sum.Rebuilds != 1 {
		t.Fatalf("summary after incremental flush: %+v", sum)
	}
	if sum.Rows != 7 || sum.PendingRows != 0 {
		t.Fatalf("rows=%d pending=%d", sum.Rows, sum.PendingRows)
	}

	// A full-row duplicate merges the border and must fall back.
	mode, sum = appendAndFlush([][]string{{"g1", "id1"}})
	if mode != "rebuild" {
		t.Fatalf("border-moving append flushed via %q", mode)
	}
	if sum.Rebuilds != 2 || sum.LastFlushMode != "rebuild" {
		t.Fatalf("summary after fallback flush: %+v", sum)
	}

	// Decryption still recovers everything shipped through both paths.
	_, rows, pending := decryptRows(t, ts.URL, id)
	if pending != 0 || len(rows) != 8 {
		t.Fatalf("decrypt: %d rows, %d pending", len(rows), pending)
	}

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	for _, want := range []string{
		`f2_flushes_total{mode="incremental"} 1`,
		`f2_flushes_total{mode="rebuild"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// TestUpdateModeValidation: "rebuild" pins every flush to the full
// pipeline; unknown modes are a 400.
func TestUpdateModeValidation(t *testing.T) {
	_, ts := newTestServer(t, 1)
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets", map[string]any{
		"name": "r", "columns": []string{"G", "ID"},
		"rows":       [][]string{{"g1", "i1"}, {"g1", "i2"}, {"g2", "i3"}},
		"keySeed":    "mode-test",
		"updateMode": "rebuild",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d, body %s", resp.StatusCode, body)
	}
	var created struct {
		Dataset Summary `json:"dataset"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	id := created.Dataset.ID

	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/rows",
		map[string]any{"rows": [][]string{{"g1", "i-new"}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d, body %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/flush?wait=1", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: status %d, body %s", resp.StatusCode, body)
	}
	var out struct {
		FlushMode string  `json:"flushMode"`
		Dataset   Summary `json:"dataset"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.FlushMode != "rebuild" || out.Dataset.IncrementalFlushes != 0 {
		t.Fatalf("updateMode=rebuild flushed via %q (incr=%d)", out.FlushMode, out.Dataset.IncrementalFlushes)
	}

	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets", map[string]any{
		"name": "bad", "columns": []string{"A"}, "rows": [][]string{{"x"}},
		"updateMode": "turbo",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown updateMode: status %d, want 400", resp.StatusCode)
	}
}

// TestPoolRunAfterClose checks Run degrades to ErrPoolClosed instead of
// panicking once the pool is gone.
func TestPoolRunAfterClose(t *testing.T) {
	pool := NewPool(1, nil)
	pool.Close()
	err := pool.Run(context.Background(), func(ctx context.Context) error { return nil })
	if !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Run after Close = %v, want ErrPoolClosed", err)
	}
}

// TestCloseCancelsInFlightJobs checks that Server.Close aborts a running
// pipeline job via the lifecycle context instead of waiting it out.
func TestCloseCancelsInFlightJobs(t *testing.T) {
	srv, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	jobErr := make(chan error, 1)
	go func() {
		ctx, cancel := srv.jobContext(context.Background())
		defer cancel()
		jobErr <- srv.pool.Run(ctx, func(ctx context.Context) error {
			close(started)
			<-ctx.Done() // a well-behaved pipeline job notices cancellation
			return ctx.Err()
		})
	}()
	<-started
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case err := <-jobErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("in-flight job returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight job not cancelled by Close")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after job cancellation")
	}
}

// TestPoolRecoversJobPanic checks a panicking job surfaces as an error
// and leaves the worker alive for the next job.
func TestPoolRecoversJobPanic(t *testing.T) {
	pool := NewPool(1, nil)
	defer pool.Close()
	err := pool.Run(context.Background(), func(ctx context.Context) error { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking job returned %v, want wrapped panic", err)
	}
	if err := pool.Run(context.Background(), func(ctx context.Context) error { return nil }); err != nil {
		t.Fatalf("pool dead after panic: %v", err)
	}
}

// TestParallelismWiring covers the -parallelism plumbing: the server
// default reaches new datasets, the per-request field overrides it, the
// effective width lands in summaries, and a negative or oversized value
// is a 400 that registers nothing.
func TestParallelismWiring(t *testing.T) {
	srv, err := New(Options{Workers: 2, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	rows := [][]string{{"a", "x"}, {"a", "x"}, {"b", "y"}, {"c", "y"}, {"d", "z"}}
	create := func(body map[string]any) (*http.Response, []byte) {
		base := map[string]any{"name": "p", "columns": []string{"A", "B"}, "rows": rows, "keySeed": "par-test"}
		for k, v := range body {
			base[k] = v
		}
		return doJSON(t, http.MethodPost, ts.URL+"/v1/datasets", base)
	}

	var created struct {
		Dataset Summary `json:"dataset"`
	}
	resp, data := create(nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &created); err != nil {
		t.Fatal(err)
	}
	if created.Dataset.Parallelism != 3 {
		t.Fatalf("server default parallelism: summary says %d, want 3", created.Dataset.Parallelism)
	}

	resp, data = create(map[string]any{"parallelism": 1})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create with override: %d %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &created); err != nil {
		t.Fatal(err)
	}
	if created.Dataset.Parallelism != 1 {
		t.Fatalf("request override: summary says %d, want 1", created.Dataset.Parallelism)
	}

	for _, p := range []int{-2, 1 << 30} {
		resp, data = create(map[string]any{"parallelism": p})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("parallelism %d: %d %s, want 400", p, resp.StatusCode, data)
		}
	}
	if n := len(srv.reg.List()); n != 2 {
		t.Fatalf("%d datasets registered, want the 2 valid creates", n)
	}
}

func TestNegativeParallelismOptionFailsBoot(t *testing.T) {
	for _, p := range []int{-1, core.MaxParallelism + 1} {
		if _, err := New(Options{Parallelism: p}); err == nil {
			t.Fatalf("New accepted a Parallelism default of %d", p)
		}
	}
}
