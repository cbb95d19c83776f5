package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// resultDeferred reports whether a dataset is hydrated (its plaintext in
// memory) with its result still deferred (no ciphertext loaded yet).
func resultDeferred(t *testing.T, srv *Server, id string) bool {
	t.Helper()
	ds, ok := srv.reg.Get(id)
	if !ok {
		t.Fatalf("no dataset %s", id)
	}
	ds.Lock()
	defer ds.Unlock()
	return ds.upd != nil && ds.upd.Result().Encrypted == nil
}

// readBodies answers the three ciphertext readers, keyed by route.
func readBodies(t *testing.T, base, id string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, req := range []struct{ method, path string }{
		{http.MethodGet, "/fds"},
		{http.MethodPost, "/decrypt"},
		{http.MethodGet, "/report?seed=11&trials=50"},
	} {
		resp, body := doJSON(t, req.method, base+"/v1/datasets/"+id+req.path, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d, body %s", req.method, req.path, resp.StatusCode, body)
		}
		out[req.path] = string(body)
	}
	return out
}

// fetch is a bodiless request that, unlike doJSON, may run off the test
// goroutine.
func fetch(method, url string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func noopFlushBody(t *testing.T, base, id string) string {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, base+"/v1/datasets/"+id+"/flush?wait=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no-op flush: status %d, body %s", resp.StatusCode, body)
	}
	return string(body)
}

// TestRestartedReadsMatchNeverRestarted: a restarted dataset, before its
// first flush, answers /fds, /decrypt, /report and a no-op flush with
// the very bodies the server that never restarted gave. The no-op flush
// needs no ciphertext, so it leaves the result deferred; the first
// reader loads it.
func TestRestartedReadsMatchNeverRestarted(t *testing.T) {
	dir := t.TempDir()
	_, ts := newDurableServer(t, dir, 2)
	id := createDataset(t, ts.URL, []string{"Zip", "City", "Name"}, [][]string{
		{"07030", "Hoboken", "alice"}, {"07030", "Hoboken", "bob"},
		{"07302", "JerseyCity", "carol"}, {"07310", "JerseyCity", "dave"},
		{"07310", "JerseyCity", "erin"}, {"07302", "JerseyCity", "frank"},
	})
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/rows",
		map[string]any{"rows": [][]string{{"07030", "Hoboken", "gina"}, {"07310", "JerseyCity", "hal"}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d, body %s", resp.StatusCode, body)
	}
	noopFlushBody(t, ts.URL, id) // flushes the batch and persists it
	wantFlush := noopFlushBody(t, ts.URL, id)
	want := readBodies(t, ts.URL, id)

	srv2, ts2 := newDurableServer(t, dir, 2)
	if got := noopFlushBody(t, ts2.URL, id); got != wantFlush {
		t.Fatalf("no-op flush after restart:\n got %s\nwant %s", got, wantFlush)
	}
	if !resultDeferred(t, srv2, id) {
		t.Fatal("a no-op flush loaded the ciphertext")
	}
	got := readBodies(t, ts2.URL, id)
	for path, w := range want {
		if got[path] != w {
			t.Errorf("%s after restart:\n got %s\nwant %s", path, got[path], w)
		}
	}
	if resultDeferred(t, srv2, id) {
		t.Fatal("the readers did not load the result")
	}

	// The load is its own span, inside the first reader's trace only.
	resp, body = doJSON(t, http.MethodGet, ts2.URL+"/v1/debug/traces", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traces: status %d, body %s", resp.StatusCode, body)
	}
	var listing struct {
		Recent []traceJSON `json:"recent"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	var loads []string
	for _, tr := range listing.Recent {
		for _, sp := range findSpans(tr.Root, "snapshot.hydrate_result") {
			loads = append(loads, tr.Root.Name)
			if rows, _ := sp.Attrs["rows"].(float64); rows < 8 {
				t.Errorf("snapshot.hydrate_result rows = %v, want the ≥ 8 encrypted rows", sp.Attrs["rows"])
			}
			if chunks, _ := sp.Attrs["chunks"].(float64); chunks < 2 {
				t.Errorf("snapshot.hydrate_result chunks = %v, want an encrypted and an origins chunk at least", sp.Attrs["chunks"])
			}
		}
	}
	if !reflect.DeepEqual(loads, []string{"discover_fds"}) {
		t.Fatalf("snapshot.hydrate_result spans in traces %v, want one, in the first reader's (discover_fds)", loads)
	}
}

// findSpans returns every span named name in the tree under s.
func findSpans(s spanJSON, name string) []spanJSON {
	var out []spanJSON
	if s.Name == name {
		out = append(out, s)
	}
	for _, c := range s.Children {
		out = append(out, findSpans(c, name)...)
	}
	return out
}

// TestResultLoadRacesBackgroundFlush: readers load a restarted dataset's
// deferred result while a background flush — the forced rebuild — runs
// and commits. Every read sees one consistent state (before or after the
// flush), and the flush's snapshot does not pull chunks from under a
// load. Run under -race in CI.
func TestResultLoadRacesBackgroundFlush(t *testing.T) {
	dir := t.TempDir()
	_, ts := newDurableServer(t, dir, 2)
	rows := [][]string{{"g1", "id1"}, {"g1", "id2"}, {"g1", "id3"}, {"g2", "id4"}, {"g2", "id5"}}
	id := createDataset(t, ts.URL, []string{"G", "ID"}, rows)
	tail := [][]string{{"g2", "id6"}}
	if resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/rows", map[string]any{"rows": tail}); resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d, body %s", resp.StatusCode, body)
	}

	srv2, ts2 := newDurableServer(t, dir, 2)
	release := make(chan struct{})
	srv2.testFlushHook = func() { <-release }
	first := [][]string{{"g1", "id7"}}
	resp, body := doJSON(t, http.MethodPost, ts2.URL+"/v1/datasets/"+id+"/rows", map[string]any{"rows": first})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first append: status %d, body %s", resp.StatusCode, body)
	}
	var appended struct {
		FlushScheduled bool   `json:"flushScheduled"`
		FlushJobID     string `json:"flushJobId"`
	}
	if err := json.Unmarshal(body, &appended); err != nil {
		t.Fatal(err)
	}
	if !appended.FlushScheduled {
		t.Fatalf("the first append did not schedule a flush: %s", body)
	}
	if !resultDeferred(t, srv2, id) {
		t.Fatal("the first append loaded the ciphertext")
	}

	all := append(append(append([][]string{}, rows...), tail...), first...)
	want := map[string]bool{}
	for _, r := range all {
		want[r[1]] = true
	}
	start := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			code, body, err := fetch(http.MethodPost, ts2.URL+"/v1/datasets/"+id+"/decrypt")
			if err != nil || code != http.StatusOK {
				errs <- fmt.Errorf("decrypt: status %d, body %s, err %v", code, body, err)
				return
			}
			var dec struct {
				Rows        [][]string `json:"rows"`
				PendingRows int        `json:"pendingRows"`
			}
			if err := json.Unmarshal(body, &dec); err != nil {
				errs <- err
				return
			}
			// The flush began before any reader: its rows are in its plan,
			// not pending, so a read sees the restored rows or all of them.
			if n := len(dec.Rows); n != len(rows) && n != len(all) {
				errs <- fmt.Errorf("decrypt: %d rows, want %d (before the flush commits) or %d (after)", n, len(rows), len(all))
			}
			for _, r := range dec.Rows {
				if !want[r[1]] {
					errs <- fmt.Errorf("decrypt: unexpected row %v", r)
				}
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			if code, body, err := fetch(http.MethodGet, ts2.URL+"/v1/datasets/"+id+"/fds"); err != nil || code != http.StatusOK {
				errs <- fmt.Errorf("fds: status %d, body %s, err %v", code, body, err)
			}
		}()
	}
	close(release)
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	pollFlushJob(t, ts2.URL, id, appended.FlushJobID)
	columns, decRows, pending := decryptRows(t, ts2.URL, id)
	if pending != 0 || !reflect.DeepEqual(sortedRows(t, columns, decRows), sortedRows(t, []string{"G", "ID"}, all)) {
		t.Fatalf("after the flush: %d rows, %d pending; want the %d acknowledged rows", len(decRows), pending, len(all))
	}
}

// TestCorruptResultChunkFailsReadersOnly: a restarted dataset whose
// encrypted chunk is corrupt fails every ciphertext reader with a 5xx
// that names the chunk and carries no cells, while appends and the
// rebuild flush — which need only the plaintext — still succeed, and
// readers succeed again once that flush replaced the result.
func TestCorruptResultChunkFailsReadersOnly(t *testing.T) {
	dir := t.TempDir()
	_, ts := newDurableServer(t, dir, 2)
	rows := [][]string{{"g1", "id1"}, {"g1", "id2"}, {"g1", "id3"}, {"g2", "id4"}, {"g2", "id5"}}
	id := createDataset(t, ts.URL, []string{"G", "ID"}, rows)

	raw, err := os.ReadFile(filepath.Join(dir, "datasets", id, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var idx struct {
		Encrypted struct {
			Chunks []struct {
				Name string `json:"name"`
			} `json:"chunks"`
		} `json:"encrypted"`
	}
	if err := json.Unmarshal(raw, &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Encrypted.Chunks) == 0 {
		t.Fatal("index names no encrypted chunk")
	}
	chunk := idx.Encrypted.Chunks[0].Name
	path := filepath.Join(dir, "datasets", id, "chunks", chunk)
	frame, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] ^= 0xff
	if err := os.WriteFile(path, frame, 0o600); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newDurableServer(t, dir, 2)
	readers := []struct{ method, path string }{
		{http.MethodPost, "/decrypt"},
		{http.MethodGet, "/fds"},
		{http.MethodGet, "/report"},
	}
	for _, req := range readers {
		resp, body := doJSON(t, req.method, ts2.URL+"/v1/datasets/"+id+req.path, nil)
		if resp.StatusCode < 500 {
			t.Fatalf("%s %s over a corrupt chunk: status %d, body %s", req.method, req.path, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), chunk) {
			t.Errorf("%s %s: error does not name chunk %s: %s", req.method, req.path, chunk, body)
		}
		if strings.Contains(string(body), "id1") || strings.Contains(string(body), `"rows"`) {
			t.Errorf("%s %s: failure served cells: %s", req.method, req.path, body)
		}
	}

	more := [][]string{{"g1", "id6"}, {"g2", "id7"}}
	if resp, body := doJSON(t, http.MethodPost, ts2.URL+"/v1/datasets/"+id+"/rows", map[string]any{"rows": more}); resp.StatusCode != http.StatusOK {
		t.Fatalf("append over a corrupt result: status %d, body %s", resp.StatusCode, body)
	}
	if resp, body := doJSON(t, http.MethodPost, ts2.URL+"/v1/datasets/"+id+"/flush?wait=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("rebuild flush over a corrupt result: status %d, body %s", resp.StatusCode, body)
	}
	all := append(append([][]string{}, rows...), more...)
	columns, decRows, pending := decryptRows(t, ts2.URL, id)
	if pending != 0 || !reflect.DeepEqual(sortedRows(t, columns, decRows), sortedRows(t, []string{"G", "ID"}, all)) {
		t.Fatalf("after the rebuild: %d rows, %d pending; want the %d acknowledged rows", len(decRows), pending, len(all))
	}
	for _, req := range readers[1:] {
		if resp, body := doJSON(t, req.method, ts2.URL+"/v1/datasets/"+id+req.path, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s after the rebuild: status %d, body %s", req.method, req.path, resp.StatusCode, body)
		}
	}
}
