package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"f2/internal/core"
	"f2/internal/crypt"
	"f2/internal/relation"
	"f2/internal/store"
)

// newDurableServer starts a server backed by a store at dir.
func newDurableServer(t *testing.T, dir string, workers int) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Workers: workers, AttackTrials: 200, VerifyProbes: 50, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		st.Close()
	})
	return srv, ts
}

// TestPersistenceAcrossRestart is the acceptance path: create, append
// (one auto-flushed batch, one left pending), stop the server, start a
// fresh one over the same data dir, and use the dataset as if nothing
// happened — summary, decrypt, append, flush, FD discovery all work and
// the plaintext round-trips exactly.
func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts := newDurableServer(t, dir, 2)

	rows := [][]string{
		{"g1", "id1"}, {"g1", "id2"}, {"g1", "id3"},
		{"g2", "id4"}, {"g2", "id5"},
	}
	id := createDataset(t, ts.URL, []string{"G", "ID"}, rows)

	// Big enough to trigger the auto-flush (flush fraction 0.1 of 5 rows,
	// floored at 2).
	flushedBatch := [][]string{{"g1", "id6"}, {"g2", "id7"}}
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/rows",
		map[string]any{"rows": flushedBatch})
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
	if !appended.FlushScheduled {
		t.Fatalf("batch of 2 did not schedule an auto-flush: %s", body)
	}
	// The background job closes only after its snapshot persisted, so the
	// flushed batch is durable before the "restart" below.
	pollFlushJob(t, ts.URL, id, appended.FlushJobID)
	// One more row, left pending across the restart.
	pendingRow := [][]string{{"g1", "id8"}}
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/rows",
		map[string]any{"rows": pendingRow})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d, body %s", resp.StatusCode, body)
	}

	// "Restart": a brand-new server over the same directory.
	_, ts2 := newDurableServer(t, dir, 2)

	resp, body = doJSON(t, http.MethodGet, ts2.URL+"/v1/datasets/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get after restart: status %d, body %s", resp.StatusCode, body)
	}
	var got struct {
		Dataset Summary `json:"dataset"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Dataset.Rows != 7 || got.Dataset.PendingRows != 1 {
		t.Fatalf("recovered summary: rows=%d pending=%d, want 7/1", got.Dataset.Rows, got.Dataset.PendingRows)
	}

	// The dataset is fully usable: flush the pending row, decrypt, and
	// compare against everything ever uploaded.
	resp, body = doJSON(t, http.MethodPost, ts2.URL+"/v1/datasets/"+id+"/flush?wait=1", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush after restart: status %d, body %s", resp.StatusCode, body)
	}
	all := append(append(append([][]string{}, rows...), flushedBatch...), pendingRow...)
	columns, decRows, pending := decryptRows(t, ts2.URL, id)
	if pending != 0 {
		t.Fatalf("pending = %d after flush", pending)
	}
	if !reflect.DeepEqual(sortedRows(t, columns, decRows), sortedRows(t, []string{"G", "ID"}, all)) {
		t.Fatal("recovered dataset decrypts to different rows")
	}

	// Appends keep working, and keep being journaled, on the recovered
	// dataset.
	resp, body = doJSON(t, http.MethodPost, ts2.URL+"/v1/datasets/"+id+"/rows",
		map[string]any{"rows": [][]string{{"g2", "id9"}, {"g1", "id10"}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append after restart: status %d, body %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, http.MethodGet, ts2.URL+"/v1/datasets/"+id+"/fds", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fds after restart: status %d, body %s", resp.StatusCode, body)
	}
}

// TestDeleteDataset: the new DELETE endpoint removes the dataset from
// the registry, the metrics gauge, and the store directory; a second
// delete and every later access 404.
func TestDeleteDataset(t *testing.T) {
	dir := t.TempDir()
	_, ts := newDurableServer(t, dir, 1)
	id := createDataset(t, ts.URL, []string{"A", "B"}, [][]string{
		{"a1", "b1"}, {"a1", "b1"}, {"a2", "b2"}, {"a3", "b3"},
	})

	dsDir := filepath.Join(dir, "datasets", id)
	if _, err := os.Stat(dsDir); err != nil {
		t.Fatalf("dataset directory missing before delete: %v", err)
	}

	resp, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d, body %s", resp.StatusCode, body)
	}
	var deleted struct {
		Deleted string `json:"deleted"`
	}
	if err := json.Unmarshal(body, &deleted); err != nil {
		t.Fatal(err)
	}
	if deleted.Deleted != id {
		t.Fatalf("delete response: %s", body)
	}

	if _, err := os.Stat(dsDir); !os.IsNotExist(err) {
		t.Fatalf("dataset directory survives delete: %v", err)
	}
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/datasets/" + id},
		{http.MethodDelete, "/v1/datasets/" + id},
		{http.MethodPost, "/v1/datasets/" + id + "/flush"},
	} {
		resp, _ := doJSON(t, probe.method, ts.URL+probe.path, map[string]any{})
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s after delete: status %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "f2_datasets 0") {
		t.Errorf("metrics still count the deleted dataset:\n%s", body)
	}

	// And it stays gone across a restart.
	_, ts2 := newDurableServer(t, dir, 1)
	resp, _ = doJSON(t, http.MethodGet, ts2.URL+"/v1/datasets/"+id, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted dataset resurrected after restart: status %d", resp.StatusCode)
	}
}

// TestDeleteWorksWithoutStore: the lifecycle fix is independent of
// persistence.
func TestDeleteWorksWithoutStore(t *testing.T) {
	srv, ts := newTestServer(t, 1)
	id := createDataset(t, ts.URL, []string{"A", "B"}, [][]string{
		{"a1", "b1"}, {"a1", "b1"}, {"a2", "b2"},
	})
	if srv.reg.Len() != 1 {
		t.Fatalf("registry size %d before delete", srv.reg.Len())
	}
	resp, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d, body %s", resp.StatusCode, body)
	}
	if srv.reg.Len() != 0 {
		t.Fatalf("registry size %d after delete", srv.reg.Len())
	}
}

// TestRegistryAddRetriesOnCollision forces the id generator to repeat
// itself: Add must retry to a fresh id instead of overwriting the
// registered dataset, and must fail cleanly when the generator never
// yields a fresh one.
func TestRegistryAddRetriesOnCollision(t *testing.T) {
	upd := func() *core.Updater {
		tbl := relation.MustFromRows(relation.MustSchema("A"), [][]string{{"x"}, {"x"}})
		u, _, err := core.NewUpdater(context.Background(), core.DefaultConfig(crypt.KeyFromSeed("reg")), tbl)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}

	reg := NewRegistry()
	ids := []string{"ds_fixed", "ds_fixed", "ds_other"}
	reg.idGen = func() (string, error) {
		id := ids[0]
		if len(ids) > 1 {
			ids = ids[1:]
		}
		return id, nil
	}
	// add is Reserve + Publish with nothing in between.
	add := func(name string) (*Dataset, error) {
		id, _, err := reg.Reserve()
		if err != nil {
			return nil, err
		}
		ds := newDataset(id, name, core.Config{}, upd())
		reg.Publish(ds)
		return ds, nil
	}

	first, err := add("first")
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != "ds_fixed" {
		t.Fatalf("first id %q", first.ID)
	}
	second, err := add("second")
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != "ds_other" {
		t.Fatalf("second id %q: collision not retried", second.ID)
	}
	if got, _ := reg.Get("ds_fixed"); got != first {
		t.Fatal("collision overwrote the first dataset")
	}

	// A generator that always collides must error out, not overwrite.
	reg.idGen = func() (string, error) { return "ds_fixed", nil }
	if _, err := add("third"); err == nil {
		t.Fatal("permanent collision accepted")
	}
	if got, _ := reg.Get("ds_fixed"); got != first {
		t.Fatal("exhausted retries overwrote the first dataset")
	}
}

// TestRegistryRestoreRejectsDuplicate: recovery must not let two store
// entries share an id.
func TestRegistryRestoreRejectsDuplicate(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.RestoreLazy("ds_one", "a", time.Now(), core.Config{}, Summary{ID: "ds_one"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.RestoreLazy("ds_one", "b", time.Now(), core.Config{}, Summary{ID: "ds_one"}, nil); err == nil {
		t.Fatal("duplicate restore accepted")
	}
	if ds, _ := reg.Get("ds_one"); ds.Name != "a" {
		t.Fatalf("duplicate restore replaced the first dataset with %q", ds.Name)
	}
}

// TestCreateRollsBackOnPersistFailure: if the snapshot cannot be
// written, the create must fail AND the dataset must not linger in the
// registry (a client retry would otherwise leak one registration per
// attempt).
func TestCreateRollsBackOnPersistFailure(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Workers: 1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		st.Close()
	})

	// Sabotage the store: replace the datasets directory with a file so
	// snapshot writes fail.
	if err := os.RemoveAll(filepath.Join(dir, "datasets")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "datasets"), []byte("not a dir"), 0o600); err != nil {
		t.Fatal(err)
	}

	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets", map[string]any{
		"name": "doomed", "columns": []string{"A"}, "rows": [][]string{{"x"}, {"x"}},
		"keySeed": "doomed",
	})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("create with broken store: status %d, body %s", resp.StatusCode, body)
	}
	if srv.reg.Len() != 0 {
		t.Fatalf("failed create left %d datasets registered", srv.reg.Len())
	}
}

// TestAppendRejectedWhenJournalFails: an append whose WAL write fails
// must change nothing — not buffer the rows, not advance the sequence —
// so the client's retry is safe.
func TestAppendRejectedWhenJournalFails(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newDurableServer(t, dir, 1)
	id := createDataset(t, ts.URL, []string{"A", "B"}, [][]string{
		{"a1", "b1"}, {"a1", "b1"}, {"a2", "b2"},
	})

	// Sabotage just this dataset's directory: journaling needs it.
	if err := os.RemoveAll(filepath.Join(dir, "datasets", id)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "datasets", id), []byte("not a dir"), 0o600); err != nil {
		t.Fatal(err)
	}

	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/rows",
		map[string]any{"rows": [][]string{{"ax", "bx"}}})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("append with broken WAL: status %d, body %s", resp.StatusCode, body)
	}
	ds, ok := srv.reg.Get(id)
	if !ok {
		t.Fatal("dataset vanished")
	}
	ds.Lock()
	pending, seq := ds.upd.Pending(), ds.walSeq
	ds.Unlock()
	if pending != 0 || seq != 0 {
		t.Fatalf("failed journal left pending=%d walSeq=%d", pending, seq)
	}
}

// TestLazyBootHydratesOnDemand: a restart over a chunked snapshot must
// register the dataset without reading a single chunk — metadata reads
// (list, get) serve the index-derived summary — and the first request
// that needs the tables hydrates the full state, including the WAL tail.
func TestLazyBootHydratesOnDemand(t *testing.T) {
	dir := t.TempDir()
	_, ts := newDurableServer(t, dir, 2)
	rows := [][]string{
		{"g1", "id1"}, {"g1", "id2"}, {"g1", "id3"},
		{"g2", "id4"}, {"g2", "id5"},
	}
	id := createDataset(t, ts.URL, []string{"G", "ID"}, rows)
	flushed := [][]string{{"g1", "id6"}, {"g2", "id7"}}
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/rows",
		map[string]any{"rows": flushed})
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
	if !appended.FlushScheduled {
		t.Fatalf("batch of 2 did not schedule an auto-flush: %s", body)
	}
	pollFlushJob(t, ts.URL, id, appended.FlushJobID)
	// One batch left in the WAL tail across the restart.
	pendingRow := [][]string{{"g2", "id8"}}
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/rows",
		map[string]any{"rows": pendingRow})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d, body %s", resp.StatusCode, body)
	}

	srv2, ts2 := newDurableServer(t, dir, 2)
	ds, ok := srv2.reg.Get(id)
	if !ok {
		t.Fatal("dataset not recovered")
	}
	isLazy := func() bool {
		ds.Lock()
		defer ds.Unlock()
		return ds.upd == nil
	}
	if !isLazy() {
		t.Fatal("recovered dataset already holds an updater — boot was not lazy")
	}

	// Metadata reads answer from the index-derived summary and must not
	// force a hydration.
	resp, body = doJSON(t, http.MethodGet, ts2.URL+"/v1/datasets/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get after restart: status %d, body %s", resp.StatusCode, body)
	}
	var got struct {
		Dataset Summary `json:"dataset"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Dataset.Rows != 7 || got.Dataset.PendingRows != 1 {
		t.Fatalf("lazy summary: rows=%d pending=%d, want 7/1", got.Dataset.Rows, got.Dataset.PendingRows)
	}
	if resp, _ := doJSON(t, http.MethodGet, ts2.URL+"/v1/datasets", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("list after restart: status %d", resp.StatusCode)
	}
	if !isLazy() {
		t.Fatal("a metadata read hydrated the dataset")
	}

	// Decrypt is the first table-touching request: it hydrates, sees the
	// flushed rows, and reports the tail row as pending.
	columns, decRows, pending := decryptRows(t, ts2.URL, id)
	if pending != 1 {
		t.Fatalf("pending = %d after lazy hydration, want 1", pending)
	}
	flushedAll := append(append([][]string{}, rows...), flushed...)
	if !reflect.DeepEqual(sortedRows(t, columns, decRows), sortedRows(t, []string{"G", "ID"}, flushedAll)) {
		t.Fatal("hydrated dataset decrypts to different rows")
	}
	if isLazy() {
		t.Fatal("decrypt did not hydrate the dataset")
	}

	// Fully live from here: flush the tail row and read everything back.
	resp, body = doJSON(t, http.MethodPost, ts2.URL+"/v1/datasets/"+id+"/flush?wait=1", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush after hydration: status %d, body %s", resp.StatusCode, body)
	}
	all := append(flushedAll, pendingRow...)
	columns, decRows, pending = decryptRows(t, ts2.URL, id)
	if pending != 0 {
		t.Fatalf("pending = %d after flush", pending)
	}
	if !reflect.DeepEqual(sortedRows(t, columns, decRows), sortedRows(t, []string{"G", "ID"}, all)) {
		t.Fatal("recovered dataset decrypts to different rows")
	}
}

// errorRecords returns the messages of every ERROR-level record in a
// JSON slog stream.
func errorRecords(logs string) []string {
	var msgs []string
	for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
		var entry struct {
			Level string `json:"level"`
			Msg   string `json:"msg"`
		}
		if json.Unmarshal([]byte(line), &entry) == nil && entry.Level == "ERROR" {
			msgs = append(msgs, entry.Msg)
		}
	}
	return msgs
}

// dirFiles reads every regular file under root, keyed by relative path.
func dirFiles(t *testing.T, root string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestV1SnapshotRejectedSafely: a pre-chunking (v1) monolithic snapshot
// is an unreadable dataset like any other. Boot skips it with an ERROR
// naming the version, registers nothing for it, leaves its files
// byte-identical on disk, and still brings up the healthy dataset next
// to it.
func TestV1SnapshotRejectedSafely(t *testing.T) {
	dir := t.TempDir()
	_, ts := newDurableServer(t, dir, 1)
	rows := [][]string{{"a1", "b1"}, {"a1", "b2"}, {"a2", "b3"}, {"a2", "b4"}}
	healthy := createDataset(t, ts.URL, []string{"A", "B"}, rows)

	// A v1 snapshot that was loadable in its day: the healthy dataset's
	// sealed key, config and full updater state, inline in one JSON blob.
	raw, err := os.ReadFile(filepath.Join(dir, "datasets", healthy, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var idx struct {
		KeyEnc string          `json:"keyEnc"`
		Config json.RawMessage `json:"config"`
	}
	if err := json.Unmarshal(raw, &idx); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	state, err := st.LoadState(context.Background(), healthy)
	st.Close()
	if err != nil {
		t.Fatal(err)
	}
	const v1ID = "ds_111111111111"
	v1, err := json.Marshal(map[string]any{
		"version": 1, "id": v1ID, "name": "old", "created": time.Unix(0, 0).UTC(),
		"keyEnc": idx.KeyEnc, "config": idx.Config, "walSeq": 0, "updater": state,
	})
	if err != nil {
		t.Fatal(err)
	}
	v1Dir := filepath.Join(dir, "datasets", v1ID)
	if err := os.MkdirAll(v1Dir, 0o700); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(v1Dir, "snapshot.json"), v1, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(v1Dir, "wal.log"), []byte("journal bytes"), 0o600); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, v1Dir)

	srv2, ts2, logs := newFlightServer(t, dir, nil)
	if _, ok := srv2.reg.Get(v1ID); ok {
		t.Fatal("v1 dataset registered")
	}
	if resp, _ := doJSON(t, http.MethodGet, ts2.URL+"/v1/datasets/"+v1ID, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("v1 dataset served: status %d", resp.StatusCode)
	}
	if after := dirFiles(t, v1Dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("v1 dataset files changed at boot:\nbefore %q\nafter  %q", before, after)
	}
	named := false
	for _, msg := range errorRecords(logs.String()) {
		if strings.Contains(msg, v1ID) && strings.Contains(msg, "version 1") {
			named = true
		}
	}
	if !named {
		t.Fatalf("no ERROR record names %s and version 1; logs:\n%s", v1ID, logs.String())
	}

	if resp, body := doJSON(t, http.MethodGet, ts2.URL+"/v1/datasets/"+healthy, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy dataset after boot: status %d, body %s", resp.StatusCode, body)
	}
	columns, decRows, _ := decryptRows(t, ts2.URL, healthy)
	if !reflect.DeepEqual(sortedRows(t, columns, decRows), sortedRows(t, []string{"A", "B"}, rows)) {
		t.Fatal("healthy dataset decrypts to different rows")
	}
}

// metricValue extracts one un-labeled metric's value from a /metrics
// rendering.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		val, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			t.Fatalf("metric %s: unparsable value %q", name, val)
		}
		return f
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// TestSnapshotMetricsExposeDedup: the rotation counters surface on
// /metrics, and with chunk-sized row ranges a second rotation re-links
// the stable prefix instead of rewriting it.
func TestSnapshotMetricsExposeDedup(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenOptions(dir, store.Options{ChunkRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Workers: 1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		st.Close()
	})

	id := createDataset(t, ts.URL, []string{"G", "ID"}, [][]string{
		{"g1", "id1"}, {"g1", "id2"}, {"g1", "id3"},
		{"g2", "id4"}, {"g2", "id5"},
	})
	// Appending past the first 4-row chunk and flushing rotates the
	// snapshot; the plaintext prefix chunk keeps its content hash and is
	// re-linked, not rewritten.
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/rows",
		map[string]any{"rows": [][]string{{"g1", "id6"}, {"g2", "id7"}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d, body %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/flush?wait=1", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: status %d, body %s", resp.StatusCode, body)
	}

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	render := string(body)
	if w := metricValue(t, render, "f2_snapshot_bytes_written_total"); w <= 0 {
		t.Errorf("f2_snapshot_bytes_written_total = %v, want > 0", w)
	}
	if cw := metricValue(t, render, "f2_snapshot_chunks_written_total"); cw <= 0 {
		t.Errorf("f2_snapshot_chunks_written_total = %v, want > 0", cw)
	}
	if r := metricValue(t, render, "f2_snapshot_chunks_reused_total"); r <= 0 {
		t.Errorf("f2_snapshot_chunks_reused_total = %v, want > 0 (stable prefix chunk not re-linked)", r)
	}
	if br := metricValue(t, render, "f2_snapshot_bytes_reused_total"); br <= 0 {
		t.Errorf("f2_snapshot_bytes_reused_total = %v, want > 0", br)
	}
}

// TestRecoverySkipsCorruptDataset: one rotten snapshot must not take
// down the service or the healthy datasets next to it — but the lost
// dataset must page: its skip line is an ERROR record naming it, so a log
// scan for ERROR (as in scripts/restart_smoke.sh) catches a recovery that
// papered over a loss.
func TestRecoverySkipsCorruptDataset(t *testing.T) {
	dir := t.TempDir()
	_, ts := newDurableServer(t, dir, 1)
	goodID := createDataset(t, ts.URL, []string{"A", "B"}, [][]string{
		{"a1", "b1"}, {"a1", "b1"}, {"a2", "b2"},
	})
	badDir := filepath.Join(dir, "datasets", "ds_corrupt00000")
	if err := os.MkdirAll(badDir, 0o700); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(badDir, "snapshot.json"), []byte("{"), 0o600); err != nil {
		t.Fatal(err)
	}

	srv2, ts2, logs := newFlightServer(t, dir, nil)
	if srv2.reg.Len() != 1 {
		t.Fatalf("recovered %d datasets, want 1 (the healthy one)", srv2.reg.Len())
	}
	paged := false
	for _, msg := range errorRecords(logs.String()) {
		paged = paged || strings.Contains(msg, "ds_corrupt00000")
	}
	if !paged {
		t.Fatalf("no ERROR record names the skipped dataset; logs:\n%s", logs.String())
	}
	resp, _ := doJSON(t, http.MethodGet, ts2.URL+"/v1/datasets/"+goodID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy dataset lost: status %d", resp.StatusCode)
	}
	// The corrupt directory is left on disk for inspection, not deleted.
	if _, err := os.Stat(badDir); err != nil {
		t.Fatalf("corrupt dataset directory removed: %v", err)
	}
}

// recoveredRows decrypts the dataset's current ciphertext in process,
// so the cells come back as stored, not as a JSON response re-encodes
// them.
func recoveredRows(t *testing.T, srv *Server, id string) [][]string {
	t.Helper()
	ds, ok := srv.reg.Get(id)
	if !ok {
		t.Fatalf("no dataset %s", id)
	}
	ds.Lock()
	res := ds.upd.Result()
	ds.Unlock()
	dec, err := core.NewDecryptor(ds.cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := dec.Recover(context.Background(), res)
	if err != nil {
		t.Fatal(err)
	}
	return back.JSON().Rows
}

// TestInvalidUTF8AppendSurvivesRestart appends a cell holding a raw 0xff
// byte to two copies of one dataset and crash-restarts one of them before
// any flush, so its rows reach the flush through WAL replay. The cell is
// stored as U+FFFD, as encoding/json decodes it, so both copies must hold
// the same plaintext and the same FDs. Had the request path kept the raw
// byte, the base rows' "a\uFFFDb" would stay a different value from the
// appended one, A → B would survive in one copy only, and the two
// plaintexts would differ in that cell.
func TestInvalidUTF8AppendSurvivesRestart(t *testing.T) {
	base := [][]string{{"a\uFFFDb", "x"}, {"a\uFFFDb", "x"}, {"c", "y"}, {"c", "y"}, {"d", "z"}}
	const body = "{\"rows\":[[\"a\xffb\",\"w\"]]}"
	want := append(append([][]string{}, base...), []string{"a\uFFFDb", "w"})

	var plain [2][][]string
	var decrypted, fds [2][]byte
	for c := range plain {
		dir := t.TempDir()
		srv, ts := newDurableServer(t, dir, 1)
		id := createBuffering(t, ts.URL, base)
		if resp, out := postRaw(t, ts.URL+"/v1/datasets/"+id+"/rows", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("copy %d: append: status %d, body %s", c, resp.StatusCode, out)
		}
		if c == 1 { // crash: a new server over the same directory, nothing flushed
			srv, ts = newDurableServer(t, dir, 1)
		}
		if resp, out := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/flush?wait=1", map[string]any{}); resp.StatusCode != http.StatusOK {
			t.Fatalf("copy %d: flush: status %d, body %s", c, resp.StatusCode, out)
		}
		resp, out := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/decrypt", map[string]any{})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("copy %d: decrypt: status %d, body %s", c, resp.StatusCode, out)
		}
		decrypted[c] = out
		if resp, fds[c] = doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+id+"/fds", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("copy %d: fds: status %d, body %s", c, resp.StatusCode, fds[c])
		}
		plain[c] = recoveredRows(t, srv, id)
	}
	if !reflect.DeepEqual(plain[0], want) {
		t.Errorf("uninterrupted copy decrypts to %q, want %q", plain[0], want)
	}
	if !reflect.DeepEqual(plain[1], plain[0]) {
		t.Errorf("restarted copy decrypts to %q, uninterrupted copy to %q", plain[1], plain[0])
	}
	if !bytes.Equal(decrypted[1], decrypted[0]) {
		t.Errorf("decrypt responses differ:\n restarted: %s\n uninterrupted: %s", decrypted[1], decrypted[0])
	}
	if !bytes.Equal(fds[1], fds[0]) {
		t.Errorf("FDs differ:\n restarted: %s\n uninterrupted: %s", fds[1], fds[0])
	}
}
