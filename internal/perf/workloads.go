package perf

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	"f2/internal/core"
	"f2/internal/fd"
	"f2/internal/relation"
	"f2/internal/server"
	"f2/internal/store"
	"f2/internal/workload"
)

// Default dataset sizes (rows, before Scale.Rows). Chosen so a -quick
// run (SizeFactor 0.25) of the whole registry finishes in well under two
// minutes on a laptop while still exercising every pipeline stage.
const (
	encryptRows = 8000  // synthetic; full/parallel encrypt + decrypt
	taneRows    = 2000  // customer; FD discovery (wider schema)
	streamRows  = 2000  // synthetic; incremental append stream base
	storeRows   = 15000 // synthetic; snapshot + recovery (10× the pre-chunking harness)
	serverRows  = 800   // synthetic; f2served round-trips
)

// storeRowsHeavy is the 100× store dataset behind the Heavy-gated
// store/*-100x variants: big enough that full-state hydration visibly
// dominates index-only boot, too big for the default -quick sweep.
const storeRowsHeavy = 150000

// DefaultWorkloads returns the standard registry: every pipeline stage
// under one measurement path. internal/bench layers the paper
// experiments (group "paper") on top via its PerfWorkloads bridge.
func DefaultWorkloads() *Registry {
	r := NewRegistry()
	must := func(err error) {
		if err != nil {
			panic(err) // duplicate registration is a programming error
		}
	}
	must(r.Register(
		encryptWorkload("encrypt/full", -1,
			"full F² encryption of a synthetic table (pipeline width from -parallelism)"),
		encryptWorkload("encrypt/parallel-1", 1,
			"full encryption pinned to the serial pipeline (width 1)"),
		encryptWorkload("encrypt/parallel-max", 0,
			"full encryption fanned across GOMAXPROCS workers"),
		incrementalWorkload("incremental/append-16", 16,
			"append stream: buffer 16 rows + incremental flush per op"),
		incrementalWorkload("incremental/append-128", 128,
			"append stream: buffer 128 rows + incremental flush per op"),
		decryptWorkload(),
		fdWorkload("fd/discover-plain", false,
			"witnessed TANE FD discovery on the plaintext table"),
		fdWorkload("fd/discover-encrypted", true,
			"witnessed TANE FD discovery on the encrypted view (the untrusted server's job)"),
		storeSnapshotWorkload(),
		storeRecoverWorkload("store/recover", storeRows, false,
			"boot recovery: snapshot hydrate + WAL tail replay + updater restore"),
		storeBootIndexWorkload("store/boot-index", storeRows, false,
			"time to first request: open store + load snapshot index only (no chunk hydration)"),
		storeRecoverWorkload("store/recover-100x", storeRowsHeavy, true,
			"boot recovery at 100× rows (Heavy; select explicitly)"),
		storeBootIndexWorkload("store/boot-index-100x", storeRowsHeavy, true,
			"time to first request at 100× rows (Heavy; select explicitly)"),
		serverRoundtripWorkload(),
		serverReadWorkload(),
		serverIngestHammerWorkload(),
		serverAppendWhileFlushingWorkload(),
	))
	return r
}

// expansionGauge publishes the ciphertext-expansion ratio observed by the
// last completed op (atomically: ops run concurrently).
type expansionGauge struct{ bits atomic.Uint64 }

func (g *expansionGauge) set(orig, enc int) {
	if orig > 0 {
		g.bits.Store(math.Float64bits(float64(enc) / float64(orig)))
	}
}

func (g *expansionGauge) metrics() map[string]float64 {
	if b := g.bits.Load(); b != 0 {
		return map[string]float64{"ciphertextExpansion": math.Float64frombits(b)}
	}
	return nil
}

// encryptWorkload measures a full pipeline run at a fixed width
// (parallelism ≥ 0) or at the scale's width (-1).
func encryptWorkload(name string, parallelism int, desc string) Workload {
	return Workload{
		Name: name,
		Desc: desc,
		Setup: func(ctx context.Context, sc Scale) (*Instance, error) {
			tbl, err := Dataset(workload.NameSynthetic, sc.Rows(encryptRows), sc.Seed)
			if err != nil {
				return nil, err
			}
			cfg := Config(0.25)
			if parallelism >= 0 {
				cfg.Parallelism = parallelism
			} else {
				cfg.Parallelism = sc.Parallelism
			}
			var exp expansionGauge
			return &Instance{
				RowsPerOp: tbl.NumRows(),
				Metrics:   exp.metrics,
				// A fresh Encryptor per op: the type is reusable but not
				// concurrency-safe, and construction is microseconds.
				Op: func(ctx context.Context) error {
					enc, err := core.NewEncryptor(cfg)
					if err != nil {
						return err
					}
					res, err := enc.Encrypt(ctx, tbl)
					if err != nil {
						return err
					}
					exp.set(tbl.NumRows(), res.Encrypted.NumRows())
					return nil
				},
			}, nil
		},
	}
}

// incrementalWorkload measures the append stream: each op buffers Δ rows
// and flushes through the incremental engine. The table legitimately
// grows during the run (that is the scenario); OpsCap bounds the drift.
func incrementalWorkload(name string, delta int, desc string) Workload {
	return Workload{
		Name:           name,
		Desc:           desc,
		MaxConcurrency: 1, // core.Updater is single-owner
		OpsCap:         2048 / delta,
		Setup: func(ctx context.Context, sc Scale) (*Instance, error) {
			base, err := Dataset(workload.NameSynthetic, sc.Rows(streamRows), sc.Seed)
			if err != nil {
				return nil, err
			}
			// The appended rows come from the same generator at a shifted
			// seed: schema-compatible, value-fresh. Some flushes will hit
			// the rebuild fallback — that mix is the production scenario,
			// and the flush-mode metrics below record it.
			pool, err := Dataset(workload.NameSynthetic, sc.Rows(streamRows), sc.Seed+7)
			if err != nil {
				return nil, err
			}
			cfg := Config(0.25)
			cfg.Parallelism = sc.Parallelism
			upd, _, err := core.NewUpdater(ctx, cfg, base)
			if err != nil {
				return nil, err
			}
			cursor := 0
			next := func() [][]string {
				rows := make([][]string, delta)
				for i := range rows {
					r := make([]string, pool.NumAttrs())
					for a := range r {
						r[a] = pool.Cell(cursor%pool.NumRows(), a)
					}
					cursor++
					rows[i] = r
				}
				return rows
			}
			return &Instance{
				RowsPerOp: delta,
				Metrics: func() map[string]float64 {
					return map[string]float64{
						"incrementalFlushes": float64(upd.IncrementalFlushes),
						"rebuilds":           float64(upd.Rebuilds),
					}
				},
				Op: func(ctx context.Context) error {
					if err := upd.Buffer(next()); err != nil {
						return err
					}
					_, err := upd.Flush(ctx)
					return err
				},
			}, nil
		},
	}
}

// decryptWorkload measures owner-side full-table decryption.
func decryptWorkload() Workload {
	return Workload{
		Name: "decrypt/full",
		Desc: "owner-side decryption of a full encrypted table",
		Setup: func(ctx context.Context, sc Scale) (*Instance, error) {
			tbl, err := Dataset(workload.NameSynthetic, sc.Rows(encryptRows), sc.Seed)
			if err != nil {
				return nil, err
			}
			cfg := Config(0.25)
			cfg.Parallelism = sc.Parallelism
			enc, err := core.NewEncryptor(cfg)
			if err != nil {
				return nil, err
			}
			res, err := enc.Encrypt(ctx, tbl)
			if err != nil {
				return nil, err
			}
			return &Instance{
				RowsPerOp: tbl.NumRows(),
				Op: func(ctx context.Context) error {
					dec, err := core.NewDecryptor(cfg)
					if err != nil {
						return err
					}
					_, err = dec.DecryptTable(ctx, res.Encrypted)
					return err
				},
			}, nil
		},
	}
}

// fdWorkload measures witnessed TANE discovery on the plaintext or the
// encrypted view.
func fdWorkload(name string, encrypted bool, desc string) Workload {
	return Workload{
		Name: name,
		Desc: desc,
		Setup: func(ctx context.Context, sc Scale) (*Instance, error) {
			tbl, err := Dataset(workload.NameCustomer, sc.Rows(taneRows), sc.Seed)
			if err != nil {
				return nil, err
			}
			target := tbl
			if encrypted {
				cfg := Config(0.2)
				cfg.Parallelism = sc.Parallelism
				enc, err := core.NewEncryptor(cfg)
				if err != nil {
					return nil, err
				}
				res, err := enc.Encrypt(ctx, tbl)
				if err != nil {
					return nil, err
				}
				target = res.Encrypted
			}
			return &Instance{
				RowsPerOp: target.NumRows(),
				Op: func(ctx context.Context) error {
					_, err := fd.DiscoverWitnessedCtx(ctx, target)
					return err
				},
			}, nil
		},
	}
}

// storeRecord builds a durable-store record over a freshly encrypted
// synthetic table of baseRows (before Scale.Rows), shared by the store
// workloads.
func storeRecord(ctx context.Context, sc Scale, baseRows int) (*store.Record, *relation.Table, error) {
	tbl, err := Dataset(workload.NameSynthetic, sc.Rows(baseRows), sc.Seed)
	if err != nil {
		return nil, nil, err
	}
	cfg := Config(0.25)
	cfg.Parallelism = sc.Parallelism
	upd, _, err := core.NewUpdater(ctx, cfg, tbl)
	if err != nil {
		return nil, nil, err
	}
	return &store.Record{
		ID:      "perf",
		Name:    "perf",
		Created: time.Now().UTC(),
		Config:  cfg,
		Updater: upd.State(),
	}, tbl, nil
}

// storeSnapshotWorkload measures one durable snapshot write (serialize,
// seal the key, fsync, atomic rename).
func storeSnapshotWorkload() Workload {
	return Workload{
		Name:           "store/snapshot",
		Desc:           "durable snapshot write of an encrypted dataset (seal + fsync + rename)",
		MaxConcurrency: 1, // one dataset dir; concurrent rotations would measure rename races
		Setup: func(ctx context.Context, sc Scale) (*Instance, error) {
			dir, err := os.MkdirTemp("", "f2perf-store-*")
			if err != nil {
				return nil, err
			}
			st, err := store.Open(dir)
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			rec, tbl, err := storeRecord(ctx, sc, storeRows)
			if err != nil {
				st.Close()
				os.RemoveAll(dir)
				return nil, err
			}
			return &Instance{
				RowsPerOp: tbl.NumRows(),
				Cleanup: func() error {
					st.Close()
					return os.RemoveAll(dir)
				},
				Op: func(ctx context.Context) error {
					return st.SaveSnapshot(ctx, rec)
				},
			}, nil
		},
	}
}

// recoveryDir lays down a store directory with one snapshotted dataset
// plus a WAL tail of 8 acknowledged-but-unsnapshotted batches — the
// crashed-server state both recovery workloads boot from.
func recoveryDir(ctx context.Context, sc Scale, baseRows int) (dir string, totalRows int, err error) {
	dir, err = os.MkdirTemp("", "f2perf-recover-*")
	if err != nil {
		return "", 0, err
	}
	fail := func(err error) (string, int, error) {
		os.RemoveAll(dir)
		return "", 0, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return fail(err)
	}
	rec, tbl, err := storeRecord(ctx, sc, baseRows)
	if err != nil {
		st.Close()
		return fail(err)
	}
	if err := st.SaveSnapshot(ctx, rec); err != nil {
		st.Close()
		return fail(err)
	}
	const tailBatches, batchRows = 8, 16
	row := make([]string, tbl.NumAttrs())
	for seq := uint64(1); seq <= tailBatches; seq++ {
		rows := make([][]string, batchRows)
		for i := range rows {
			src := (int(seq)*batchRows + i) % tbl.NumRows()
			for a := range row {
				row[a] = tbl.Cell(src, a)
			}
			rows[i] = append([]string(nil), row...)
		}
		if err := st.AppendBatch(ctx, "perf", store.Batch{Seq: seq, Rows: rows}); err != nil {
			st.Close()
			return fail(err)
		}
	}
	if err := st.Close(); err != nil {
		return fail(err)
	}
	return dir, tbl.NumRows() + tailBatches*batchRows, nil
}

// bootLoad opens the store and runs LoadAll, asserting exactly one clean
// dataset came back — the common front half of both recovery ops. The
// caller must Close the returned store.
func bootLoad(dir string) (*store.Store, *store.Loaded, error) {
	s2, err := store.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	loaded, skipped, err := s2.LoadAll()
	if err != nil {
		s2.Close()
		return nil, nil, err
	}
	if len(skipped) > 0 || len(loaded) != 1 {
		s2.Close()
		return nil, nil, fmt.Errorf("recover: %d loaded, %d skipped", len(loaded), len(skipped))
	}
	return s2, loaded[0], nil
}

// storeRecoverWorkload measures the full boot-recovery path: open the
// store, load the snapshot index, hydrate the chunked state, CRC-walk
// the WAL tail, restore the updater, and replay the tail through it —
// what f2served does on the first state-touching request after boot.
func storeRecoverWorkload(name string, baseRows int, heavy bool, desc string) Workload {
	return Workload{
		Name:  name,
		Desc:  desc,
		Heavy: heavy,
		Setup: func(ctx context.Context, sc Scale) (*Instance, error) {
			dir, totalRows, err := recoveryDir(ctx, sc, baseRows)
			if err != nil {
				return nil, err
			}
			return &Instance{
				RowsPerOp: totalRows,
				Cleanup:   func() error { return os.RemoveAll(dir) },
				Op: func(ctx context.Context) error {
					s2, l, err := bootLoad(dir)
					if err != nil {
						return err
					}
					defer s2.Close()
					state, err := s2.LoadState(ctx, l.ID)
					if err != nil {
						return err
					}
					upd, err := core.RestoreUpdater(l.Config, state)
					if err != nil {
						return err
					}
					for _, b := range l.Tail {
						if err := upd.Buffer(b.Rows); err != nil {
							return err
						}
					}
					return nil
				},
			}, nil
		},
	}
}

// storeBootIndexWorkload measures time to first request: open the store
// and load only the snapshot index — the work between process start and
// the server answering metadata reads. Chunk hydration (the dominant
// cost storeRecoverWorkload measures) is deliberately absent; the ratio
// between the two workloads is the lazy-boot win.
func storeBootIndexWorkload(name string, baseRows int, heavy bool, desc string) Workload {
	return Workload{
		Name:  name,
		Desc:  desc,
		Heavy: heavy,
		Setup: func(ctx context.Context, sc Scale) (*Instance, error) {
			dir, totalRows, err := recoveryDir(ctx, sc, baseRows)
			if err != nil {
				return nil, err
			}
			return &Instance{
				RowsPerOp: totalRows,
				Cleanup:   func() error { return os.RemoveAll(dir) },
				Op: func(ctx context.Context) error {
					s2, l, err := bootLoad(dir)
					if err != nil {
						return err
					}
					defer s2.Close()
					if l.Stats.Rows <= 0 {
						return fmt.Errorf("boot-index: index stats empty")
					}
					return nil
				},
			}, nil
		},
	}
}

// httpDataset boots an in-process f2served over httptest, creates one
// dataset from a synthetic table, and returns the client plumbing.
func httpDataset(ctx context.Context, sc Scale) (ts *httptest.Server, srv *server.Server, id string, tbl *relation.Table, err error) {
	return httpDatasetOpts(ctx, sc, server.Options{Workers: 4, Parallelism: sc.Parallelism})
}

// httpDatasetOpts is httpDataset with explicit server options (the
// durable workloads attach a store).
func httpDatasetOpts(ctx context.Context, sc Scale, opts server.Options) (ts *httptest.Server, srv *server.Server, id string, tbl *relation.Table, err error) {
	tbl, err = Dataset(workload.NameSynthetic, sc.Rows(serverRows), sc.Seed)
	if err != nil {
		return nil, nil, "", nil, err
	}
	srv, err = server.New(opts)
	if err != nil {
		return nil, nil, "", nil, err
	}
	ts = httptest.NewServer(srv.Handler())
	fail := func(err error) (*httptest.Server, *server.Server, string, *relation.Table, error) {
		ts.Close()
		srv.Close()
		return nil, nil, "", nil, err
	}
	rows := make([][]string, tbl.NumRows())
	for i := range rows {
		r := make([]string, tbl.NumAttrs())
		for a := range r {
			r[a] = tbl.Cell(i, a)
		}
		rows[i] = r
	}
	body, err := json.Marshal(map[string]any{
		"name":    "perf",
		"columns": tbl.Schema().Names(),
		"rows":    rows,
		"keySeed": "f2-perf-http",
	})
	if err != nil {
		return fail(err)
	}
	resp, err := httpPost(ctx, ts.URL+"/v1/datasets", body)
	if err != nil {
		return fail(err)
	}
	var created struct {
		Dataset struct {
			ID string `json:"id"`
		} `json:"dataset"`
	}
	if err := json.Unmarshal(resp, &created); err != nil || created.Dataset.ID == "" {
		return fail(fmt.Errorf("create dataset: bad response %.120q (%v)", resp, err))
	}
	return ts, srv, created.Dataset.ID, tbl, nil
}

// httpPost / httpGet are minimal JSON round-trip helpers that fail on
// non-2xx statuses (an errored request must not count as a fast op).
func httpDo(req *http.Request) ([]byte, error) {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var data []byte
	if n := resp.ContentLength; n >= 0 {
		// f2served sets Content-Length; an exact-size read avoids
		// io.ReadAll's grow-and-copy on the measurement path.
		data = make([]byte, n)
		_, err = io.ReadFull(resp.Body, data)
	} else {
		data, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %.200s", req.Method, req.URL.Path, resp.Status, data)
	}
	return data, nil
}

func httpPost(ctx context.Context, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return httpDo(req)
}

// flushModeMetrics reads a dataset's flush-mode counters for a server
// workload's metrics hook (best effort: a failed read reports nothing
// rather than failing the run).
func flushModeMetrics(datasetURL string) map[string]float64 {
	//lint:ignore f2vet/ctxflow the Metrics hook runs after the measured window, outside any op context
	data, err := httpGet(context.Background(), datasetURL)
	if err != nil {
		return nil
	}
	var body struct {
		Dataset struct {
			Rebuilds           float64 `json:"rebuilds"`
			IncrementalFlushes float64 `json:"incrementalFlushes"`
			EncryptedRows      float64 `json:"encryptedRows"`
		} `json:"dataset"`
	}
	if json.Unmarshal(data, &body) != nil {
		return nil
	}
	return map[string]float64{
		"rebuilds":           body.Dataset.Rebuilds,
		"incrementalFlushes": body.Dataset.IncrementalFlushes,
		"encryptedRows":      body.Dataset.EncryptedRows,
	}
}

func httpGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return httpDo(req)
}

// serverRoundtripWorkload measures the end-to-end append path: POST a
// small batch of rows, then GET the refreshed summary. The server's
// FlushFraction auto-flush fires periodically during the run, so the op
// mix includes real pipeline work, exactly like a production stream.
func serverRoundtripWorkload() Workload {
	const appendRows = 8
	return Workload{
		Name:               "server/roundtrip",
		Desc:               "f2served HTTP round-trip: 16 clients POST 8 rows + GET summary (auto-flush runs in the background)",
		DefaultConcurrency: 16,
		// Large enough that the measurement window, not the cap, bounds the
		// run: the first pool pass through the duplicate cycle triggers the
		// unavoidable startup rebuilds, and a capped run would average that
		// cold start into the steady-state number.
		OpsCap: 32768,
		Setup: func(ctx context.Context, sc Scale) (*Instance, error) {
			ts, srv, id, tbl, err := httpDataset(ctx, sc)
			if err != nil {
				return nil, err
			}
			var cursor atomic.Int64
			return &Instance{
				RowsPerOp: appendRows,
				// How the background flushes split between the incremental
				// engine and full rebuilds — the flush-path mix behind the
				// op/s number.
				Metrics: func() map[string]float64 { return flushModeMetrics(ts.URL + "/v1/datasets/" + id) },
				Cleanup: func() error {
					ts.Close()
					srv.Close()
					return nil
				},
				Op: func(ctx context.Context) error {
					base := int(cursor.Add(appendRows)) - appendRows
					rows := make([][]string, appendRows)
					for i := range rows {
						r := make([]string, tbl.NumAttrs())
						for a := range r {
							r[a] = tbl.Cell((base+i)%tbl.NumRows(), a)
						}
						rows[i] = r
					}
					body, err := json.Marshal(struct {
						Rows [][]string `json:"rows"`
					}{rows})
					if err != nil {
						return err
					}
					if _, err := httpPost(ctx, ts.URL+"/v1/datasets/"+id+"/rows", body); err != nil {
						return err
					}
					_, err = httpGet(ctx, ts.URL+"/v1/datasets/"+id)
					return err
				},
			}, nil
		},
	}
}

// serverReadWorkload measures the read path under concurrency: GET the
// dataset summary (registry lock + cached summary + JSON encode).
func serverReadWorkload() Workload {
	return Workload{
		Name:               "server/read",
		Desc:               "f2served HTTP read: GET dataset summary at concurrency 4",
		DefaultConcurrency: 4,
		Setup: func(ctx context.Context, sc Scale) (*Instance, error) {
			ts, srv, id, _, err := httpDataset(ctx, sc)
			if err != nil {
				return nil, err
			}
			return &Instance{
				Cleanup: func() error {
					ts.Close()
					srv.Close()
					return nil
				},
				Op: func(ctx context.Context) error {
					_, err := httpGet(ctx, ts.URL+"/v1/datasets/"+id)
					return err
				},
			}, nil
		},
	}
}

// serverIngestHammerWorkload measures the durable ingest path under
// write pressure: 16 clients POST batches against a store-backed server
// (group-commit WAL on the hot path), with an async flush kicked every
// 32 ops so snapshot work overlaps the stream instead of gating it.
func serverIngestHammerWorkload() Workload {
	const appendRows = 8
	return Workload{
		Name:               "server/ingest-hammer",
		Desc:               "durable f2served ingest: 16 clients POST 8-row batches over the group-commit WAL, async flush every 32 ops",
		DefaultConcurrency: 16,
		OpsCap:             1024,
		Setup: func(ctx context.Context, sc Scale) (*Instance, error) {
			dir, err := os.MkdirTemp("", "f2perf-ingest-*")
			if err != nil {
				return nil, err
			}
			st, err := store.Open(dir)
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			ts, srv, id, tbl, err := httpDatasetOpts(ctx, sc, server.Options{
				Workers:     4,
				Parallelism: sc.Parallelism,
				Store:       st,
			})
			if err != nil {
				st.Close()
				os.RemoveAll(dir)
				return nil, err
			}
			var cursor atomic.Int64
			return &Instance{
				RowsPerOp: appendRows,
				Cleanup: func() error {
					ts.Close()
					srv.Close() // drains in-flight background flushes
					err := st.Close()
					os.RemoveAll(dir)
					return err
				},
				Op: func(ctx context.Context) error {
					op := cursor.Add(1) - 1
					base := int(op) * appendRows
					rows := make([][]string, appendRows)
					for i := range rows {
						r := make([]string, tbl.NumAttrs())
						for a := range r {
							r[a] = tbl.Cell((base+i)%tbl.NumRows(), a)
						}
						rows[i] = r
					}
					body, err := json.Marshal(struct {
						Rows [][]string `json:"rows"`
					}{rows})
					if err != nil {
						return err
					}
					if _, err := httpPost(ctx, ts.URL+"/v1/datasets/"+id+"/rows", body); err != nil {
						return err
					}
					if op%32 == 31 {
						// Fire-and-forget: 202 (scheduled) or 200 (nothing
						// pending) both count; the flush itself runs in the
						// background off the measured path.
						if _, err := httpPost(ctx, ts.URL+"/v1/datasets/"+id+"/flush", nil); err != nil {
							return err
						}
					}
					return nil
				},
			}, nil
		},
	}
}

// serverAppendWhileFlushingWorkload pins the decoupling win directly: a
// side goroutine keeps a background flush in flight (scheduling one and
// polling its job until done, over and over) while the measured ops are
// plain appends. Before the copy-on-write flush plan, every one of these
// appends would have queued behind the encrypt.
func serverAppendWhileFlushingWorkload() Workload {
	const appendRows = 8
	return Workload{
		Name:               "server/append-while-flushing",
		Desc:               "appends measured while a background flush is kept in flight by a side goroutine",
		DefaultConcurrency: 8,
		OpsCap:             1024,
		Setup: func(ctx context.Context, sc Scale) (*Instance, error) {
			ts, srv, id, tbl, err := httpDataset(ctx, sc)
			if err != nil {
				return nil, err
			}
			stop := make(chan struct{})
			flusherDone := make(chan struct{})
			go func() {
				defer close(flusherDone)
				client := &http.Client{}
				for {
					select {
					case <-stop:
						return
					default:
					}
					// Schedule a flush; if one got scheduled, poll its job to
					// completion so the next loop iteration overlaps a fresh one.
					req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/datasets/"+id+"/flush", nil)
					if err != nil {
						return
					}
					resp, err := client.Do(req)
					if err != nil {
						return
					}
					data, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					var accepted struct {
						FlushJobID string `json:"flushJobId"`
					}
					if json.Unmarshal(data, &accepted) != nil || accepted.FlushJobID == "" {
						// Nothing pending right now; let appends accumulate.
						select {
						case <-stop:
							return
						case <-time.After(time.Millisecond):
						}
						continue
					}
					for {
						resp, err := client.Get(ts.URL + "/v1/datasets/" + id + "/flush/" + accepted.FlushJobID)
						if err != nil {
							return
						}
						data, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						var job struct {
							Status string `json:"status"`
						}
						if json.Unmarshal(data, &job) != nil || job.Status != "running" {
							break
						}
						select {
						case <-stop:
							return
						case <-time.After(time.Millisecond):
						}
					}
				}
			}()
			var cursor atomic.Int64
			return &Instance{
				RowsPerOp: appendRows,
				Cleanup: func() error {
					close(stop)
					<-flusherDone
					ts.Close()
					srv.Close()
					return nil
				},
				Op: func(ctx context.Context) error {
					base := int(cursor.Add(appendRows)) - appendRows
					rows := make([][]string, appendRows)
					for i := range rows {
						r := make([]string, tbl.NumAttrs())
						for a := range r {
							r[a] = tbl.Cell((base+i)%tbl.NumRows(), a)
						}
						rows[i] = r
					}
					body, err := json.Marshal(struct {
						Rows [][]string `json:"rows"`
					}{rows})
					if err != nil {
						return err
					}
					_, err = httpPost(ctx, ts.URL+"/v1/datasets/"+id+"/rows", body)
					return err
				},
			}, nil
		},
	}
}
