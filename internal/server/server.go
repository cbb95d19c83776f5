// Package server implements f2served, a long-lived HTTP/JSON service over
// the F² pipeline. It exposes the full lifecycle of the paper's scheme —
// upload + encrypt, incremental append with buffered flush (core.Updater),
// owner-side decryption, FD discovery on the encrypted view (the untrusted
// server's job in the paper's model), and a frequency-attack /
// verification report — behind a dataset registry with per-dataset
// locking, a bounded worker pool for the CPU-heavy pipeline runs, and
// Prometheus-style /metrics.
//
// Trust model note: f2served plays the *data owner* (it holds the keys and
// the plaintext working copy). The /fds endpoint simulates what the
// paper's untrusted storage server computes: it reads only the encrypted
// view. The /report endpoint is the owner auditing that outsourcing:
// attack success rates on the ciphertext and a verify.CheckWitnessedClaims
// pass over the discovered dependencies.
package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"f2/internal/core"
	"f2/internal/obs"
	"f2/internal/store"
)

// Options configures a Server.
type Options struct {
	// Workers bounds the number of concurrently executing pipeline jobs
	// (encrypt, rebuild, discovery, report). Default: GOMAXPROCS.
	Workers int
	// MaxBodyBytes caps request bodies. Default 32 MiB.
	MaxBodyBytes int64
	// Logger receives structured request logs (one record per request,
	// carrying the trace id and stage timings) and service diagnostics;
	// nil disables logging.
	Logger *slog.Logger
	// AttackTrials is the trial count /report echoes when the request
	// does not set one; the attack verdict is exact and plays no sampled
	// games. Default 1000.
	AttackTrials int
	// VerifyProbes is the number of random completeness samples in
	// /report's verification pass, on top of its exhaustive probes of
	// every one- and two-attribute LHS. Default 200.
	VerifyProbes int
	// Parallelism is the default core.Config.Parallelism for new
	// datasets: how many workers one pipeline run (encrypt, flush,
	// decrypt) fans out across. 0 means GOMAXPROCS, 1 forces the serial
	// pipeline, at most core.MaxParallelism. Together with Workers it bounds total pipeline
	// concurrency at Workers × Parallelism goroutines. Per-dataset
	// overrides arrive via the create request's "parallelism" field.
	Parallelism int
	// Store, when non-nil, makes datasets durable: appends are journaled
	// before they are acknowledged, flushes snapshot the dataset state,
	// and New recovers every stored dataset at boot. Nil keeps the
	// original in-memory-only behavior.
	Store *store.Store
	// MaxPendingBytes bounds the per-dataset ingest queue: approximate
	// bytes of appends staged for group commit but not yet committed.
	// Past the bound appends answer 429 with Retry-After. 0 means the
	// default 64 MiB; negative disables the bound.
	MaxPendingBytes int64
	// TraceRecent bounds how many completed request traces the debug ring
	// retains (GET /v1/debug/traces). Default 64.
	TraceRecent int
	// TraceSlowest bounds the slowest-traces-since-boot set retained
	// alongside the recent ring. Default 16.
	TraceSlowest int
	// RuntimeSampleEvery is the runtime sampler's period: how often
	// runtime/metrics is read into the f2_runtime_* gauges and the
	// /v1/debug/runtime history ring. 0 means the default 5s; negative
	// disables the sampler.
	RuntimeSampleEvery time.Duration
	// RuntimeHistory bounds the in-memory runtime-sample ring behind
	// GET /v1/debug/runtime. Default 360 (30 minutes at the 5s default).
	RuntimeHistory int
	// FlushStallAfter is the watchdog deadline for background flushes: a
	// flush running longer is captured as an incident. 0 means the
	// default 2m; negative disables flush-stall detection.
	FlushStallAfter time.Duration
	// WALStallAfter is the watchdog deadline for the WAL committer: a
	// staged batch older than this marks the committer stalled. 0 means
	// the default 30s; negative disables WAL-stall detection.
	WALStallAfter time.Duration
	// WatchdogEvery is the watchdog scan period. Default 5s.
	WatchdogEvery time.Duration
	// SlowRequestThreshold auto-retains any request slower than this as
	// an incident (kind "slow_request"). 0 means the default 30s;
	// negative disables slow-request retention.
	SlowRequestThreshold time.Duration
	// IncidentMaxFiles / IncidentMaxBytes bound the on-disk incident
	// ring under <data-dir>/incidents. Defaults 64 files / 32 MiB.
	IncidentMaxFiles int
	IncidentMaxBytes int64
	// ProfileDir enables the continuous profiler: periodic CPU windows
	// and heap profiles written to a bounded ring in this directory.
	// Empty (the default) keeps the profiler off.
	ProfileDir string
	// ProfileInterval / ProfileCPUWindow / ProfileMaxFiles /
	// ProfileMaxBytes tune the continuous profiler; zero values take the
	// obs package defaults (60s interval, 5s CPU window, 64 files,
	// 64 MiB).
	ProfileInterval  time.Duration
	ProfileCPUWindow time.Duration
	ProfileMaxFiles  int
	ProfileMaxBytes  int64
}

func (o *Options) fillDefaults() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	if o.AttackTrials <= 0 {
		o.AttackTrials = 1000
	}
	if o.VerifyProbes <= 0 {
		o.VerifyProbes = 200
	}
	if o.TraceRecent <= 0 {
		o.TraceRecent = 64
	}
	if o.TraceSlowest <= 0 {
		o.TraceSlowest = 16
	}
	if o.MaxPendingBytes == 0 {
		o.MaxPendingBytes = 64 << 20
	}
	if o.RuntimeHistory <= 0 {
		o.RuntimeHistory = 360
	}
	if o.FlushStallAfter == 0 {
		o.FlushStallAfter = 2 * time.Minute
	}
	if o.WALStallAfter == 0 {
		o.WALStallAfter = 30 * time.Second
	}
	if o.WatchdogEvery <= 0 {
		o.WatchdogEvery = 5 * time.Second
	}
	if o.SlowRequestThreshold == 0 {
		o.SlowRequestThreshold = 30 * time.Second
	}
	if o.IncidentMaxFiles <= 0 {
		o.IncidentMaxFiles = 64
	}
	if o.IncidentMaxBytes <= 0 {
		o.IncidentMaxBytes = 32 << 20
	}
}

// Server is the f2served HTTP service: registry + worker pool + metrics
// wired into a route table.
type Server struct {
	opts    Options
	reg     *Registry
	pool    *Pool
	metrics *Metrics
	traces  *obs.Ring
	mux     *http.ServeMux
	st      *store.Store // nil = in-memory only
	start   time.Time

	// lifecycle is cancelled by Close so in-flight pipeline jobs abort
	// promptly instead of holding the pool open for a full rebuild.
	lifecycle context.Context
	stop      context.CancelFunc

	// draining is set at the start of Close: appends and new flushes are
	// refused while flushWG waits out the background flushes already in
	// flight, so shutdown persists every committed flush.
	draining atomic.Bool
	flushWG  sync.WaitGroup

	// ingestBytes mirrors the sum of every dataset's pendingBytes for the
	// f2_ingest_queue_depth gauge.
	ingestBytes atomic.Int64

	// Flight recorder (see flightrecorder.go): health model, runtime
	// sampler, incident ring, continuous profiler, stall watchdog.
	health    *obs.HealthRegistry
	sampler   *obs.RuntimeSampler     // nil when RuntimeSampleEvery < 0
	incidents *obs.IncidentRing       // nil without a durable store
	profiler  *obs.ContinuousProfiler // nil unless ProfileDir is set

	// ready is the /readyz signal: false until New finishes boot
	// recovery, false again from the moment Close starts draining.
	ready atomic.Bool

	watchdogStop chan struct{}
	watchdogDone chan struct{}

	// flushTrack holds every background flush currently running, for the
	// watchdog and the "flush" health component. Guarded by flushMu —
	// its own leaf lock, never taken with ds.mu held.
	flushMu    sync.Mutex
	flushTrack map[*flushJob]flushInfo

	// testFlushHook, when set (tests only, before any request), runs at
	// the start of every background flush job — a fault-injection point
	// for simulating a hung flush.
	testFlushHook func()

	// closeOnce makes Close idempotent: the watchdog stop channel and
	// the pool can only shut down once.
	closeOnce sync.Once
}

// New builds a server and its routes. With a durable store configured it
// also runs boot-time recovery, so the returned server already holds
// every dataset that survived the previous process.
func New(opts Options) (*Server, error) {
	// A bad parallelism default must fail the boot, not turn into a 400
	// on every subsequent create.
	if err := core.ValidateParallelism(opts.Parallelism); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	opts.fillDefaults()
	//lint:ignore f2vet/ctxflow server lifecycle root: it outlives every request and ends at Close
	lifecycle, stop := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		reg:       NewRegistry(),
		metrics:   NewMetrics(),
		traces:    obs.NewRing(opts.TraceRecent, opts.TraceSlowest),
		mux:       http.NewServeMux(),
		st:        opts.Store,
		start:     time.Now(),
		lifecycle: lifecycle,
		stop:      stop,
	}
	if err := s.recover(); err != nil {
		stop()
		return nil, err
	}
	s.pool = NewPool(opts.Workers, s.logf)
	if err := s.initFlightRecorder(); err != nil {
		stop()
		s.pool.Close()
		return nil, err
	}
	s.metrics.RegisterGauge("f2_datasets", func() float64 { return float64(s.reg.Len()) })
	s.metrics.RegisterGauge("f2_pool_workers", func() float64 { w, _, _ := s.pool.Stats(); return float64(w) })
	s.metrics.RegisterGauge("f2_pool_active_jobs", func() float64 { _, a, _ := s.pool.Stats(); return float64(a) })
	s.metrics.RegisterGauge("f2_pool_queued_jobs", func() float64 { _, _, q := s.pool.Stats(); return float64(q) })
	s.metrics.RegisterGauge("f2_ingest_queue_depth", func() float64 { return float64(s.ingestBytes.Load()) })
	if s.st != nil {
		s.metrics.RegisterCounterFunc("f2_wal_fsync_total", func() float64 {
			fsyncs, _ := s.st.WALStats()
			return float64(fsyncs)
		})
		s.metrics.RegisterGauge("f2_wal_group_commit_size", func() float64 {
			fsyncs, batches := s.st.WALStats()
			if fsyncs == 0 {
				return 0
			}
			return float64(batches) / float64(fsyncs)
		})
		// Snapshot-rotation dedup accounting: written counts physical chunk
		// + index bytes, reused counts payload bytes a rotation re-linked by
		// content address instead of rewriting. reused/(written+reused)
		// trending high is the chunked format doing its job.
		s.metrics.RegisterCounterFunc("f2_snapshot_chunks_written_total", func() float64 {
			return float64(s.st.SnapshotStats().ChunksWritten)
		})
		s.metrics.RegisterCounterFunc("f2_snapshot_chunks_reused_total", func() float64 {
			return float64(s.st.SnapshotStats().ChunksReused)
		})
		s.metrics.RegisterCounterFunc("f2_snapshot_bytes_written_total", func() float64 {
			return float64(s.st.SnapshotStats().BytesWritten)
		})
		s.metrics.RegisterCounterFunc("f2_snapshot_bytes_reused_total", func() float64 {
			return float64(s.st.SnapshotStats().BytesReused)
		})
	}

	s.mux.Handle("POST /v1/datasets", s.instrument("create_dataset", s.handleCreateDataset))
	s.mux.Handle("GET /v1/datasets", s.instrument("list_datasets", s.handleListDatasets))
	s.mux.Handle("GET /v1/datasets/{id}", s.instrument("get_dataset", s.handleGetDataset))
	s.mux.Handle("DELETE /v1/datasets/{id}", s.instrument("delete_dataset", s.handleDeleteDataset))
	s.mux.Handle("POST /v1/datasets/{id}/rows", s.instrument("append_rows", s.handleAppendRows))
	s.mux.Handle("POST /v1/datasets/{id}/flush", s.instrument("flush", s.handleFlush))
	s.mux.Handle("GET /v1/datasets/{id}/flush/{jobID}", s.instrument("flush_status", s.handleFlushJob))
	s.mux.Handle("POST /v1/datasets/{id}/decrypt", s.instrument("decrypt", s.handleDecrypt))
	s.mux.Handle("GET /v1/datasets/{id}/fds", s.instrument("discover_fds", s.handleFDs))
	s.mux.Handle("GET /v1/datasets/{id}/report", s.instrument("report", s.handleReport))
	s.mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics) // not instrumented: scrapes shouldn't meter themselves
	// Also uninstrumented: reading the trace ring must not itself mint
	// traces into the ring it is reading.
	s.mux.HandleFunc("GET /v1/debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /v1/debug/traces/{id}", s.handleTraceByID)
	// Flight-recorder routes, uninstrumented for the same reasons as
	// /metrics and the trace ring: probes and debug reads must not meter
	// or trace themselves, and /readyz especially must answer while the
	// instrumented path is what's wedged.
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/debug/health", s.handleDebugHealth)
	s.mux.HandleFunc("GET /v1/debug/runtime", s.handleDebugRuntime)
	s.mux.HandleFunc("GET /v1/debug/incidents", s.handleDebugIncidents)
	s.mux.HandleFunc("GET /v1/debug/incidents/{name}", s.handleDebugIncidentByName)
	s.mux.HandleFunc("GET /v1/debug/profiles", s.handleDebugProfiles)
	s.mux.HandleFunc("GET /v1/debug/profiles/{name}", s.handleDebugProfileByName)
	s.ready.Store(true)
	return s, nil
}

// recover registers every dataset from the durable store under its
// original id. Boot reads only each snapshot's index, so recovery
// registers a shell — identity, config, a summary built from index-level
// stats, and the retained WAL tail — and the first request that needs
// the tables hydrates it (hydrateLocked). The summary is exact without
// touching a chunk: row counts come from the index, pending rows are the
// snapshot's buffered rows plus the retained WAL tail's. A dataset that
// fails to restore is skipped with an ERROR log line rather than
// bricking the whole service: its files stay on disk untouched for
// manual inspection, and every healthy dataset still comes up.
func (s *Server) recover() error {
	if s.st == nil {
		return nil
	}
	loaded, skipped, err := s.st.LoadAll()
	if err != nil {
		return fmt.Errorf("server: recovering datasets: %w", err)
	}
	for _, msg := range skipped {
		s.errorf("store: skipping unrecoverable dataset %s", msg)
	}
	for _, l := range loaded {
		walSeq := l.WALSeq
		tailRows := 0
		for _, b := range l.Tail {
			if b.Seq > walSeq {
				walSeq = b.Seq
			}
			tailRows += len(b.Rows)
		}
		st := l.Stats
		sum := Summary{
			ID:                 l.ID,
			Name:               l.Name,
			Created:            l.Created,
			Rows:               st.Rows,
			PendingRows:        st.PendingRows + tailRows,
			EncryptedRows:      st.EncryptedRows,
			Alpha:              l.Config.Alpha,
			SplitFactor:        l.Config.SplitFactor,
			MASCount:           len(st.Meta.MASs),
			Rebuilds:           st.Meta.Rebuilds,
			IncrementalFlushes: st.Meta.IncrementalFlushes,
			LastFlushMode:      st.Meta.LastFlush,
			Overhead:           st.Meta.Report.Overhead(),
			Parallelism:        l.Config.Workers(),
		}
		ds, err := s.reg.RestoreLazy(l.ID, l.Name, l.Created, l.Config, sum, l.Tail)
		if err != nil {
			s.errorf("store: skipping dataset %s: %v", l.ID, err)
			continue
		}
		// walSeq must cover every journaled batch so new appends draw
		// fresh sequences; bufSeq stays at the snapshot watermark until
		// hydration actually replays the tail into the updater.
		ds.walSeq = walSeq
		ds.bufSeq = l.WALSeq
		s.logf("recovered dataset %s (%q): %d rows, %d pending (lazy: %d WAL batches retained)",
			ds.ID, ds.Name, sum.Rows, sum.PendingRows, len(l.Tail))
	}
	return nil
}

// hydrateLocked materializes a lazily restored dataset: read and verify
// the plaintext and buffer sections from the store, rebuild the updater
// (its result deferred, see resultLocked), and replay the retained WAL
// tail. The caller holds ds.mu, so concurrent requests
// hydrate exactly once; already-live datasets (and in-memory servers)
// return immediately. On error the dataset stays lazy and the request
// fails — a later request retries the hydration.
func (s *Server) hydrateLocked(ctx context.Context, ds *Dataset) error {
	if ds.upd != nil {
		return nil
	}
	st, err := s.st.LoadState(ctx, ds.ID)
	if err != nil {
		return fmt.Errorf("hydrating dataset %s: %w", ds.ID, err)
	}
	upd, err := core.RestoreUpdater(ds.cfg, st)
	if err != nil {
		return fmt.Errorf("hydrating dataset %s: %w", ds.ID, err)
	}
	for _, b := range ds.lazyTail {
		if err := upd.Buffer(b.Rows); err != nil {
			// A journaled batch that no longer fits the schema can only
			// mean on-disk corruption past the CRC; everything before it
			// is intact, so keep that rather than failing the dataset
			// forever — but acknowledged rows are lost, so page.
			s.errorf("store: dataset %s: dropping WAL tail from batch %d: %v", ds.ID, b.Seq, err)
			break
		}
		if b.Seq > ds.bufSeq {
			ds.bufSeq = b.Seq
		}
	}
	ds.upd = upd
	ds.lazyTail = nil
	ds.hydrated.Store(true)
	ds.refreshSummaryLocked()
	return nil
}

// resultLocked returns the dataset's latest result with its ciphertext
// and provenance in memory: the second hydration stage, which only
// readers of the ciphertext (/decrypt, /fds, /report) ask for. Appends
// and flushes stop at hydrateLocked; the first flush after a restart
// rebuilds and replaces a deferred result unread. The caller holds
// ds.mu. On error the result stays deferred and a later reader retries.
func (s *Server) resultLocked(ctx context.Context, ds *Dataset) (*core.Result, error) {
	if err := s.hydrateLocked(ctx, ds); err != nil {
		return nil, err
	}
	res, err := ds.upd.LoadResult(ctx)
	if err != nil {
		return nil, fmt.Errorf("loading dataset %s result: %w", ds.ID, err)
	}
	return res, nil
}

// Handler returns the root handler for use with http.Server or httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// Close shuts the server down in order: stop admitting appends and new
// flushes (draining), wait out background flushes already committed to
// running so their snapshots persist, then cancel the lifecycle (which
// aborts request-driven pipeline jobs) and drain the worker pool.
// Requests arriving after Close get 503-style errors rather than hanging
// or panicking.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		// Readiness drops first: a load balancer polling /readyz stops
		// routing here before the drain begins refusing work.
		s.ready.Store(false)
		s.draining.Store(true)
		s.flushWG.Wait()
		s.closeFlightRecorder()
		s.stop()
		s.pool.Close()
	})
}

// jobContext derives a pipeline-job context that cancels when either the
// request is done or the server is shutting down.
func (s *Server) jobContext(req context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(req)
	unhook := context.AfterFunc(s.lifecycle, cancel)
	return ctx, func() { unhook(); cancel() }
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Info(fmt.Sprintf(format, args...))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime":   time.Since(s.start).Round(time.Millisecond).String(),
		"datasets": s.reg.Len(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.Render(w)
}
