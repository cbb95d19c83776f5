// f2served runs the F² encryption service: a long-lived HTTP/JSON process
// exposing upload+encrypt, incremental append with buffered flush,
// owner-side decryption, FD discovery on the encrypted view, and
// attack-resilience reports, with /healthz and Prometheus-style /metrics.
//
//	f2served -addr :8089 -workers 8 -parallelism 0 -data-dir /var/lib/f2served
//
// -workers bounds how many pipeline jobs run concurrently across
// datasets; -parallelism sets how many goroutines each single run fans
// out across (0 = GOMAXPROCS, 1 = the serial pipeline; the ciphertext
// is identical at every setting).
//
// With -data-dir set, datasets are durable: appends are journaled to a
// per-dataset WAL before they are acknowledged, flushes snapshot the
// dataset state (keys encrypted under a service master key), and a
// restart recovers every dataset to its last transactional state.
//
// The flight recorder is always on: /readyz readiness, the component
// health model at /v1/debug/health, runtime telemetry (f2_runtime_* on
// /metrics plus /v1/debug/runtime), and a stall watchdog that captures
// incidents under <data-dir>/incidents/. With -profile-dir set, a
// continuous profiler additionally rings CPU/heap pprof captures there
// (listed at /v1/debug/profiles). See docs/OBSERVABILITY.md.
//
// With -pprof-addr set, a SECOND listener serves net/http/pprof
// (/debug/pprof/...) so the perf harness and operators can profile a
// live server. It is off by default and must never be exposed publicly:
// profiles leak memory contents and the endpoint invites trivial DoS.
// Bind it to localhost (e.g. -pprof-addr 127.0.0.1:6060) and keep it
// firewalled.
//
// See docs/API.md for the endpoint reference and the top-level README.md
// for a quickstart and the operations guide.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"f2/internal/server"
	"f2/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":8089", "listen address")
		workers     = flag.Int("workers", 0, "pipeline worker pool size (default: GOMAXPROCS)")
		parallelism = flag.Int("parallelism", 0, "workers per pipeline run (0: GOMAXPROCS, 1: serial); output is identical at every setting")
		maxBody     = flag.Int64("max-body", 32<<20, "maximum request body bytes")
		maxPending  = flag.Int64("max-pending", 0, "per-dataset ingest queue bound in bytes before appends get 429 (0: 64 MiB default, negative: unlimited)")
		trials      = flag.Int("trials", 1000, "trial count /report echoes when the request sets none (the attack verdict is exact)")
		dataDir     = flag.String("data-dir", "", "durable dataset store directory (empty: in-memory only)")
		chunkRows   = flag.Int("chunk-rows", 0, "rows per snapshot chunk (0: store default); smaller chunks dedup better across rotations, larger ones hydrate faster")
		pprofAddr   = flag.String("pprof-addr", "", "OPT-IN net/http/pprof listener (e.g. 127.0.0.1:6060); unsafe to expose publicly, keep it off or loopback-bound")
		profileDir  = flag.String("profile-dir", "", "OPT-IN continuous profiler: periodic CPU windows + heap profiles into a bounded ring in this directory (empty: off)")
		slowReq     = flag.String("slow-request", "", "auto-retain requests slower than this as incidents, e.g. 30s (empty: 30s default, 'off' disables)")
		logText     = flag.Bool("log-text", false, "log human-readable text instead of JSON lines")
		quiet       = flag.Bool("q", false, "suppress request logs")
	)
	flag.Parse()

	// Structured logs by default: one JSON record per request carrying the
	// trace id and per-stage timings (pipe through jq to slice them).
	var handler slog.Handler = slog.NewJSONHandler(os.Stderr, nil)
	if *logText {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)
	opts := server.Options{
		Workers:         *workers,
		Parallelism:     *parallelism,
		MaxBodyBytes:    *maxBody,
		MaxPendingBytes: *maxPending,
		AttackTrials:    *trials,
		Logger:          logger,
		ProfileDir:      *profileDir,
	}
	switch *slowReq {
	case "":
	case "off":
		opts.SlowRequestThreshold = -1
	default:
		thr, err := time.ParseDuration(*slowReq)
		if err != nil || thr <= 0 {
			logger.Error("bad -slow-request (want a positive duration or 'off')", "value", *slowReq)
			os.Exit(2)
		}
		opts.SlowRequestThreshold = thr
	}
	if *quiet {
		opts.Logger = nil
	}
	if *dataDir != "" {
		st, err := store.OpenOptions(*dataDir, store.Options{ChunkRows: *chunkRows})
		if err != nil {
			logger.Error("opening durable store", "error", err)
			os.Exit(1)
		}
		defer st.Close()
		opts.Store = st
		logger.Info("durable store open", "dir", st.Dir())
	}
	srv, err := server.New(opts)
	if err != nil {
		logger.Error("starting server", "error", err)
		os.Exit(1)
	}
	defer srv.Close()

	if *pprofAddr != "" {
		// A dedicated mux on a dedicated listener: the profiling surface
		// never shares a port with the API, so firewalling the API port
		// open cannot accidentally expose /debug/pprof. The bind happens
		// synchronously, before the API starts serving — an operator who
		// asked for profiling should learn about a bad address or an
		// occupied port at startup, not at incident time, and a late
		// failure must not tear down an already-serving API.
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofLn, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			logger.Error("pprof listener", "error", err)
			os.Exit(1)
		}
		pprofSrv := &http.Server{Handler: pprofMux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("pprof listening (do NOT expose publicly)", "addr", pprofLn.Addr().String())
			if err := pprofSrv.Serve(pprofLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener", "error", err)
			}
		}()
		defer pprofSrv.Close()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Error("shutdown", "error", err)
		}
	}()

	logger.Info("listening", "addr", *addr)
	err = httpSrv.ListenAndServe()
	// ListenAndServe returns the moment Shutdown is called; wait for the
	// drain to finish before the deferred pool.Close, so in-flight
	// handlers keep their workers until they complete.
	stop()
	<-shutdownDone
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve", "error", err)
		os.Exit(1)
	}
}
