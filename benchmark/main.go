// Command benchmark is f2served's end-to-end benchmark. It boots the
// service in-process over a durable store on a loopback listener, drives
// one workload through the HTTP API with at most two connections, checks
// every output against a plaintext model, and prints each metric as
//
//	<workload> <metric> <value> <unit>
//
// followed, as the last line, by one JSON object with the run's verdict
// and metrics. See README.md for the workloads and metrics.
//
// Usage (from the repository root, which run.sh builds it from):
//
//	bash benchmark/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the workload
// twice on fresh set-ups, half the window each — untraced, then traced —
// and reports the per-layer metrics instead.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// deadline bounds a whole run: a run that cannot finish in time fails
// instead of hanging.
const deadline = 170 * time.Second

// An untraced run sets the program up at least minSetups times, then
// until it has maxSetups or setupBudget of set-up time, and reports the
// median as setup_s: a cheap set-up is dominated by a few fsyncs, whose
// latency on a virtual disk varies widely.
const (
	minSetups   = 3
	maxSetups   = 7
	setupBudget = 4 * time.Second
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is one workload run's result.
type outcome struct {
	metrics           []metric
	attempted, failed int
	mismatch          error
	note              string // printed as a comment before the metrics
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+workloadNames()+", or all")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 20, "measured window per run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	data := fs.String("data", ".bench_build", "directory under which each run keeps the program's state (removed at exit)")
	scale := fs.Float64("scale", 1, "shrink the tables by this factor (smoke tests only; metrics are defined at 1)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *scale <= 0 || *scale > 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: want --workload W --seed N --seconds S --trace 0|1")
		return 2
	}
	var selected []workloadSpec
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want %s or all)\n", *name, workloadNames())
		return 2
	}
	if err := os.MkdirAll(*data, 0o700); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	root, err := os.MkdirTemp(*data, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(root)
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	fmt.Fprintln(stdout, envStamp(root))
	verdict := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: true, Metrics: map[string]map[string]any{}}
	for _, w := range selected {
		fmt.Fprintf(stdout, "# %s: %s\n#   primary = %s; secondary = %s\n", w.name, w.why, w.primary, w.secondary)
		p := fullParams(*seed, time.Duration(*seconds*float64(time.Second)))
		p.scale(*scale)
		o, err := runWorkload(ctx, w, p, *trace == 1, filepath.Join(root, w.name))
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if o.note != "" {
			fmt.Fprintln(stdout, o.note)
		}
		for _, m := range o.metrics {
			fmt.Fprintf(stdout, "%s %s %.6g %s\n", w.name, m.name, m.value, m.unit)
			key := m.name
			if len(selected) > 1 {
				key = w.name + "." + m.name
			}
			verdict.Metrics[key] = map[string]any{"value": jsonNumber(m.value), "unit": m.unit}
		}
		fmt.Fprintf(stdout, "%s ops %d count\n%s failed_ops %d count\n", w.name, o.attempted, w.name, o.failed)
		if o.mismatch != nil {
			fmt.Fprintf(stderr, "benchmark: %s: output check failed: %v\n", w.name, o.mismatch)
			verdict.Correct = false
		}
		verdict.Attempted += o.attempted
		verdict.Failed += o.failed
	}
	line, err := json.Marshal(verdict)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !verdict.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload: set-up, the measured window and the
// output checks. Untraced, it returns the end-to-end metrics; traced, the
// per-layer ones.
func runWorkload(ctx context.Context, w workloadSpec, p *params, traced bool, dir string) (*outcome, error) {
	b, err := w.new(p)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	// setup brings up a fresh program, repeat times or as the set-up
	// policy above says when repeat is 0, and returns the median set-up
	// time; all but the last set-up are torn down again.
	n := 0
	setup := func(repeat int) (float64, error) {
		var times []float64
		var spent time.Duration
		for {
			sub := filepath.Join(dir, fmt.Sprint(n))
			n++
			start := time.Now()
			if err := b.setup(ctx, sub); err != nil {
				return 0, errors.Join(fmt.Errorf("set-up: %w", err), b.teardown())
			}
			d := time.Since(start)
			spent += d
			times = append(times, d.Seconds())
			if k := len(times); k == repeat || repeat == 0 && k >= minSetups && (k == maxSetups || spent >= setupBudget) {
				return median(times), nil
			}
			if err := b.teardown(); err != nil {
				return 0, err
			}
			if err := os.RemoveAll(sub); err != nil {
				return 0, err
			}
		}
	}
	measure := func(window time.Duration, tr *tracer) (*pass, error) {
		ps, err := b.measure(ctx, window, tr)
		if terr := b.teardown(); err == nil {
			err = terr
		}
		return ps, err
	}

	if !traced {
		setupS, err := setup(0)
		if err != nil {
			return nil, err
		}
		ps, err := measure(p.window, nil)
		if err != nil {
			return nil, err
		}
		// p80 needs 50 samples to leave 10 beyond it; say what the
		// window's sample counts support.
		note := fmt.Sprintf("# %s samples: primary %d (supports p%g), secondary %d",
			w.name, len(ps.primary), 100*supportedTail(len(ps.primary)), len(ps.secondary))
		return &outcome{metrics: endToEnd(setupS, ps), attempted: ps.attempted, failed: ps.failed, mismatch: ps.mismatch, note: note}, nil
	}

	if _, err := setup(1); err != nil {
		return nil, err
	}
	plain, err := measure(p.window/2, nil)
	if err != nil {
		return nil, err
	}
	if _, err := setup(1); err != nil {
		return nil, err
	}
	tr := newTracer()
	ps, err := measure(p.window/2, tr)
	if err != nil {
		return nil, err
	}
	if err := b.probe(ctx, tr); err != nil {
		return nil, err
	}
	base := quantile(plain.primary.sorted(), 0.5)
	in := &layerInput{
		tr:          tr,
		ps:          ps,
		overheadPct: 100 * (quantile(ps.primary.sorted(), 0.5) - base) / base,
	}
	var layers []metric
	for _, l := range layerMetrics {
		layers = append(layers, metric{l.name, l.value(in), l.unit})
	}
	return &outcome{
		metrics:   layers,
		attempted: plain.attempted + ps.attempted,
		failed:    plain.failed + ps.failed,
		mismatch:  errors.Join(plain.mismatch, ps.mismatch),
	}, nil
}

// endToEnd derives the end-to-end metrics of an untraced pass.
func endToEnd(setupS float64, ps *pass) []metric {
	prim := ps.primary.sorted()
	return []metric{
		{"setup_s", setupS, "s"},
		{"primary_p50_ms", quantile(prim, 0.5), "ms"},
		{"primary_p80_ms", quantile(prim, 0.8), "ms"},
		{"secondary_p50_ms", quantile(ps.secondary.sorted(), 0.5), "ms"},
		{"ciphertext_expansion", ps.expansion, "ratio"},
		{"disk_bytes_per_user_byte", ps.diskRatio, "ratio"},
	}
}

// jsonNumber makes a value encodable: a latency series whose percentile
// lands on a failed operation reads +Inf, which JSON cannot carry.
func jsonNumber(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// envStamp names what the numbers were measured on.
func envStamp(dataDir string) string {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("# env nproc=%d gomaxprocs=%d go=%s fs=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(dataDir), commit)
}
