// Command f2perf drives the perf harness (internal/perf): it runs named
// workloads under the measuring runner, optionally captures pprof
// profiles and runtime samples, writes a machine-readable BENCH_<name>.json
// report, and diffs two reports as a CI perf gate.
//
// Measure:
//
//	f2perf -quick                         # smoke run, writes BENCH_quick.json
//	f2perf -run 'encrypt/*' -duration 5s  # one group, longer window
//	f2perf -run 'paper/*'                 # the paper's §5 tables, printed per experiment
//	f2perf -run paper/fig9 -scale 4       # one experiment at full size
//	f2perf -profile cpu,heap -out results # with profiler capture
//	f2perf -quick -profile-dir profs      # continuous profiler running alongside
//	f2perf -profiler-overhead -quick      # amortized-overhead gate for the above
//	f2perf -list                          # list workloads
//
// Compare (exits 1 when a latency quantile or throughput metric of any
// shared workload regressed by strictly more than -threshold percent):
//
//	f2perf -compare old.json new.json -threshold 10
//
// See docs/BENCHMARKING.md for the concepts and how to read reports.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"f2/internal/bench"
	"f2/internal/obs"
	"f2/internal/perf"
)

func main() {
	var (
		list        = flag.Bool("list", false, "list workloads and exit")
		runGlob     = flag.String("run", "*", "workload glob ('*' crosses '/'; heavy paper/* workloads need an explicit glob)")
		quick       = flag.Bool("quick", false, "smoke run: quarter-scale datasets, short windows, report name 'quick'")
		name        = flag.String("name", "", "report name (BENCH_<name>.json; default 'full', or 'quick' with -quick)")
		out         = flag.String("out", ".", "output directory for the report and profiles")
		profileStr  = flag.String("profile", "", "comma-separated profiles to capture: cpu,heap,allocs")
		duration    = flag.Duration("duration", 0, "measured window per workload (default 4s, or 1500ms with -quick)")
		warmup      = flag.Int("warmup", 1, "warmup ops per workload (not measured)")
		maxOps      = flag.Int("max-ops", 0, "op-count bound per workload (0: duration-bound)")
		concurrency = flag.Int("concurrency", 0, "runner goroutines per workload (0: workload default)")
		scaleFactor = flag.Float64("scale", 0, "dataset size multiplier (0: 1.0, or 0.25 with -quick)")
		seed        = flag.Int64("seed", 1, "workload generator seed")
		parallelism = flag.Int("parallelism", 0, "pipeline width for width-unpinned workloads (0: GOMAXPROCS)")
		compare     = flag.Bool("compare", false, "compare two reports: f2perf -compare old.json new.json [-threshold N]")
		threshold   = flag.Float64("threshold", 10, "regression threshold in percent for -compare")
		stages      = flag.Bool("stages", true, "trace every measured op and record per-stage breakdowns in the report")
		traceOvh    = flag.Bool("trace-overhead", false, "measure tracing overhead (interleaved traced vs untraced encrypts) and gate on -overhead-budget")
		profOvh     = flag.Bool("profiler-overhead", false, "measure continuous-profiler overhead (interleaved profiled vs unprofiled encrypts, amortized by -profiler-duty) and gate on -overhead-budget")
		profDir     = flag.String("profile-dir", "", "run the continuous profiler (f2served's -profile-dir subsystem) for the whole suite, capturing CPU windows + heap profiles into this directory")
		profDuty    = flag.Float64("profiler-duty", 0, "duty cycle (cpu-window/interval fraction) to amortize -profiler-overhead by (0: profiler defaults, 5s/60s)")
		ovhBudget   = flag.Float64("overhead-budget", 2, "max acceptable overhead in percent for -trace-overhead / -profiler-overhead")
		ovhRounds   = flag.Int("overhead-rounds", 9, "A/B rounds for -trace-overhead / -profiler-overhead (odd; min 3)")
	)
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args(), *threshold))
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "f2perf: unexpected arguments %q (did you mean -compare?)\n", flag.Args())
		os.Exit(2)
	}

	reg := registry()
	if *list {
		for _, w := range reg.All() {
			heavy := ""
			if w.Heavy {
				heavy = " [heavy: needs explicit glob]"
			}
			fmt.Printf("%-28s %s%s\n", w.Name, w.Desc, heavy)
		}
		return
	}

	sc := perf.DefaultScale()
	reportName := "full"
	runFor := 4 * time.Second
	if *quick {
		sc = perf.QuickScale()
		reportName = "quick"
		runFor = 1500 * time.Millisecond
	}
	if *scaleFactor > 0 {
		sc.SizeFactor = *scaleFactor
	}
	sc.Seed = *seed
	sc.Parallelism = *parallelism
	if *name != "" {
		reportName = *name
	}
	if *duration > 0 {
		runFor = *duration
	}

	kinds, err := perf.ParseProfileKinds(*profileStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "f2perf: %v\n", err)
		os.Exit(2)
	}
	var prof *perf.ProfileConfig
	if len(kinds) > 0 {
		prof = &perf.ProfileConfig{
			Kinds:       kinds,
			Dir:         filepath.Join(*out, "profiles"),
			SampleEvery: 100 * time.Millisecond,
		}
	}

	selected := reg.Match(*runGlob)
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "f2perf: no workload matches %q; known: %v\n", *runGlob, reg.Names())
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *traceOvh {
		os.Exit(runTraceOverhead(ctx, sc, *ovhRounds, *ovhBudget))
	}
	if *profOvh {
		os.Exit(runProfilerOverhead(ctx, sc, *ovhRounds, *profDuty, *ovhBudget))
	}

	if *profDir != "" {
		// The same capture loop f2served runs behind -profile-dir, on a
		// cycle short enough that a quick suite still lands several CPU
		// windows and heap profiles. This is the capture smoke — proof the
		// profiler produces usable artifacts under benchmark load; the
		// overhead gate is -profiler-overhead, whose interleaved A/B rounds
		// are the only way a ≤2% budget is measurable.
		cp, err := obs.StartContinuousProfiler(obs.ProfilerConfig{
			Dir:       *profDir,
			Interval:  5 * time.Second,
			CPUWindow: 500 * time.Millisecond,
			OnError: func(err error) {
				// Contention over the CPU sampler (-profile cpu runs its own
				// windows) skips a window; worth a note, never fatal.
				fmt.Fprintf(os.Stderr, "f2perf: continuous profiler: %v\n", err)
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "f2perf: starting continuous profiler: %v\n", err)
			os.Exit(2)
		}
		defer cp.Stop()
	}

	report := perf.NewReport(reportName, sc)
	start := time.Now()
	for _, w := range selected {
		rc := perf.RunConfig{
			Concurrency: *concurrency,
			WarmupOps:   *warmup,
			Duration:    runFor,
			MaxOps:      *maxOps,
			Profile:     prof,
			Stages:      *stages,
		}
		res, err := perf.Run(ctx, w, sc, rc)
		if res != nil {
			report.Runs = append(report.Runs, *res)
			fmt.Println(res.Summary())
			for _, t := range res.Tables {
				fmt.Println(t.String())
			}
		}
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "f2perf: interrupted; writing partial report")
				break
			}
			fmt.Fprintf(os.Stderr, "f2perf: %v\n", err)
			os.Exit(1)
		}
	}
	path, err := report.Write(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "f2perf: writing report: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%d workloads in %v -> %s\n",
		len(report.Runs), time.Since(start).Round(time.Millisecond), path)
	if ctx.Err() != nil {
		os.Exit(1)
	}
}

// registry assembles the full workload set: the standard pipeline
// workloads plus the paper experiments bridged from internal/bench.
func registry() *perf.Registry {
	reg := perf.DefaultWorkloads()
	if err := reg.Register(bench.PerfWorkloads()...); err != nil {
		fmt.Fprintf(os.Stderr, "f2perf: registering paper experiments: %v\n", err)
		os.Exit(2)
	}
	return reg
}

// runTraceOverhead implements the tracing-overhead gate: interleaved
// traced/untraced encrypt rounds in one process, failing when the traced
// median exceeds the untraced one by more than the budget. Exit 0 = within
// budget, 1 = over budget, 2 = could not measure.
func runTraceOverhead(ctx context.Context, sc perf.Scale, rounds int, budgetPct float64) int {
	res, err := perf.TraceOverhead(ctx, sc, rounds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "f2perf: trace overhead: %v\n", err)
		return 2
	}
	fmt.Println(res)
	if !res.Within(budgetPct) {
		fmt.Fprintf(os.Stderr, "f2perf: tracing overhead %.2f%% exceeds the %.2f%% budget\n",
			res.OverheadPct, budgetPct)
		return 1
	}
	return 0
}

// runProfilerOverhead implements the continuous-profiler overhead gate:
// interleaved profiled/unprofiled encrypt rounds in one process, failing
// when the duty-cycle-amortized overhead exceeds the budget. Exit 0 =
// within budget, 1 = over budget, 2 = could not measure.
func runProfilerOverhead(ctx context.Context, sc perf.Scale, rounds int, duty, budgetPct float64) int {
	res, err := perf.ProfilerOverhead(ctx, sc, rounds, duty)
	if err != nil {
		fmt.Fprintf(os.Stderr, "f2perf: profiler overhead: %v\n", err)
		return 2
	}
	fmt.Println(res)
	if !res.Within(budgetPct) {
		fmt.Fprintf(os.Stderr, "f2perf: amortized profiler overhead %.2f%% exceeds the %.2f%% budget\n",
			res.AmortizedPct, budgetPct)
		return 1
	}
	return 0
}

// runCompare implements the gate mode. args may carry trailing flags
// (e.g. `f2perf -compare old.json new.json -threshold 10`): flag.Parse
// stops at the first positional, so the tail is re-parsed here.
func runCompare(args []string, threshold float64) int {
	if len(args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: f2perf -compare old.json new.json [-threshold N]")
		return 2
	}
	oldPath, newPath := args[0], args[1]
	if rest := args[2:]; len(rest) > 0 {
		fs := flag.NewFlagSet("compare", flag.ContinueOnError)
		fs.Float64Var(&threshold, "threshold", threshold, "regression threshold in percent")
		if err := fs.Parse(rest); err != nil {
			return 2
		}
		if fs.NArg() > 0 {
			fmt.Fprintf(os.Stderr, "f2perf: unexpected arguments %q after -compare files\n", fs.Args())
			return 2
		}
	}
	oldRep, err := perf.ReadReport(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "f2perf: %v\n", err)
		return 2
	}
	newRep, err := perf.ReadReport(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "f2perf: %v\n", err)
		return 2
	}
	cmp := perf.Compare(oldRep, newRep, threshold)
	fmt.Print(cmp.Render(oldRep, newRep))
	if !cmp.OK() {
		return 1
	}
	return 0
}
