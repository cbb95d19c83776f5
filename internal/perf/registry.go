package perf

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// Scale parameterizes workload setup so one registry serves both smoke
// runs and full measurements.
type Scale struct {
	// SizeFactor multiplies each workload's default dataset size
	// (0 means 1.0; -quick uses 0.25).
	SizeFactor float64 `json:"sizeFactor"`
	// Seed feeds the dataset generators.
	Seed int64 `json:"seed"`
	// Parallelism is the pipeline width for workloads that don't pin
	// their own (0 = GOMAXPROCS).
	Parallelism int `json:"parallelism"`
}

// Rows applies the size factor to a workload's default row count,
// flooring at 64 so a tiny factor still exercises the pipeline.
func (s Scale) Rows(n int) int {
	f := s.SizeFactor
	if f == 0 {
		f = 1.0
	}
	r := int(float64(n) * f)
	if r < 64 {
		r = 64
	}
	return r
}

// QuickScale is the smoke-run scale: quarter-size datasets, fixed seed.
func QuickScale() Scale { return Scale{SizeFactor: 0.25, Seed: 1} }

// DefaultScale is the full measurement scale.
func DefaultScale() Scale { return Scale{SizeFactor: 1.0, Seed: 1} }

// Instance is one set-up workload, ready to run.
type Instance struct {
	// Op executes one operation. It must be safe to call from multiple
	// goroutines concurrently (unless the workload caps MaxConcurrency
	// at 1) and should honor ctx cancellation for long ops.
	Op func(ctx context.Context) error
	// RowsPerOp is how many plaintext rows one op processes; the runner
	// derives rows/sec from it. 0 disables the metric.
	RowsPerOp int
	// Metrics, when non-nil, is called once after the measured window
	// and its values land in the run result (e.g. ciphertext expansion).
	Metrics func() map[string]float64
	// Tables, when non-nil, is called once after the measured window and
	// returns the rendered result of the last op (the paper experiments'
	// tables); the run result carries them for the CLI to print.
	Tables func() []*Table
	// Cleanup, when non-nil, releases setup resources (temp dirs, test
	// servers) after the run.
	Cleanup func() error
}

// Workload is a named benchmark scenario.
type Workload struct {
	// Name identifies the workload, conventionally "<group>/<variant>",
	// e.g. "encrypt/full" or "store/recover".
	Name string
	// Desc is the one-line human description shown by f2perf -list.
	Desc string
	// Heavy marks workloads excluded from glob "*" selection (the
	// paper-experiment bridges); they run only when a glob names them
	// explicitly, e.g. -run 'paper/*'.
	Heavy bool
	// MaxConcurrency caps the runner's concurrency for ops that are not
	// concurrency-safe (0 = unlimited).
	MaxConcurrency int
	// DefaultConcurrency is used when the run config leaves concurrency
	// unset (0 = 1). Server workloads default higher to exercise the
	// request path under load.
	DefaultConcurrency int
	// OpsCap bounds the measured op count regardless of run config
	// (0 = unbounded). Workloads whose state grows per op — the
	// incremental append stream, the server append round-trip — cap
	// themselves so a long -duration cannot drift the working set far
	// from the configured scale.
	OpsCap int
	// Setup generates datasets and returns the runnable instance. The
	// context bounds setup work (initial encryptions etc.).
	Setup func(ctx context.Context, sc Scale) (*Instance, error)
}

// Registry is an ordered, name-unique collection of workloads.
type Registry struct {
	order []string
	byNam map[string]Workload
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byNam: make(map[string]Workload)}
}

// Register adds workloads, rejecting duplicates loudly: a silently
// shadowed workload would corrupt report comparisons.
func (r *Registry) Register(ws ...Workload) error {
	for _, w := range ws {
		if w.Name == "" || w.Setup == nil {
			return fmt.Errorf("perf: workload needs a name and a setup (got %q)", w.Name)
		}
		if _, dup := r.byNam[w.Name]; dup {
			return fmt.Errorf("perf: duplicate workload %q", w.Name)
		}
		r.byNam[w.Name] = w
		r.order = append(r.order, w.Name)
	}
	return nil
}

// All returns every workload in registration order.
func (r *Registry) All() []Workload {
	out := make([]Workload, 0, len(r.order))
	for _, n := range r.order {
		out = append(out, r.byNam[n])
	}
	return out
}

// Match returns the workloads whose names match the glob, in
// registration order. The glob is the shell-style subset {*, ?, literal}
// where '*' also crosses '/' (so "*" selects everything). Heavy
// workloads are skipped by the bare "*" glob and selected only when the
// pattern constrains the name (e.g. "paper/*" or an exact name).
func (r *Registry) Match(glob string) []Workload {
	var out []Workload
	for _, n := range r.order {
		w := r.byNam[n]
		if w.Heavy && glob == "*" {
			continue
		}
		if globMatch(glob, n) {
			out = append(out, w)
		}
	}
	return out
}

// Names returns the sorted workload names (for error messages).
func (r *Registry) Names() []string {
	out := append([]string(nil), r.order...)
	sort.Strings(out)
	return out
}

// globMatch reports whether name matches pattern, where '*' matches any
// (possibly empty) substring including '/' and '?' matches one rune.
// Unlike path.Match, a single '*' therefore selects every workload.
func globMatch(pattern, name string) bool {
	// Iterative wildcard match with backtracking over the last '*'.
	pi, ni := 0, 0
	star, mark := -1, 0
	for ni < len(name) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '?' || pattern[pi] == name[ni]):
			pi++
			ni++
		case pi < len(pattern) && pattern[pi] == '*':
			star, mark = pi, ni
			pi++
		case star >= 0:
			mark++
			ni = mark
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '*' {
		pi++
	}
	return pi == len(pattern)
}

// groupsCovered returns the distinct "<group>" prefixes in ws (helper
// for coverage checks and the CLI listing).
func groupsCovered(ws []Workload) []string {
	seen := map[string]bool{}
	var out []string
	for _, w := range ws {
		g := w.Name
		if i := strings.IndexByte(g, '/'); i >= 0 {
			g = g[:i]
		}
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	return out
}
