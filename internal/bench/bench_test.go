package bench

import (
	"context"
	"strings"
	"testing"

	"f2/internal/perf"
)

// tinyOptions shrinks every experiment far enough for CI.
func tinyOptions() Options { return Options{Seed: 1, Scale: 0.05} }

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"col", "value"},
		Notes:  []string{"a note"},
	}
	tbl.AddRow("short", "1")
	tbl.AddRow("a-much-longer-cell", "2")
	s := tbl.String()
	for _, want := range []string{"== x: demo ==", "a-much-longer-cell", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 6 {
		t.Errorf("expected 6 lines, got %d:\n%s", len(lines), s)
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Run == nil || e.Paper == "" {
			t.Errorf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "fig6", "fig7", "fig8", "fig9", "fig10", "local", "security", "ablation", "updates"} {
		if !ids[want] {
			t.Errorf("missing experiment %q", want)
		}
	}
	workloads := PerfWorkloads()
	if len(workloads) != len(ids) {
		t.Fatalf("%d paper workloads for %d experiments", len(workloads), len(ids))
	}
	for _, w := range workloads {
		if id, ok := strings.CutPrefix(w.Name, "paper/"); !ok || !ids[id] || !w.Heavy {
			t.Errorf("workload %q (heavy=%v) does not bridge an experiment", w.Name, w.Heavy)
		}
	}
}

// TestPerfWorkloadReturnsTables: a paper/* run hands back the tables of
// its last op, which is how f2perf prints the §5 tables.
func TestPerfWorkloadReturnsTables(t *testing.T) {
	var table1 perf.Workload
	for _, w := range PerfWorkloads() {
		if w.Name == "paper/table1" {
			table1 = w
		}
	}
	res, err := perf.Run(context.Background(), table1, perf.Scale{SizeFactor: 0.2, Seed: 1}, perf.RunConfig{MaxOps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 1 || len(res.Tables) == 0 || res.Tables[0].ID != "table1" || len(res.Tables[0].Rows) == 0 {
		t.Fatalf("paper/table1 run: %d ops, tables %v", res.Ops, res.Tables)
	}
}

// TestAllExperimentsRunTiny executes every experiment end-to-end at 5%
// scale: the point is that none error and each yields at least one
// non-empty table.
func TestAllExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke run skipped in -short mode")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(context.Background(), tinyOptions())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s returned no tables", e.ID)
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("%s/%s has no rows", e.ID, tb.ID)
				}
				if len(tb.Header) == 0 {
					t.Errorf("%s/%s has no header", e.ID, tb.ID)
				}
				for _, r := range tb.Rows {
					if len(r) != len(tb.Header) {
						t.Errorf("%s/%s row width %d ≠ header width %d", e.ID, tb.ID, len(r), len(tb.Header))
					}
				}
			}
		})
	}
}

func TestOptionsScale(t *testing.T) {
	o := Options{Scale: 0.5}
	if got := o.scale(1000); got != 500 {
		t.Errorf("scale(1000) = %d", got)
	}
	if got := (Options{}).scale(1000); got != 1000 {
		t.Errorf("zero-scale default = %d", got)
	}
	if got := (Options{Scale: 0.001}).scale(1000); got != 100 {
		t.Errorf("floor = %d, want 100", got)
	}
}

func TestAlphaLabel(t *testing.T) {
	if alphaLabel(0.2) != "1/5" {
		t.Errorf("alphaLabel(0.2) = %s", alphaLabel(0.2))
	}
	if alphaLabel(1) != "1/1" {
		t.Errorf("alphaLabel(1) = %s", alphaLabel(1))
	}
	if alphaLabel(0.3) != "0.300" {
		t.Errorf("alphaLabel(0.3) = %s", alphaLabel(0.3))
	}
}
