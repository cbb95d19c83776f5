package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks
// the program's output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload at a tiny scale with 1 s windows, once
// untraced and once traced, and checks that each prints every metric
// BENCHMARK.json lists, with its unit, and passes the output oracle.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	units := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range spec.EndToEnd {
		units["0"][m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		units["1"][m.Name] = m.Unit
	}

	for _, trace := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		code := run(context.Background(), []string{
			"--workload", "all", "--seed", "3", "--seconds", "1", "--trace", trace,
			"--scale", "0.05", "--data", t.TempDir(),
		}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s\n%s", trace, code, errOut.String(), out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var verdict struct {
			Correct   bool                       `json:"correct"`
			Attempted int                        `json:"attempted"`
			Failed    int                        `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &verdict); err != nil {
			t.Fatalf("trace %s: last line is not the verdict: %v", trace, err)
		}
		if !verdict.Correct || verdict.Failed != 0 || verdict.Attempted == 0 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d\n%s", trace, verdict.Correct, verdict.Attempted, verdict.Failed, errOut.String())
		}
		printed := map[string]string{}
		for _, l := range lines[:len(lines)-1] {
			f := strings.Fields(l)
			if strings.HasPrefix(l, "#") || len(f) != 4 || f[1] == "ops" || f[1] == "failed_ops" {
				continue
			}
			if !metricName.MatchString(f[1]) {
				t.Errorf("trace %s: metric name %q", trace, f[1])
			}
			printed[f[0]+" "+f[1]] = f[3]
		}
		for _, w := range workloads {
			for name, unit := range units[trace] {
				if !metricName.MatchString(name) {
					t.Errorf("BENCHMARK.json metric name %q", name)
				}
				if got, ok := printed[w.name+" "+name]; !ok || got != unit {
					t.Errorf("trace %s: %s %s printed with unit %q, BENCHMARK.json says %q", trace, w.name, name, got, unit)
				}
				if _, ok := verdict.Metrics[w.name+"."+name]; !ok {
					t.Errorf("trace %s: %s.%s missing from the verdict", trace, w.name, name)
				}
			}
		}
		if want := len(workloads) * len(units[trace]); len(printed) != want {
			t.Errorf("trace %s: %d metrics printed, BENCHMARK.json lists %d", trace, len(printed), want)
		}
	}
}
