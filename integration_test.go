package f2_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"f2/internal/relation"
	"f2/internal/workload"
)

// TestCLIRoundTrip exercises the shipped binaries end to end:
// f2gen → f2encrypt → fddiscover (on ciphertext) → f2decrypt, checking
// that the recovered CSV equals the generated one and that the discovered
// rule count matches plaintext discovery.
func TestCLIRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	dir := t.TempDir()
	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("go", append([]string{"run"}, args...)...)
		cmd.Dir = "."
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go run %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	plainCSV := filepath.Join(dir, "plain.csv")
	encCSV := filepath.Join(dir, "enc.csv")
	keyFile := filepath.Join(dir, "key.hex")
	provFile := filepath.Join(dir, "prov.json")
	outCSV := filepath.Join(dir, "recovered.csv")

	// 1. Generate a small synthetic dataset.
	out := run("./cmd/f2gen", "-dataset", "synthetic", "-rows", "2000", "-seed", "3", "-out", plainCSV)
	if !strings.Contains(out, "2000 rows") {
		t.Fatalf("f2gen output: %s", out)
	}

	// 2. Encrypt with provenance.
	out = run("./cmd/f2encrypt", "-in", plainCSV, "-out", encCSV,
		"-keyout", keyFile, "-prov", provFile, "-alpha", "0.25")
	if !strings.Contains(out, "F² report") {
		t.Fatalf("f2encrypt output: %s", out)
	}
	if fi, err := os.Stat(keyFile); err != nil || fi.Size() == 0 {
		t.Fatalf("key file missing: %v", err)
	}

	// 3. Server-side discovery runs on the ciphertext CSV.
	out = run("./cmd/fddiscover", "-in", encCSV, "-witnessed")
	if !strings.Contains(out, "minimal FDs") {
		t.Fatalf("fddiscover output: %s", out)
	}
	cipherHeader := strings.SplitN(out, "\n", 2)[0]

	plainOut := run("./cmd/fddiscover", "-in", plainCSV, "-witnessed")
	plainHeader := strings.SplitN(plainOut, "\n", 2)[0]
	// "N minimal FDs (...)" — the counts must agree.
	cipherCount := strings.Fields(cipherHeader)[0]
	plainCount := strings.Fields(plainHeader)[0]
	if cipherCount != plainCount {
		t.Fatalf("FD counts differ: ciphertext %s vs plaintext %s", cipherCount, plainCount)
	}

	// 4. MAS discovery works on ciphertext too.
	out = run("./cmd/fddiscover", "-in", encCSV, "-mas")
	if !strings.Contains(out, "maximal attribute sets") {
		t.Fatalf("fddiscover -mas output: %s", out)
	}

	// 5. Decrypt with provenance: exact recovery.
	out = run("./cmd/f2decrypt", "-in", encCSV, "-out", outCSV, "-key", keyFile, "-prov", provFile)
	if !strings.Contains(out, "recovered 2000 rows") {
		t.Fatalf("f2decrypt output: %s", out)
	}
	want, err := relation.ReadCSVFile(plainCSV)
	if err != nil {
		t.Fatal(err)
	}
	got, err := relation.ReadCSVFile(outCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.SortedRows(), want.SortedRows()) {
		t.Fatal("recovered CSV differs from the original")
	}
}

// TestF2PerfPaperTableSmoke regenerates one §5 table through the CLI:
// a paper/* run prints the tables of its experiment after the run line.
func TestF2PerfPaperTableSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	cmd := exec.Command("go", "run", "./cmd/f2perf", "-run", "paper/table1", "-warmup", "0", "-max-ops", "1", "-out", t.TempDir())
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("f2perf: %v\n%s", err, out)
	}
	for _, want := range append([]string{"== table1: "}, workload.Names()...) {
		if !strings.Contains(string(out), want) {
			t.Fatalf("f2perf output missing %q:\n%s", want, out)
		}
	}
}

// TestExamplesRun smoke-runs every example binary; each validates its own
// claims internally (FD preservation, attack bounds, recovery) and exits
// non-zero on failure.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	for _, example := range []string{"quickstart", "datacleaning", "schemarefine", "attacksim"} {
		example := example
		t.Run(example, func(t *testing.T) {
			cmd := exec.Command("go", "run", "./examples/"+example)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", example, err, out)
			}
			if len(out) == 0 {
				t.Fatalf("example %s produced no output", example)
			}
		})
	}
}
