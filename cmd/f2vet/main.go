// f2vet is the repository's static-analysis suite: a multichecker of
// custom analyzers that enforce the pipeline's documented invariants —
// ciphertext determinism, fsync-before-ack durability, span hygiene,
// lock discipline, context propagation, no test-only exports in
// internal/ — at build time. CI runs it as a required job;
// docs/STATIC_ANALYSIS.md is the analyzer catalogue.
//
// Usage:
//
//	go run ./cmd/f2vet [flags] [package patterns]
//
// With no patterns it checks the whole module. Patterns choose the
// packages reported on; every analyzer still sees the whole module
// (deadexport needs every caller in view). Exit status: 0 clean,
// 1 findings, 2 operational failure (the tree must compile, like go vet).
//
// Findings are suppressed case-by-case with
//
//	//lint:ignore f2vet/<analyzer> <reason>
//
// on or directly above the flagged line; the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"f2/internal/lint"
)

func main() {
	var (
		only    = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		list    = flag.Bool("list", false, "list analyzers and exit")
		verbose = flag.Bool("v", false, "report per-analyzer package counts")
	)
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("f2vet/%-12s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}
	if *only != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fatalf("unknown analyzer %q (try -list)", name)
			}
			analyzers = append(analyzers, a)
		}
	}

	loader := lint.NewLoader("", "")
	prog, err := loader.LoadModule("all")
	if err != nil {
		fatalf("%v", err)
	}
	pkgs := prog
	if flag.NArg() > 0 {
		if pkgs, err = loader.LoadModule(flag.Args()...); err != nil {
			fatalf("%v", err)
		}
	}

	findings := 0
	for _, a := range analyzers {
		checked := 0
		for _, pkg := range pkgs {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			checked++
			diags, err := lint.RunAnalyzer(a, pkg, prog)
			if err != nil {
				fatalf("%v", err)
			}
			for _, d := range diags {
				fmt.Println(d)
				findings++
			}
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "f2vet/%s: %d package(s)\n", a.Name, checked)
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "f2vet: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "f2vet: "+format+"\n", args...)
	os.Exit(2)
}
