// Package lint houses f2vet, the repository's static-analysis suite: a
// set of custom analyzers that machine-check invariants the documentation
// can only state — ciphertext determinism at any parallelism width, the
// fsync-before-ack durability contract, span hygiene, lock discipline,
// context propagation, and an internal/ API with no test-only exports.
// Each analyzer encodes the invariant behind a bug this repo actually
// shipped (or a contract a future change could silently break);
// docs/STATIC_ANALYSIS.md is the catalogue.
//
// The package mirrors the golang.org/x/tools/go/analysis shape —
// Analyzer, Pass, Diagnostic, testdata fixtures with `// want` comments —
// but is built on the standard library alone (go/ast, go/types, and
// export data obtained from `go list -export`), because the build
// environment is offline and the module is deliberately dependency-free.
// If x/tools ever becomes available, each Analyzer.Run ports over as-is.
//
// Diagnostics can be silenced case-by-case with
//
//	//lint:ignore f2vet/<name> <reason>
//
// placed on, or on the line immediately above, the flagged line. The
// reason is mandatory; an ignore directive without one does not suppress.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// Analyzer is one named check. Run inspects a single type-checked package
// and reports findings through the Pass.
type Analyzer struct {
	// Name is the short analyzer id; diagnostics render as f2vet/<Name>.
	Name string
	// Doc is the one-paragraph description shown by `f2vet -list`.
	Doc string
	// Match restricts the analyzer to package import paths it applies to;
	// nil means every package. The fixture harness bypasses Match.
	Match func(pkgPath string) bool
	// Run performs the analysis.
	Run func(pass *Pass) error
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Program is every package the loader loaded, this one included.
	// Analyzers read it to see references from other packages; it must
	// not be modified.
	Program []*Package

	diags []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [f2vet/%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// RunAnalyzer applies a to one loaded package, with prog as the pass's
// view of the whole program, and returns the surviving diagnostics:
// findings minus those silenced by //lint:ignore directives, sorted by
// position. Match is not consulted — callers scope packages.
func RunAnalyzer(a *Analyzer, pkg *Package, prog []*Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Program:  prog,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("f2vet/%s on %s: %w", a.Name, pkg.Path, err)
	}
	diags := suppress(a.Name, pkg, pass.diags)
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := diags[i].Pos, diags[j].Pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags, nil
}

// ignoreRe matches the suppression directive: //lint:ignore f2vet/<name>
// followed by a mandatory free-text reason.
var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+f2vet/([a-z]+)\s+\S`)

// suppress filters diags through the package's //lint:ignore directives.
// A directive silences diagnostics of its named analyzer on its own line
// and on the line directly below it (the usual "comment above the
// statement" placement).
func suppress(name string, pkg *Package, diags []Diagnostic) []Diagnostic {
	type key struct {
		file string
		line int
	}
	ignored := make(map[key]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil || m[1] != name {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				ignored[key{pos.Filename, pos.Line}] = true
				ignored[key{pos.Filename, pos.Line + 1}] = true
			}
		}
	}
	if len(ignored) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		if !ignored[key{d.Pos.Filename, d.Pos.Line}] {
			kept = append(kept, d)
		}
	}
	return kept
}
