package lint

import (
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"testing"
)

// FixtureRoot is where analyzer fixtures live, mirroring the
// analysistest testdata/src convention: one directory per analyzer,
// flagged lines annotated with
//
//	// want "regexp"
//
// (several per line allowed). A fixture line with no `want` must produce
// no diagnostic — false-positive cases are as much a part of the fixture
// as true positives. //lint:ignore suppressions apply before matching,
// so the escape hatch itself is testable.
const FixtureRoot = "testdata/src"

var (
	wantRe    = regexp.MustCompile(`//\s*want\s+(".*")\s*$`)
	wantArgRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
)

type wantEntry struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// RunFixture loads <FixtureRoot>/<fixture>, runs the analyzer over it,
// and asserts the diagnostics match the fixture's `// want` comments
// exactly: every diagnostic needs a matching want on its line, every
// want needs a diagnostic. The pass's program view holds the fixture,
// the fixture-local packages it imports, and the extra fixture packages
// named in also (callers of the fixture, which it cannot import).
func RunFixture(t *testing.T, a *Analyzer, fixture string, also ...string) {
	t.Helper()
	l := NewLoader("", FixtureRoot)
	load := func(name string) *Package {
		p, err := l.loadLocal(name, filepath.Join(FixtureRoot, filepath.FromSlash(name)))
		if err != nil {
			t.Fatalf("loading fixture %s: %v", name, err)
		}
		return p
	}
	pkg := load(fixture)
	for _, name := range also {
		load(name)
	}
	var prog []*Package
	for _, p := range l.local {
		prog = append(prog, p)
	}
	sort.Slice(prog, func(i, j int) bool { return prog[i].Path < prog[j].Path })
	diags, err := RunAnalyzer(a, pkg, prog)
	if err != nil {
		t.Fatalf("running f2vet/%s: %v", a.Name, err)
	}

	var wants []*wantEntry
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				for _, q := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
					pattern, err := strconv.Unquote(`"` + q[1] + `"`)
					if err != nil {
						t.Fatalf("%s:%d: bad want string %q: %v", pos.Filename, pos.Line, q[1], err)
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pattern, err)
					}
					wants = append(wants, &wantEntry{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}

	for _, d := range diags {
		if w := findWant(wants, d); w != nil {
			w.matched = true
			continue
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

func findWant(wants []*wantEntry, d Diagnostic) *wantEntry {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			return w
		}
	}
	return nil
}
