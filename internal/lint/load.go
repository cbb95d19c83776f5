package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages without golang.org/x/tools: the
// syntax comes from go/parser, the types of imported packages from the
// compiler's export data, located by shelling out to `go list -export`.
// The go command compiles (or reuses from the build cache) every
// dependency and reports the export file path; go/importer's gc importer
// reads it back. A Loader is not safe for concurrent use.
type Loader struct {
	fset *token.FileSet
	// listDir is the working directory for `go list` (the module root, or
	// "" for the current directory).
	listDir string
	// localRoot, when non-empty, is a fixture tree root (testdata/src):
	// import paths that exist as directories under it are type-checked
	// from source instead of resolved through export data.
	localRoot string

	exports map[string]string   // import path -> export data file
	checked map[string]*Package // memoized module packages
	local   map[string]*Package // memoized fixture-local packages
	loading map[string]bool     // fixture-local cycle guard
	gc      types.ImporterFrom
}

// NewLoader returns a loader running `go list` in listDir ("" = cwd).
// localRoot optionally names a fixture source tree (see Loader doc).
func NewLoader(listDir, localRoot string) *Loader {
	l := &Loader{
		fset:      token.NewFileSet(),
		listDir:   listDir,
		localRoot: localRoot,
		exports:   make(map[string]string),
		checked:   make(map[string]*Package),
		local:     make(map[string]*Package),
		loading:   make(map[string]bool),
	}
	l.gc = importer.ForCompiler(l.fset, "gc", l.lookupExport).(types.ImporterFrom)
	return l
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Main bool }
	GoFiles    []string
	Error      *struct{ Err string }
}

// goList runs `go list -e -export -json -deps args...` and merges every
// reported export file into the loader's map, returning the decoded
// package records.
func (l *Loader) goList(args ...string) ([]listPkg, error) {
	cmdArgs := append([]string{
		"list", "-e", "-export",
		"-json=ImportPath,Name,Dir,Export,Standard,DepOnly,Module,GoFiles,Error",
		"-deps",
	}, args...)
	cmd := exec.Command("go", cmdArgs...)
	cmd.Dir = l.listDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// lookupExport feeds the gc importer. A miss triggers one on-demand
// `go list` for the path (fixture files import packages the initial
// listing never saw).
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	if _, ok := l.exports[path]; !ok {
		if _, err := l.goList(path); err != nil {
			return nil, err
		}
	}
	file, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: fixture-local directories
// first, export data for everything else.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if l.localRoot != "" {
		local := filepath.Join(l.localRoot, filepath.FromSlash(path))
		if st, err := os.Stat(local); err == nil && st.IsDir() {
			pkg, err := l.loadLocal(path, local)
			if err != nil {
				return nil, err
			}
			return pkg.Types, nil
		}
	}
	return l.gc.ImportFrom(path, dir, mode)
}

// loadLocal type-checks a fixture-local package from source.
func (l *Loader) loadLocal(path, dir string) (*Package, error) {
	if pkg, ok := l.local[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	files, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	pkg, err := l.check(path, dir, files)
	if err != nil {
		return nil, err
	}
	l.local[path] = pkg
	return pkg, nil
}

// goFilesIn lists the non-test .go files of one directory, sorted.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, name)
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return files, nil
}

// check parses and type-checks one package given its file names relative
// to dir.
func (l *Loader) check(path, dir string, fileNames []string) (*Package, error) {
	var astFiles []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		astFiles = append(astFiles, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, l.fset, astFiles, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: l.fset, Files: astFiles, Types: tpkg, Info: info}, nil
}

// LoadModule loads every non-test package of the main module matching
// the patterns ("all" is the whole module) — dependencies are resolved
// through export data but not analyzed. Packages are type-checked once
// per loader, so a second call shares the first one's objects. The tree
// must compile; a build error surfaces here, exactly like `go vet`.
func (l *Loader) LoadModule(patterns ...string) ([]*Package, error) {
	listed, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, p := range listed {
		if p.Standard || p.DepOnly {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("loading %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Module == nil || !p.Module.Main || len(p.GoFiles) == 0 {
			continue
		}
		pkg, ok := l.checked[p.ImportPath]
		if !ok {
			if pkg, err = l.check(p.ImportPath, p.Dir, p.GoFiles); err != nil {
				return nil, err
			}
			l.checked[p.ImportPath] = pkg
		}
		out = append(out, pkg)
	}
	return out, nil
}
