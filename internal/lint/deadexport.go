package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Deadexport keeps internal/ free of exported code that only tests call.
// An exported function or method of an internal package can only be
// reached from the module itself, so one that no loaded non-test package
// references — its own package included, its own body excluded — is dead
// weight that tests keep compiling. The analyzer needs the whole program
// in view (f2vet loads the whole module whatever the patterns):
// references come from every package in Pass.Program, matched by package
// path, receiver and name, because an imported package's objects come
// from export data and are not the objects its own type-check created.
//
// A method is exempt when its receiver type implements an interface that
// has a method of that name (String, Error, MarshalJSON, Import, ...):
// the call is dynamic, through the interface, and never names the method.
// The interfaces considered are those written anywhere in the loaded
// packages and those declared in the packages they import. Anything else
// that must stay — a caller in another module, a reference oracle for
// several packages' tests — takes a //lint:ignore with the reason.
var Deadexport = &Analyzer{
	Name: "deadexport",
	Doc: "flag exported functions and methods in internal/ that no non-test package references\n" +
		"An export only tests call is code the program carries for nothing; delete it or move it into the tests.",
	Match: func(pkgPath string) bool {
		return strings.HasPrefix(pkgPath, "internal/") || strings.Contains(pkgPath, "/internal/")
	},
	Run: runDeadexport,
}

func runDeadexport(pass *Pass) error {
	type candidate struct {
		decl *ast.FuncDecl
		fn   *types.Func
	}
	cands := make(map[string]candidate)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || !decl.Name.IsExported() {
				continue
			}
			fn, ok := pass.Info.Defs[decl.Name].(*types.Func)
			if !ok {
				continue
			}
			cands[funcKey(fn)] = candidate{decl, fn}
		}
	}
	if len(cands) == 0 {
		return nil
	}

	used := make(map[string]bool)
	for _, pkg := range pass.Program {
		own := pkg.Path == pass.Pkg.Path()
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pass.Pkg.Path() {
				continue
			}
			key := funcKey(fn)
			if c, ok := cands[key]; ok && own && within(id.Pos(), c.decl) {
				continue // recursion is not a caller
			}
			used[key] = true
		}
	}

	var ifaces []*types.Interface
	for key, c := range cands {
		if used[key] {
			continue
		}
		if recv := recvNamed(c.fn); recv != nil {
			if ifaces == nil {
				ifaces = interfaceUniverse(pass.Program)
			}
			if satisfiesInterface(recv, c.fn.Name(), ifaces) {
				continue
			}
		}
		pass.Reportf(c.decl.Name.Pos(), "%s is exported but referenced only by tests or not at all; delete it or move it into the tests", displayName(c.fn))
	}
	return nil
}

// funcKey names a function or method by package path, receiver type and
// name: stable across export data and source type-checks, and shared by
// every instantiation of a generic.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if recv := recvNamed(fn); recv != nil {
		return fn.Pkg().Path() + "." + recv.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

func displayName(fn *types.Func) string {
	if recv := recvNamed(fn); recv != nil {
		return recv.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

func within(pos token.Pos, n ast.Node) bool {
	return n.Pos() <= pos && pos < n.End()
}

// interfaceUniverse collects every non-empty interface the program can
// name: interface types written in the loaded packages (named or
// literal, at any scope) and interface types declared in the packages
// they import, transitively.
func interfaceUniverse(prog []*Package) []*types.Interface {
	seen := make(map[*types.Interface]bool)
	var out []*types.Interface
	add := func(t types.Type) {
		if t == nil {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	visited := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range prog {
		for _, tv := range pkg.Info.Types {
			add(tv.Type)
		}
		for _, obj := range pkg.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		visit(pkg.Types)
	}
	return out
}

// satisfiesInterface reports whether T or *T implements some interface
// in ifaces that has a method called name.
func satisfiesInterface(recv *types.Named, name string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(recv)
	for _, it := range ifaces {
		if !hasMethod(it, name) {
			continue
		}
		if types.Implements(recv, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}
