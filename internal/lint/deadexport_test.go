package lint

import (
	"strings"
	"testing"
)

func TestDeadexport(t *testing.T) {
	RunFixture(t, Deadexport, "deadexport", "deadexport/user")
}

// TestDeadexportMatchesAcrossExportData runs on two real packages. core
// sees crypt through export data, so its crypt objects are not the ones
// crypt's own type-check created: core's call of Kernel.SealInstance,
// which nothing in crypt calls, must still count, matched by package
// path, receiver and name.
func TestDeadexportMatchesAcrossExportData(t *testing.T) {
	pkgs, err := NewLoader("", "").LoadModule("f2/internal/crypt", "f2/internal/core")
	if err != nil {
		t.Fatal(err)
	}
	var crypt *Package
	for _, p := range pkgs {
		if p.Path == "f2/internal/crypt" {
			crypt = p
		}
	}
	flagged := func(prog []*Package) map[string]bool {
		diags, err := RunAnalyzer(Deadexport, crypt, prog)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]bool)
		for _, d := range diags {
			name, _, _ := strings.Cut(d.Message, " ")
			out[name] = true
		}
		return out
	}
	if !flagged([]*Package{crypt})["Kernel.SealInstance"] {
		t.Error("Kernel.SealInstance not flagged with crypt alone in view")
	}
	if flagged(pkgs)["Kernel.SealInstance"] {
		t.Error("Kernel.SealInstance flagged although core calls it")
	}
}
