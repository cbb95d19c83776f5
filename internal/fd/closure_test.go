package fd

import (
	"testing"

	"f2/internal/relation"
)

func TestClosure(t *testing.T) {
	// A→B, B→C: {A}⁺ = {A,B,C}.
	fds := NewSet(
		FD{LHS: relation.NewAttrSet(0), RHS: 1},
		FD{LHS: relation.NewAttrSet(1), RHS: 2},
	)
	got := Closure(fds, relation.NewAttrSet(0))
	if got != relation.NewAttrSet(0, 1, 2) {
		t.Fatalf("closure = %v", got)
	}
	if got := Closure(fds, relation.NewAttrSet(2)); got != relation.NewAttrSet(2) {
		t.Fatalf("closure of sink = %v", got)
	}
	if !Implies(fds, FD{LHS: relation.NewAttrSet(0), RHS: 2}) {
		t.Error("A→C not implied")
	}
	if Implies(fds, FD{LHS: relation.NewAttrSet(2), RHS: 0}) {
		t.Error("C→A implied")
	}
}
