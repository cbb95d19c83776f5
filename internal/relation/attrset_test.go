package relation

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestAttrSetBasics(t *testing.T) {
	s := NewAttrSet(0, 2, 5)
	if s.Size() != 3 {
		t.Fatalf("Size = %d, want 3", s.Size())
	}
	for _, a := range []int{0, 2, 5} {
		if !s.Has(a) {
			t.Errorf("Has(%d) = false, want true", a)
		}
	}
	for _, a := range []int{1, 3, 4, 6} {
		if s.Has(a) {
			t.Errorf("Has(%d) = true, want false", a)
		}
	}
	if got := s.Attrs(); !reflect.DeepEqual(got, []int{0, 2, 5}) {
		t.Errorf("Attrs = %v, want [0 2 5]", got)
	}
	if s.Remove(2).Has(2) {
		t.Error("Remove(2) still has 2")
	}
	if s.Remove(3) != s {
		t.Error("Remove of absent element changed set")
	}
}

func TestAttrSetAlgebra(t *testing.T) {
	a := NewAttrSet(0, 1, 2)
	b := NewAttrSet(1, 2, 3)
	if got := a.Union(b); got != NewAttrSet(0, 1, 2, 3) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); got != NewAttrSet(1, 2) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Diff(b); got != NewAttrSet(0) {
		t.Errorf("Diff = %v", got)
	}
	if !NewAttrSet(1).SubsetOf(a) || a.SubsetOf(b) {
		t.Error("SubsetOf wrong")
	}
	if !NewAttrSet(1).ProperSubsetOf(a) || a.ProperSubsetOf(a) {
		t.Error("ProperSubsetOf wrong")
	}
	if !a.Overlaps(b) || a.Overlaps(NewAttrSet(4, 5)) {
		t.Error("Overlaps wrong")
	}
}

func TestFullAttrSet(t *testing.T) {
	if FullAttrSet(3) != NewAttrSet(0, 1, 2) {
		t.Errorf("FullAttrSet(3) = %v", FullAttrSet(3))
	}
	if FullAttrSet(0) != 0 {
		t.Errorf("FullAttrSet(0) = %v", FullAttrSet(0))
	}
	if FullAttrSet(64) != ^AttrSet(0) {
		t.Errorf("FullAttrSet(64) = %v", FullAttrSet(64))
	}
}

func TestImmediateSubsetsSupersets(t *testing.T) {
	s := NewAttrSet(1, 3)
	subs := s.ImmediateSubsets()
	if len(subs) != 2 {
		t.Fatalf("ImmediateSubsets len = %d", len(subs))
	}
	for _, sub := range subs {
		if sub.Size() != 1 || !sub.SubsetOf(s) {
			t.Errorf("bad immediate subset %v", sub)
		}
	}
}

func TestAttrSetString(t *testing.T) {
	if got := NewAttrSet(0, 12).String(); got != "{A0,A12}" {
		t.Errorf("String = %q", got)
	}
	if got := AttrSet(0).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
	sch := MustSchema("x", "y", "z")
	if got := NewAttrSet(0, 2).Names(sch); got != "{x,z}" {
		t.Errorf("Names = %q", got)
	}
}

// Property: set algebra laws hold for arbitrary masks.
func TestAttrSetQuickProperties(t *testing.T) {
	deMorgan := func(a, b uint64) bool {
		x, y := AttrSet(a), AttrSet(b)
		full := ^AttrSet(0)
		left := full.Diff(x.Union(y))
		right := full.Diff(x).Intersect(full.Diff(y))
		return left == right
	}
	if err := quick.Check(deMorgan, nil); err != nil {
		t.Error(err)
	}
	unionSize := func(a, b uint64) bool {
		x, y := AttrSet(a), AttrSet(b)
		return x.Union(y).Size() == x.Size()+y.Size()-x.Intersect(y).Size()
	}
	if err := quick.Check(unionSize, nil); err != nil {
		t.Error(err)
	}
	attrsRoundTrip := func(a uint64) bool {
		x := AttrSet(a)
		return NewAttrSet(x.Attrs()...) == x
	}
	if err := quick.Check(attrsRoundTrip, nil); err != nil {
		t.Error(err)
	}
	subsetMeansDiffEmpty := func(a, b uint64) bool {
		x, y := AttrSet(a), AttrSet(b)
		return x.SubsetOf(y) == x.Diff(y).IsEmpty()
	}
	if err := quick.Check(subsetMeansDiffEmpty, nil); err != nil {
		t.Error(err)
	}
}

func TestSortAttrSets(t *testing.T) {
	sets := []AttrSet{NewAttrSet(0, 1, 2), NewAttrSet(3), NewAttrSet(0, 5), NewAttrSet(1)}
	SortAttrSets(sets)
	for i := 1; i < len(sets); i++ {
		if sets[i-1].Size() > sets[i].Size() {
			t.Fatalf("not sorted by size: %v", sets)
		}
		if sets[i-1].Size() == sets[i].Size() && sets[i-1] > sets[i] {
			t.Fatalf("ties not sorted by value: %v", sets)
		}
	}
}
