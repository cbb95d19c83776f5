package relation

import (
	"math/bits"
	"sort"
	"strings"
)

// MaxAttrs is the maximum number of attributes a Table may have. AttrSet is
// a 64-bit bitset, so schemas are limited to 64 columns; the paper's widest
// dataset (Customer) has 21.
const MaxAttrs = 64

// AttrSet is a set of attribute indices represented as a bitset. The zero
// value is the empty set. AttrSet values are comparable and can be used as
// map keys.
type AttrSet uint64

// NewAttrSet returns the set containing the given attribute indices.
func NewAttrSet(attrs ...int) AttrSet {
	var s AttrSet
	for _, a := range attrs {
		s = s.Add(a)
	}
	return s
}

// SingleAttr returns the singleton set {a}.
func SingleAttr(a int) AttrSet { return 1 << uint(a) }

// FullAttrSet returns the set {0, 1, ..., m-1}.
func FullAttrSet(m int) AttrSet {
	if m >= MaxAttrs {
		return ^AttrSet(0)
	}
	return (1 << uint(m)) - 1
}

// Add returns s ∪ {a}.
func (s AttrSet) Add(a int) AttrSet { return s | 1<<uint(a) }

// Remove returns s ∖ {a}.
func (s AttrSet) Remove(a int) AttrSet { return s &^ (1 << uint(a)) }

// Has reports whether a ∈ s.
func (s AttrSet) Has(a int) bool { return s&(1<<uint(a)) != 0 }

// Union returns s ∪ t.
func (s AttrSet) Union(t AttrSet) AttrSet { return s | t }

// Intersect returns s ∩ t.
func (s AttrSet) Intersect(t AttrSet) AttrSet { return s & t }

// Diff returns s ∖ t.
func (s AttrSet) Diff(t AttrSet) AttrSet { return s &^ t }

// IsEmpty reports whether s is the empty set.
func (s AttrSet) IsEmpty() bool { return s == 0 }

// Size returns |s|.
func (s AttrSet) Size() int { return bits.OnesCount64(uint64(s)) }

// SubsetOf reports whether s ⊆ t.
func (s AttrSet) SubsetOf(t AttrSet) bool { return s&^t == 0 }

// ProperSubsetOf reports whether s ⊂ t.
func (s AttrSet) ProperSubsetOf(t AttrSet) bool { return s != t && s.SubsetOf(t) }

// Overlaps reports whether s ∩ t ≠ ∅.
func (s AttrSet) Overlaps(t AttrSet) bool { return s&t != 0 }

// Attrs returns the attribute indices in s in ascending order.
func (s AttrSet) Attrs() []int {
	out := make([]int, 0, s.Size())
	for v := uint64(s); v != 0; {
		a := bits.TrailingZeros64(v)
		out = append(out, a)
		v &= v - 1
	}
	return out
}

// First returns the smallest attribute index in s, or -1 if s is empty.
func (s AttrSet) First() int {
	if s == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(s))
}

// ImmediateSubsets returns the subsets of s of size |s|-1.
func (s AttrSet) ImmediateSubsets() []AttrSet {
	attrs := s.Attrs()
	out := make([]AttrSet, 0, len(attrs))
	for _, a := range attrs {
		out = append(out, s.Remove(a))
	}
	return out
}

// String renders the set as "{A0,A3}" style using generic column names.
func (s AttrSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range s.Attrs() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('A')
		writeInt(&b, a)
	}
	b.WriteByte('}')
	return b.String()
}

// Names renders the set using the column names of sch.
func (s AttrSet) Names(sch *Schema) string {
	names := make([]string, 0, s.Size())
	for _, a := range s.Attrs() {
		names = append(names, sch.Name(a))
	}
	return "{" + strings.Join(names, ",") + "}"
}

// SortAttrSets sorts sets by ascending size, then by numeric value. Useful
// for deterministic output.
func SortAttrSets(sets []AttrSet) {
	sort.Slice(sets, func(i, j int) bool {
		si, sj := sets[i].Size(), sets[j].Size()
		if si != sj {
			return si < sj
		}
		return sets[i] < sets[j]
	})
}

func writeInt(b *strings.Builder, v int) {
	if v >= 10 {
		writeInt(b, v/10)
	}
	b.WriteByte(byte('0' + v%10))
}
