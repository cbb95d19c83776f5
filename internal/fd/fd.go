// Package fd provides functional-dependency machinery: the FD type, FD-set
// algebra, validity checks, a faithful TANE implementation (Huhtala et al.,
// The Computer Journal 1999) for FD discovery, and an exponential
// brute-force oracle used to cross-check TANE in tests. FD discovery is the
// server-side workload that F² must keep intact on encrypted data.
//
// The load-bearing distinction is *witnessed* FDs: X→Y is witnessed when
// it holds AND some row pair actually agrees on X (it does not hold
// merely vacuously). F²'s preservation guarantee (Theorem 3.7) is about
// witnessed dependencies — DiscoverWitnessed on the ciphertext must
// equal DiscoverWitnessed on the plaintext — and the encryptor's
// MinInstanceFreq floor exists precisely to keep witnesses alive.
// Discovery is read-only and safe to run concurrently on one table.
package fd

import (
	"fmt"
	"sort"
	"strings"

	"f2/internal/partition"
	"f2/internal/relation"
)

// FD is a functional dependency LHS → RHS with a single right-hand-side
// attribute (WLOG, per §2.2 of the paper: multi-attribute RHSs decompose).
type FD struct {
	LHS relation.AttrSet
	RHS int
}

// String renders the FD with generic attribute names.
func (f FD) String() string {
	return fmt.Sprintf("%s->A%d", f.LHS, f.RHS)
}

// Names renders the FD using schema column names.
func (f FD) Names(sch *relation.Schema) string {
	return f.LHS.Names(sch) + "->" + sch.Name(f.RHS)
}

// Trivial reports whether RHS ∈ LHS.
func (f FD) Trivial() bool { return f.LHS.Has(f.RHS) }

// Holds reports whether the FD is valid on the table plis partitions: any
// two rows agreeing on LHS agree on RHS. An FD with a unique
// (duplicate-free) LHS holds vacuously. Callers testing many FDs share one
// cache, so LHS partitions are built from each other's.
func Holds(plis *partition.Cache, f FD) bool {
	if f.Trivial() {
		return true
	}
	return plis.Get(f.LHS).RefinesAttr(plis.Coded().Column(f.RHS))
}

// Witnessed reports whether the FD both holds on the table plis
// partitions and has at least one witnessing pair: two distinct rows
// agreeing on LHS. Vacuously-true FDs (unique LHS) hold but are not
// witnessed; see docs/DESIGN.md for why F²'s preservation guarantees are
// stated over witnessed FDs.
func Witnessed(plis *partition.Cache, f FD) bool {
	if f.Trivial() {
		return false
	}
	s := plis.Get(f.LHS)
	return s.HasDuplicate() && s.RefinesAttr(plis.Coded().Column(f.RHS))
}

// Set is a canonical collection of FDs with set semantics.
type Set struct {
	fds map[FD]struct{}
}

// NewSet builds a Set from the given FDs.
func NewSet(fds ...FD) *Set {
	s := &Set{fds: make(map[FD]struct{}, len(fds))}
	for _, f := range fds {
		s.Add(f)
	}
	return s
}

// Add inserts an FD.
func (s *Set) Add(f FD) { s.fds[f] = struct{}{} }

// Has reports membership.
func (s *Set) Has(f FD) bool {
	_, ok := s.fds[f]
	return ok
}

// Len returns the number of FDs.
func (s *Set) Len() int { return len(s.fds) }

// Slice returns the FDs in deterministic order (by RHS, then LHS size, then
// LHS value).
func (s *Set) Slice() []FD {
	out := make([]FD, 0, len(s.fds))
	for f := range s.fds {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RHS != out[j].RHS {
			return out[i].RHS < out[j].RHS
		}
		if out[i].LHS.Size() != out[j].LHS.Size() {
			return out[i].LHS.Size() < out[j].LHS.Size()
		}
		return out[i].LHS < out[j].LHS
	})
	return out
}

// Equal reports whether two sets contain exactly the same FDs.
func (s *Set) Equal(o *Set) bool {
	if s.Len() != o.Len() {
		return false
	}
	for f := range s.fds {
		if !o.Has(f) {
			return false
		}
	}
	return true
}

// String renders the set with generic names.
func (s *Set) String() string {
	parts := make([]string, 0, s.Len())
	for _, f := range s.Slice() {
		parts = append(parts, f.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
