// Package verify addresses the second future-work item of the paper's §7:
// a *malicious* (rather than curious-but-honest) server might cheat on the
// dependency-discovery results it returns. The data owner — who by
// assumption never computed her own FDs — can still check the server's
// claim cheaply:
//
//   - soundness is exact and cheap: validating one claimed FD against the
//     plaintext is a single linear scan, versus the exponential lattice
//     walk of discovery;
//   - completeness is checked exhaustively on the low-arity lattice
//     neighbourhood (every one- and two-attribute LHS) and spot-checked
//     probabilistically above it: candidate dependencies are sampled from
//     the data's own agreement structure (agreement sets of random row
//     pairs), and any holding dependency the claim fails to imply is a
//     counterexample.
//
// A cheating server that fabricates an FD, or omits one whose LHS has at
// most two attributes, is always caught; one that omits a wider FD is
// caught with probability growing in the number of probes.
package verify

import (
	"math/rand"

	"f2/internal/fd"
	"f2/internal/partition"
	"f2/internal/relation"
)

// Verdict is the outcome of checking a server's claimed FD set.
type Verdict struct {
	// Sound is false if some claimed FD does not hold on the data.
	Sound bool
	// FalseClaims lists claimed FDs that fail on the data.
	FalseClaims []fd.FD
	// Probes counts the completeness checks performed.
	Probes int
	// Missed lists holding dependencies not implied by the claim
	// (evidence of an incomplete answer).
	Missed []fd.FD
}

// OK reports whether the claim passed every check.
func (v *Verdict) OK() bool {
	return v.Sound && len(v.Missed) == 0
}

// CheckWitnessedClaims validates the FD set a server returned for the
// owner's plaintext table, probing every one- and two-attribute LHS and
// `probes` random agreement samples for completeness. The claim is
// expected to cover every *witnessed* FD — the set F² preserves exactly
// (Theorem 3.7), and what f2served's /fds endpoint computes — so
// soundness and the completeness probes both test fd.Witnessed:
// vacuously-true dependencies (unique LHS) are out of scope of the claim,
// and flagging them as missing would be spurious.
func CheckWitnessedClaims(t *relation.Table, claimed *fd.Set, probes int, seed int64) *Verdict {
	v := &Verdict{Sound: true}
	// One cache answers every check: each LHS's stripped partition is
	// built from a cached subset's and answers every RHS on it.
	plis := partition.NewCache(relation.Encode(t))
	// Soundness: every claimed FD must be witnessed. Exact.
	for _, f := range claimed.Slice() {
		if !fd.Witnessed(plis, f) {
			v.Sound = false
			v.FalseClaims = append(v.FalseClaims, f)
		}
	}

	// Completeness probes.
	rng := rand.New(rand.NewSource(seed))
	m := t.NumAttrs()
	n := t.NumRows()
	seen := make(map[fd.FD]bool)
	probe := func(f fd.FD) {
		if f.Trivial() || f.LHS.IsEmpty() || seen[f] {
			return
		}
		seen[f] = true
		v.Probes++
		if fd.Witnessed(plis, f) && !fd.Implies(claimed, f) {
			v.Missed = append(v.Missed, f)
		}
	}

	// (a) Every dependency with a one- or two-attribute LHS: the most
	// common kinds of rule, and cheap — a pair's partition is one product
	// away from a column's. A random subset of a random pair's agreement
	// set rarely lands on a given pair, so without this an omitted
	// {A,B}→C would mostly go unseen.
	for a := 0; a < m; a++ {
		for b := a; b < m; b++ {
			lhs := relation.NewAttrSet(a, b)
			for r := 0; r < m; r++ {
				probe(fd.FD{LHS: lhs, RHS: r})
			}
		}
	}
	// (b) Agreement-guided random probes: the agreement set of a random
	// row pair is exactly a maximal candidate LHS that the data itself
	// witnesses; a random subset of it makes a sharp LHS, probed with
	// every RHS, since its partition answers them all.
	for i := 0; i < probes && n >= 2; i++ {
		r1, r2 := rng.Intn(n), rng.Intn(n)
		if r1 == r2 {
			continue
		}
		var agree relation.AttrSet
		for a := 0; a < m; a++ {
			if t.Cell(r1, a) == t.Cell(r2, a) {
				agree = agree.Add(a)
			}
		}
		if agree.IsEmpty() {
			continue
		}
		// Random non-empty subset of the agreement set as LHS.
		attrs := agree.Attrs()
		var lhs relation.AttrSet
		for _, a := range attrs {
			if rng.Intn(2) == 0 {
				lhs = lhs.Add(a)
			}
		}
		if lhs.IsEmpty() {
			lhs = relation.SingleAttr(attrs[rng.Intn(len(attrs))])
		}
		for r := 0; r < m; r++ {
			probe(fd.FD{LHS: lhs, RHS: r})
		}
	}
	return v
}
