// Package verify addresses the second future-work item of the paper's §7:
// a *malicious* (rather than curious-but-honest) server might cheat on the
// dependency-discovery results it returns. The data owner — who by
// assumption never computed her own FDs — can still check the server's
// claim cheaply:
//
//   - soundness is exact and cheap: validating one claimed FD against the
//     plaintext is a single linear scan, versus the exponential lattice
//     walk of discovery;
//   - completeness is spot-checked probabilistically: candidate
//     dependencies are sampled from the data's own agreement structure
//     (agreement sets of random row pairs, and the low-arity lattice
//     neighbourhood) and any holding dependency the claim fails to imply
//     is a counterexample.
//
// A cheating server that fabricates an FD is always caught; one that
// omits FDs is caught with probability growing in the number of probes.
package verify

import (
	"math/rand"

	"f2/internal/fd"
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

// CheckClaims validates the server-returned FD set against the owner's
// plaintext table with `probes` completeness samples. The claim is
// expected to cover every *holding* dependency (fd.Discover's contract).
func CheckClaims(t *relation.Table, claimed *fd.Set, probes int, seed int64) *Verdict {
	return checkClaimsWith(t, claimed, probes, seed, fd.Holds)
}

// CheckWitnessedClaims is CheckClaims for a server that returns the
// *witnessed* FDs of the outsourced table — the set F² preserves exactly
// (Theorem 3.7), and what f2served's /fds endpoint computes. Soundness
// and the completeness probes both test fd.Witnessed instead of fd.Holds:
// vacuously-true dependencies (unique LHS) are out of scope of a
// witnessed claim, so flagging them as missing would be spurious.
func CheckWitnessedClaims(t *relation.Table, claimed *fd.Set, probes int, seed int64) *Verdict {
	return checkClaimsWith(t, claimed, probes, seed, fd.Witnessed)
}

// checkClaimsWith runs the soundness scan and completeness probing with
// `valid` as the notion of a dependency the claim must cover.
func checkClaimsWith(t *relation.Table, claimed *fd.Set, probes int, seed int64, valid func(*relation.Coded, fd.FD) bool) *Verdict {
	v := &Verdict{Sound: true}
	c := relation.Encode(t)
	// Soundness: every claimed FD must be valid. Exact.
	for _, f := range claimed.Slice() {
		if !valid(c, f) {
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
		if valid(c, f) && !fd.Implies(claimed, f) {
			v.Missed = append(v.Missed, f)
		}
	}

	// (a) Every single-attribute dependency: cheap and the most common
	// kind of rule.
	for a := 0; a < m && m > 1; a++ {
		for b := 0; b < m; b++ {
			if a != b {
				probe(fd.FD{LHS: relation.SingleAttr(a), RHS: b})
			}
		}
	}
	// (b) Agreement-guided random probes: the agreement set of a random
	// row pair is exactly a maximal candidate LHS that the data itself
	// witnesses; a random subset of it plus a random RHS makes a sharp
	// probe.
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
		probe(fd.FD{LHS: lhs, RHS: rng.Intn(m)})
	}
	return v
}

// CheckAgainstDiscovery is the expensive gold check used in tests and
// audits: rediscover the FDs locally and compare covers exactly. Returns
// (missing-from-claim, fabricated-in-claim).
func CheckAgainstDiscovery(t *relation.Table, claimed *fd.Set) (missing, fabricated []fd.FD) {
	truth := fd.Discover(t)
	for _, f := range truth.Slice() {
		if !fd.Implies(claimed, f) {
			missing = append(missing, f)
		}
	}
	for _, f := range claimed.Slice() {
		if !fd.Implies(truth, f) {
			fabricated = append(fabricated, f)
		}
	}
	return missing, fabricated
}
