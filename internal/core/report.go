package core

import (
	"fmt"
	"strings"
	"time"

	"f2/internal/relation"
)

// Report captures per-step timings and artificial-record counts, matching
// the measurements of the paper's evaluation (§5.2 encryption time,
// §5.3 space overhead).
type Report struct {
	Alpha       float64
	SplitFactor int
	K           int

	MASs []relation.AttrSet

	OriginalRows  int
	EncryptedRows int

	// Step timings (paper's MAX / SSE / SYN / FP breakdown).
	TimeMAX time.Duration
	TimeSSE time.Duration
	TimeSYN time.Duration
	TimeFP  time.Duration

	// Artificial-record counts by step (paper's GROUP / SCALE / SYN / FP
	// space-overhead breakdown).
	GroupRows    int // rows materializing fake ECs (Step 2.1)
	ScaleRows    int // scale copies (Step 2.2)
	ConflictRows int // extra tuples from type-2 conflict resolution (Step 3)
	FPRows       int // artificial records from Step 4

	// Structure statistics.
	NumECGs        int
	NumECs         int
	NumFakeECs     int
	NumInstances   int
	ConflictTuples int // original tuples that triggered type-2 resolution
	FPNodes        int // maximal violated lattice nodes
	FPPatterns     int // distinct agreement patterns given a k-pair set; FPRows = 2k·FPPatterns
	FPChecks       int // Step-4 border-search predicate evaluations, summed over every RHS attribute

	// Update-path work measures, set by both the full pipeline and the
	// incremental engine so the amortization benchmarks can compare them.
	//
	// UniquenessChecks counts full-table duplicate scans performed by
	// Step-1 MAS discovery. An incremental flush performs none: it
	// replaces the lattice walk with the O(Δ·n) pair scan counted by
	// BorderProbes, each probe an O(m) row comparison rather than an
	// O(n·m) table scan.
	UniquenessChecks int
	// BorderProbes counts row-pair agreement probes performed by
	// incremental border maintenance (0 on a rebuild).
	BorderProbes int
	// ReencryptedRows counts the ciphertext rows this run produced: every
	// output row on a rebuild, only the appended/patched rows on an
	// incremental flush (the rest are carried over untouched).
	ReencryptedRows int
}

func (r *Report) addGroupStats(s groupStats) {
	r.NumECGs += s.numECGs
	r.NumECs += s.numECs
	r.NumFakeECs += s.numFakeECs
	r.NumInstances += s.numInstances
}

// TotalTime returns the end-to-end encryption time.
func (r *Report) TotalTime() time.Duration {
	return r.TimeMAX + r.TimeSSE + r.TimeSYN + r.TimeFP
}

// Overhead returns the relative space overhead (|Dˆ| - |D|) / |D|, the
// paper's §5.3 measure.
func (r *Report) Overhead() float64 {
	if r.OriginalRows == 0 {
		return 0
	}
	return float64(r.EncryptedRows-r.OriginalRows) / float64(r.OriginalRows)
}

// OverheadBy returns the per-step overhead ratio for one step's row count.
func (r *Report) OverheadBy(rows int) float64 {
	if r.OriginalRows == 0 {
		return 0
	}
	return float64(rows) / float64(r.OriginalRows)
}

// String renders a human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "F² report: α=%.4g (k=%d) ϖ=%d\n", r.Alpha, r.K, r.SplitFactor)
	fmt.Fprintf(&b, "  rows: %d original → %d encrypted (overhead %.2f%%)\n",
		r.OriginalRows, r.EncryptedRows, 100*r.Overhead())
	fmt.Fprintf(&b, "  MASs: %d", len(r.MASs))
	if len(r.MASs) > 0 {
		names := make([]string, len(r.MASs))
		for i, m := range r.MASs {
			names[i] = m.String()
		}
		fmt.Fprintf(&b, " %s", strings.Join(names, " "))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  ECs: %d in %d ECGs (%d fake), %d instances\n",
		r.NumECs, r.NumECGs, r.NumFakeECs, r.NumInstances)
	fmt.Fprintf(&b, "  time: MAX=%v SSE=%v SYN=%v FP=%v (total %v)\n",
		r.TimeMAX.Round(time.Microsecond), r.TimeSSE.Round(time.Microsecond),
		r.TimeSYN.Round(time.Microsecond), r.TimeFP.Round(time.Microsecond),
		r.TotalTime().Round(time.Microsecond))
	fmt.Fprintf(&b, "  artificial rows: GROUP=%d SCALE=%d SYN=%d (from %d tuples) FP=%d (%d nodes, %d patterns)\n",
		r.GroupRows, r.ScaleRows, r.ConflictRows, r.ConflictTuples, r.FPRows, r.FPNodes, r.FPPatterns)
	return b.String()
}
