package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"f2/internal/fd"
	"f2/internal/partition"
	"f2/internal/relation"
)

// appendStreamTable builds a base table with rich MAS structure: three
// attribute groups with small domains (duplicates everywhere) plus an
// always-unique ID column, so the MASs never cover the full schema.
func appendStreamTable(rng *rand.Rand, rows int) *relation.Table {
	tbl := relation.NewTable(relation.MustSchema("A", "B", "C", "D", "ID"))
	for i := 0; i < rows; i++ {
		tbl.AppendRow(streamRow(rng, i))
	}
	return tbl
}

func streamRow(rng *rand.Rand, id int) []string {
	return []string{
		fmt.Sprintf("a%d", rng.Intn(4)),
		fmt.Sprintf("b%d", rng.Intn(3)),
		fmt.Sprintf("c%d", rng.Intn(4)),
		fmt.Sprintf("d%d", rng.Intn(3)),
		fmt.Sprintf("id%d", id),
	}
}

// borderStableRow synthesizes an append that provably keeps the MAS
// border: it copies an existing row of a size-≥2 equivalence class over
// one MAS and takes globally fresh values elsewhere. Every agreement set
// it realizes is contained in an agreement set two existing rows already
// realize, hence inside an existing MAS.
func borderStableRow(t *relation.Table, mas relation.AttrSet, rng *rand.Rand, serial int) []string {
	row := make([]string, t.NumAttrs())
	for a := range row {
		row[a] = fmt.Sprintf("fresh-%d-%d", serial, a)
	}
	p := partition.Of(t, mas)
	classes := p.NonSingletonClasses()
	if len(classes) > 0 {
		src := classes[rng.Intn(len(classes))].Rows[0]
		for _, a := range mas.Attrs() {
			row[a] = t.Cell(src, a)
		}
	}
	return row
}

// checkFrequencyFlatness asserts the attacker-visible invariant on one
// encrypted table: within every attribute, every frequency class with
// f ≥ 2 holds at least k distinct ciphertexts.
func checkFrequencyFlatness(t *testing.T, enc *relation.Table, k int, label string) {
	t.Helper()
	for a := 0; a < enc.NumAttrs(); a++ {
		byCount := map[int]int{}
		for _, f := range enc.Freq(a) {
			if f > 1 {
				byCount[f]++
			}
		}
		for f, vals := range byCount {
			if vals < k {
				t.Errorf("%s: attr %d has %d ciphertexts at frequency %d (< k=%d)", label, a, vals, f, k)
			}
		}
	}
}

// TestIncrementalMatchesRebuildOnAppendStream is the equivalence property
// test of the incremental update engine: two updaters over the same
// initial table — one incremental, one forced-rebuild — consume the same
// randomized append stream, and after every flush both ciphertexts must
// witness exactly the plaintext's witnessed FDs, recover the plaintext
// exactly, and satisfy the frequency-hiding invariant. The stream mixes
// border-stable appends (which the incremental engine must serve without
// a rebuild) with border-moving ones (full-row duplicates, fresh
// projections) that exercise the fallback.
func TestIncrementalMatchesRebuildOnAppendStream(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := appendStreamTable(rng, 120)
	cfg := testConfig(0.5)

	inc, _, err := NewUpdater(context.Background(), cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	reb, _, err := NewUpdater(context.Background(), cfg, base.Clone())
	if err != nil {
		t.Fatal(err)
	}
	reb.Strategy = UpdateRebuild

	serial := 0
	for flush := 0; flush < 6; flush++ {
		var batch [][]string
		for i := 0; i < 8; i++ {
			serial++
			var row []string
			switch roll := rng.Intn(10); {
			case roll < 5 && len(inc.Result().MASs) > 0:
				m := inc.Result().MASs[rng.Intn(len(inc.Result().MASs))]
				row = borderStableRow(inc.Current(), m, rng, serial)
			case roll < 7:
				// Same distribution as the base: may join classes, promote
				// singletons, or merge MASs.
				row = streamRow(rng, 10000+serial)
			case roll < 9:
				// Exact duplicate of an existing row: makes the full
				// attribute set non-unique, guaranteeing a border change.
				row = inc.Current().Row(rng.Intn(inc.Current().NumRows()))
			default:
				row = borderStableRow(inc.Current(), 0, rng, serial) // all fresh
			}
			batch = append(batch, row)
		}
		if err := inc.Buffer(batch); err != nil {
			t.Fatal(err)
		}
		if err := reb.Buffer(batch); err != nil {
			t.Fatal(err)
		}
		incRes, err := inc.Flush(context.Background())
		if err != nil {
			t.Fatalf("flush %d (incremental): %v", flush, err)
		}
		rebRes, err := reb.Flush(context.Background())
		if err != nil {
			t.Fatalf("flush %d (rebuild): %v", flush, err)
		}

		if !reflect.DeepEqual(inc.Current().SortedRows(), reb.Current().SortedRows()) {
			t.Fatalf("flush %d: plaintext copies diverged", flush)
		}
		plainFDs := fd.DiscoverWitnessed(inc.Current())
		incFDs := fd.DiscoverWitnessed(incRes.Encrypted)
		rebFDs := fd.DiscoverWitnessed(rebRes.Encrypted)
		if !plainFDs.Equal(incFDs) {
			t.Fatalf("flush %d (%s): incremental ciphertext FDs %v ≠ plaintext %v",
				flush, inc.LastFlush, incFDs, plainFDs)
		}
		if !plainFDs.Equal(rebFDs) {
			t.Fatalf("flush %d: rebuild ciphertext FDs %v ≠ plaintext %v", flush, rebFDs, plainFDs)
		}
		if !reflect.DeepEqual(incRes.MASs, rebRes.MASs) {
			t.Fatalf("flush %d: MASs differ: %v vs %v", flush, incRes.MASs, rebRes.MASs)
		}

		dec, err := NewDecryptor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		back, err := dec.Recover(context.Background(), incRes)
		if err != nil {
			t.Fatalf("flush %d: recovering incremental result: %v", flush, err)
		}
		if !reflect.DeepEqual(back.SortedRows(), inc.Current().SortedRows()) {
			t.Fatalf("flush %d: incremental result does not recover the plaintext", flush)
		}

		checkFrequencyFlatness(t, incRes.Encrypted, cfg.K(), fmt.Sprintf("flush %d incremental", flush))
		checkFrequencyFlatness(t, rebRes.Encrypted, cfg.K(), fmt.Sprintf("flush %d rebuild", flush))

		// Provenance accounting must stay exact after patching.
		if len(incRes.Origins) != incRes.Encrypted.NumRows() {
			t.Fatalf("flush %d: %d origins for %d rows", flush, len(incRes.Origins), incRes.Encrypted.NumRows())
		}
		wantRows := inc.Rows() + incRes.Report.ConflictRows + incRes.Report.ScaleRows +
			incRes.Report.GroupRows + incRes.Report.FPRows
		if incRes.Encrypted.NumRows() != wantRows {
			t.Fatalf("flush %d: row accounting %d ≠ %d", flush, incRes.Encrypted.NumRows(), wantRows)
		}
	}

	if inc.IncrementalFlushes == 0 {
		t.Error("stream never took the incremental path")
	}
	if inc.Rebuilds < 2 {
		t.Error("stream never exercised the rebuild fallback")
	}
	t.Logf("flushes: %d incremental, %d rebuilds (incl. initial)", inc.IncrementalFlushes, inc.Rebuilds)
}

// TestIncrementalOnlyStreamNeverRebuilds pins the acceptance criterion:
// a stream of provably border-stable appends is served entirely by the
// incremental engine, with strictly less Step-1 and re-encryption work
// than the rebuild path does for the same rows.
func TestIncrementalOnlyStreamNeverRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := appendStreamTable(rng, 150)
	cfg := testConfig(0.5)

	inc, initial, err := NewUpdater(context.Background(), cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	reb, _, err := NewUpdater(context.Background(), cfg, base.Clone())
	if err != nil {
		t.Fatal(err)
	}
	reb.Strategy = UpdateRebuild
	if len(initial.MASs) == 0 {
		t.Fatal("base table has no MASs; stream cannot exercise grouped appends")
	}

	serial := 0
	for flush := 0; flush < 4; flush++ {
		var batch [][]string
		for i := 0; i < 6; i++ {
			serial++
			m := initial.MASs[rng.Intn(len(initial.MASs))]
			batch = append(batch, borderStableRow(inc.Current(), m, rng, serial))
		}
		if err := inc.Buffer(batch); err != nil {
			t.Fatal(err)
		}
		if err := reb.Buffer(batch); err != nil {
			t.Fatal(err)
		}
		incRes, err := inc.Flush(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rebRes, err := reb.Flush(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if inc.LastFlush != FlushModeIncremental {
			t.Fatalf("flush %d fell back to %q on a border-stable batch", flush, inc.LastFlush)
		}
		if incRes.Report.UniquenessChecks != 0 || rebRes.Report.UniquenessChecks == 0 {
			t.Errorf("flush %d: incremental did %d full-table uniqueness checks, rebuild %d — incremental must do none",
				flush, incRes.Report.UniquenessChecks, rebRes.Report.UniquenessChecks)
		}
		if incRes.Report.BorderProbes == 0 {
			t.Errorf("flush %d: incremental recorded no border probes", flush)
		}
		if incRes.Report.ReencryptedRows >= rebRes.Report.ReencryptedRows {
			t.Errorf("flush %d: incremental re-encrypted %d rows, rebuild %d — no reuse",
				flush, incRes.Report.ReencryptedRows, rebRes.Report.ReencryptedRows)
		}
		want := fd.DiscoverWitnessed(inc.Current())
		if got := fd.DiscoverWitnessed(incRes.Encrypted); !want.Equal(got) {
			t.Fatalf("flush %d: FDs diverged: %v vs %v", flush, got, want)
		}
	}
	if inc.Rebuilds != 1 {
		t.Fatalf("border-stable stream triggered %d rebuilds", inc.Rebuilds-1)
	}
}

// TestIncrementalFlushDeterministic: like the full pipeline, the
// incremental engine must map one key and one append stream to exactly
// one ciphertext table — patch emission and Step-4 template selection
// iterate in sorted order, not map order.
func TestIncrementalFlushDeterministic(t *testing.T) {
	// A 5×5 grid: rows i share (A,B) iff i ≡ j (mod 5) and (C,D) iff
	// i/5 == j/5, never both — so the MASs are exactly {A,B} and {C,D}
	// and every flush below grows ECGs in two different plans.
	grid := func() *relation.Table {
		tbl := relation.NewTable(relation.MustSchema("A", "B", "C", "D", "ID"))
		for i := 0; i < 25; i++ {
			tbl.AppendRow([]string{
				fmt.Sprintf("a%d", i%5), fmt.Sprintf("b%d", i%5),
				fmt.Sprintf("c%d", i/5), fmt.Sprintf("d%d", i/5),
				fmt.Sprintf("id%d", i),
			})
		}
		return tbl
	}
	run := func() *relation.Table {
		rng := rand.New(rand.NewSource(13))
		base := grid()
		u, res0, err := NewUpdater(context.Background(), testConfig(0.5), base)
		if err != nil {
			t.Fatal(err)
		}
		if len(res0.MASs) < 2 {
			t.Fatalf("want ≥ 2 MASs to touch several ECGs per flush, got %v", res0.MASs)
		}
		serial := 0
		for flush := 0; flush < 2; flush++ {
			var batch [][]string
			for i := 0; i < 6; i++ {
				serial++
				m := res0.MASs[serial%len(res0.MASs)]
				batch = append(batch, borderStableRow(u.Current(), m, rng, serial))
			}
			if err := u.Buffer(batch); err != nil {
				t.Fatal(err)
			}
			if _, err := u.Flush(context.Background()); err != nil {
				t.Fatal(err)
			}
			if u.LastFlush != FlushModeIncremental {
				t.Fatalf("flush %d took %q", flush, u.LastFlush)
			}
		}
		return u.Result().Encrypted
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.SortedRows(), b.SortedRows()) {
		t.Fatal("two identical incremental runs produced different ciphertext tables")
	}
	for i := 0; i < a.NumRows(); i++ {
		if !reflect.DeepEqual(a.Row(i), b.Row(i)) {
			t.Fatalf("row %d differs between identical runs", i)
		}
	}
}

// TestIncrementalFlushCancelledLeavesUpdaterUnchanged: a cancelled
// incremental flush must be fully transactional — same pending buffer,
// same Result pointer, same retained plan state — and a later flush with
// a live context must succeed incrementally off that state.
func TestIncrementalFlushCancelledLeavesUpdaterUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := appendStreamTable(rng, 80)
	cfg := testConfig(0.5)
	u, res0, err := NewUpdater(context.Background(), cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(res0.MASs) == 0 {
		t.Fatal("base table has no MASs")
	}
	batch := [][]string{
		borderStableRow(base, res0.MASs[0], rng, 1),
		borderStableRow(base, res0.MASs[0], rng, 2),
	}
	if err := u.Buffer(batch); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := u.Flush(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled incremental flush: err = %v, want context.Canceled", err)
	}
	if u.Pending() != 2 || u.Rows() != 80 || u.Result() != res0 {
		t.Fatalf("cancelled flush mutated the updater: pending=%d rows=%d sameResult=%v",
			u.Pending(), u.Rows(), u.Result() == res0)
	}
	if u.IncrementalFlushes != 0 || u.LastFlush != FlushModeNone {
		t.Fatalf("cancelled flush recorded a path: incr=%d last=%q", u.IncrementalFlushes, u.LastFlush)
	}

	res, err := u.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if u.LastFlush != FlushModeIncremental || u.Pending() != 0 || u.Rows() != 82 {
		t.Fatalf("retry flush: last=%q pending=%d rows=%d", u.LastFlush, u.Pending(), u.Rows())
	}
	want := fd.DiscoverWitnessed(u.Current())
	if got := fd.DiscoverWitnessed(res.Encrypted); !want.Equal(got) {
		t.Fatalf("retry flush FDs diverged: %v vs %v", got, want)
	}
}

// TestIncrementalWitnessesNewViolations pins the Step-4 patch: an append
// that newly violates a dependency inside an unchanged MAS border must
// re-witness it so the ciphertext does not exhibit a false-positive FD.
func TestIncrementalWitnessesNewViolations(t *testing.T) {
	// B is constant per a-value at first: A→B holds. MAS is {A,B}.
	tbl := relation.MustFromRows(relation.MustSchema("A", "B"), [][]string{
		{"a1", "b1"}, {"a1", "b1"}, {"a1", "b1"},
		{"a2", "b2"}, {"a2", "b2"},
		{"a3", "b3"}, {"a3", "b3"},
	})
	cfg := testConfig(0.5)
	u, res0, err := NewUpdater(context.Background(), cfg, tbl)
	if err != nil {
		t.Fatal(err)
	}
	wantMAS := []relation.AttrSet{relation.NewAttrSet(0, 1)}
	if !reflect.DeepEqual(res0.MASs, wantMAS) {
		t.Fatalf("MASs = %v, want %v", res0.MASs, wantMAS)
	}
	ab := fd.FD{LHS: relation.NewAttrSet(0), RHS: 1}
	if !fd.Holds(partition.NewCache(relation.Encode(tbl)), ab) {
		t.Fatal("A→B should hold initially")
	}

	// A single {"a1","b2"} breaks A→B. Its agreement sets — {A} with the
	// a1 rows, {B} with the a2 rows — stay inside the MAS, and it lands as
	// a fresh singleton class, so the flush must be served incrementally
	// AND must insert artificial pairs re-witnessing the new violation.
	// (Appending it twice would coin a born duplicate class and correctly
	// fall back to a rebuild instead.)
	if err := u.Buffer([][]string{{"a1", "b2"}}); err != nil {
		t.Fatal(err)
	}
	res, err := u.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if u.LastFlush != FlushModeIncremental {
		t.Fatalf("flush took %q, want incremental", u.LastFlush)
	}
	if fd.Holds(partition.NewCache(relation.Encode(u.Current())), ab) {
		t.Fatal("A→B should be violated after the append")
	}
	if fd.Holds(partition.NewCache(relation.Encode(res.Encrypted)), ab) {
		t.Fatal("false positive: A→B holds on the ciphertext after the incremental flush")
	}
	if res.Report.FPRows <= res0.Report.FPRows-1 {
		t.Fatalf("no artificial pairs added: %d → %d", res0.Report.FPRows, res.Report.FPRows)
	}
	want := fd.DiscoverWitnessed(u.Current())
	if got := fd.DiscoverWitnessed(res.Encrypted); !want.Equal(got) {
		t.Fatalf("witnessed FDs diverged: %v vs %v", got, want)
	}
}
