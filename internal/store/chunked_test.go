package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"f2/internal/core"
	"f2/internal/partition"
	"f2/internal/relation"
)

// borderStableRow synthesizes an append that provably keeps the MAS
// border (mirrors the core incremental tests): it copies an existing row
// of a size-≥2 equivalence class over one MAS and takes globally fresh
// values elsewhere, so an incremental flush stays incremental.
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

// chunkDirNames lists the chunk files of a dataset.
func chunkDirNames(t *testing.T, dir, id string) map[string]struct{} {
	t.Helper()
	names := map[string]struct{}{}
	entries, err := os.ReadDir(filepath.Join(dir, datasetsDir, id, chunksDirName))
	if errors.Is(err, os.ErrNotExist) {
		return names
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		names[e.Name()] = struct{}{}
	}
	return names
}

// referencedChunks reads the current index and returns every chunk name
// it references.
func referencedChunks(t *testing.T, dir, id string) map[string]struct{} {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, datasetsDir, id, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := parseIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]struct{}{}
	for _, refs := range [][]chunkRef{idx.Current.Chunks, idx.Encrypted.Chunks, idx.Origins.Chunks, idx.Buffer.Chunks} {
		for _, r := range refs {
			live[r.Name] = struct{}{}
		}
	}
	return live
}

// TestCrashMidRotationRecovery extends the crash matrix to the chunked
// format: a save is aborted mid-chunk-write, mid-index-rotation, and
// mid-GC, the process "crashes" (store reopened cold), and recovery must
// yield exactly the acknowledged rows — pre-rotation snapshot + WAL
// replay for the first two points, the new snapshot for the mid-GC point
// (its index is already durable). A follow-up clean save must leave the
// chunk directory holding exactly the referenced chunks (crash debris
// swept). Run under -race in CI.
func TestCrashMidRotationRecovery(t *testing.T) {
	errInjected := errors.New("injected crash")
	for _, point := range []string{"chunk", "index", "gc"} {
		t.Run(point, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			dir := t.TempDir()
			s, err := OpenOptions(dir, Options{ChunkRows: 16})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()

			const id = "ds_cafecafecafe"
			cfg := testConfig("crash-" + point)
			base := testTable(rng, 60)
			upd := newUpdater(t, cfg, base)
			if err := s.SaveSnapshot(context.Background(), record(id, cfg, upd, 0)); err != nil {
				t.Fatal(err)
			}

			acked := base.Clone()
			// Acknowledged appends journaled past the snapshot.
			var seq uint64
			for b := 0; b < 3; b++ {
				rows := [][]string{testRow(rng, 2000+b)}
				seq++
				if err := s.AppendBatch(context.Background(), id, Batch{Seq: seq, Rows: rows}); err != nil {
					t.Fatal(err)
				}
				if err := upd.Buffer(rows); err != nil {
					t.Fatal(err)
				}
				if err := acked.AppendRows(rows); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := upd.Flush(context.Background()); err != nil {
				t.Fatal(err)
			}

			// Attempt a rotation that dies at the chosen point.
			armed := true
			s.testCrash = func(p string) error {
				if armed && p == point {
					armed = false
					return errInjected
				}
				return nil
			}
			err = s.SaveSnapshot(context.Background(), record(id, cfg, upd, seq))
			if !errors.Is(err, errInjected) {
				t.Fatalf("injected crash at %q did not surface: %v", point, err)
			}

			// Cold recovery.
			s.Close()
			s2, err := OpenOptions(dir, Options{ChunkRows: 16})
			if err != nil {
				t.Fatal(err)
			}
			s = s2
			loaded := loadOnly(t, s)
			if len(loaded) != 1 {
				t.Fatalf("loaded %d datasets, want 1", len(loaded))
			}
			l := loaded[0]
			switch point {
			case "chunk", "index":
				// The index never rotated: recovery sees the pre-rotation
				// snapshot and the full WAL tail.
				if l.WALSeq != 0 || len(l.Tail) != 3 {
					t.Fatalf("%s: recovered watermark %d with %d tail batches, want 0/3", point, l.WALSeq, len(l.Tail))
				}
			case "gc":
				// The new index rotated before GC started: recovery sees the
				// post-flush snapshot; the uncompacted WAL batches are at or
				// below the watermark and skipped.
				if l.WALSeq != seq || len(l.Tail) != 0 {
					t.Fatalf("gc: recovered watermark %d with %d tail batches, want %d/0", l.WALSeq, len(l.Tail), seq)
				}
			}
			back, err := core.RestoreUpdater(l.Config, hydrated(t, s, l))
			if err != nil {
				t.Fatalf("restore after %s crash: %v", point, err)
			}
			for _, b := range l.Tail {
				if err := back.Buffer(b.Rows); err != nil {
					t.Fatal(err)
				}
			}
			st := back.State()
			got := append([][]string{}, st.Current.Rows...)
			got = append(got, st.Buffer...)
			tbl, err := relation.FromRows(acked.Schema().Clone(), got)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tbl.SortedRows(), acked.SortedRows()) {
				t.Fatalf("%s: recovered %d rows, acknowledged %d — contents differ", point, tbl.NumRows(), acked.NumRows())
			}

			// A clean save must converge the chunk directory to exactly the
			// referenced set — rotation debris and orphans swept.
			if _, err := back.Flush(context.Background()); err != nil {
				t.Fatal(err)
			}
			finalSeq := l.WALSeq
			if len(l.Tail) > 0 {
				finalSeq = l.Tail[len(l.Tail)-1].Seq
			}
			if err := s.SaveSnapshot(context.Background(), record(id, l.Config, back, finalSeq)); err != nil {
				t.Fatal(err)
			}
			have := chunkDirNames(t, dir, id)
			want := referencedChunks(t, dir, id)
			if !reflect.DeepEqual(have, want) {
				t.Fatalf("%s: chunk dir holds %d files, index references %d — GC did not converge", point, len(have), len(want))
			}
			if !reflect.DeepEqual(decryptRows(t, l.Config, back), acked.SortedRows()) {
				t.Fatalf("%s: final decrypt does not equal acknowledged rows", point)
			}
		})
	}
}

// TestChunkedVsNeverRestartedEquivalence is the format-equivalence
// property test: for randomized datasets and flush streams, a dataset
// booted from a chunked snapshot and one that never restarted must agree
// byte for byte — same serialized updater state before replay, same
// state after replaying the WAL tail.
func TestChunkedVsNeverRestartedEquivalence(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(500 + seed))
			dir := t.TempDir()
			s, err := OpenOptions(dir, Options{ChunkRows: 32})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()

			const id = "ds_222222222222"
			cfg := testConfig(fmt.Sprintf("equiv-%d", seed))
			upd := newUpdater(t, cfg, testTable(rng, 30+rng.Intn(40)))

			// Randomized append/flush stream.
			var seq uint64
			serial := 0
			appendRows := func(n int) [][]string {
				var rows [][]string
				for i := 0; i < n; i++ {
					serial++
					rows = append(rows, testRow(rng, 3000+serial))
				}
				seq++
				if err := s.AppendBatch(context.Background(), id, Batch{Seq: seq, Rows: rows}); err != nil {
					t.Fatal(err)
				}
				if err := upd.Buffer(rows); err != nil {
					t.Fatal(err)
				}
				return rows
			}
			for i := 0; i < 4+rng.Intn(4); i++ {
				appendRows(1 + rng.Intn(3))
				if rng.Intn(2) == 0 {
					if _, err := upd.Flush(context.Background()); err != nil {
						t.Fatal(err)
					}
				}
			}

			st := upd.State()
			if err := s.SaveSnapshot(context.Background(), &Record{
				ID: id, Name: "t", Config: cfg, Updater: st, WALSeq: seq,
			}); err != nil {
				t.Fatal(err)
			}

			// Acknowledged batches past the snapshot: the tail to replay
			// (the live updater buffers them as part of the append).
			appendRows(2)

			s.Close()
			s2, err := OpenOptions(dir, Options{ChunkRows: 32})
			if err != nil {
				t.Fatal(err)
			}
			s = s2
			loaded := loadOnly(t, s)
			if len(loaded) != 1 || loaded[0].ID != id {
				t.Fatalf("loaded %d datasets, want 1", len(loaded))
			}
			l := loaded[0]

			// Pre-replay: both serialized states byte-identical.
			want, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			state := hydrated(t, s, l)
			got, err := json.Marshal(state)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatal("chunked boot state differs from the never-restarted state")
			}

			// Post-replay: replay the tail; the live updater already
			// buffered the same rows when they were appended, so both
			// states must still agree byte for byte.
			back, err := core.RestoreUpdater(l.Config, state)
			if err != nil {
				t.Fatal(err)
			}
			if len(l.Tail) != 1 {
				t.Fatalf("%d tail batches, want 1", len(l.Tail))
			}
			for _, b := range l.Tail {
				if err := back.Buffer(b.Rows); err != nil {
					t.Fatal(err)
				}
			}
			if want, err = json.Marshal(upd.State()); err != nil {
				t.Fatal(err)
			}
			if got, err = json.Marshal(back.State()); err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatal("chunked post-replay state differs from the never-restarted state")
			}
		})
	}
}

// TestRotationDedupAccounting pins the point of content addressing: a
// rotation after an incremental flush that appends a handful of rows must
// rewrite bytes proportional to the delta, not the dataset, and the
// reuse counters must show the untouched chunks being re-linked.
func TestRotationDedupAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const id = "ds_444444444444"
	cfg := testConfig("dedup")
	upd := newUpdater(t, cfg, testTable(rng, 600))
	if err := s.SaveSnapshot(context.Background(), record(id, cfg, upd, 0)); err != nil {
		t.Fatal(err)
	}
	base := s.SnapshotStats()
	if base.ChunksWritten == 0 || base.BytesWritten == 0 {
		t.Fatalf("first rotation wrote nothing: %+v", base)
	}

	// A small border-stable append, flushed incrementally.
	var rows [][]string
	for i := 0; i < 5; i++ {
		rows = append(rows, borderStableRow(upd.Current(), upd.Result().MASs[0], rng, i))
	}
	if err := upd.Buffer(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := upd.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if upd.LastFlush != core.FlushModeIncremental {
		t.Fatalf("flush mode %s — the dedup property needs an incremental flush", upd.LastFlush)
	}
	if err := s.SaveSnapshot(context.Background(), record(id, cfg, upd, 1)); err != nil {
		t.Fatal(err)
	}
	after := s.SnapshotStats()

	delta := after.BytesWritten - base.BytesWritten
	if delta == 0 {
		t.Fatal("second rotation wrote nothing at all")
	}
	// Delta-proportional: the 5-row append may rewrite only the trailing
	// partial chunk of each section (plus buffer and index). Anything
	// approaching the full-rotation byte count means dedup is broken.
	if delta*4 > base.BytesWritten {
		t.Fatalf("incremental rotation rewrote %d bytes, full rotation was %d — not delta-proportional", delta, base.BytesWritten)
	}
	if after.ChunksReused == base.ChunksReused {
		t.Fatal("incremental rotation reused no chunks")
	}
	reusedBytes := after.BytesReused - base.BytesReused
	if reusedBytes == 0 {
		t.Fatal("incremental rotation reports zero reused bytes")
	}
	t.Logf("full=%dB delta=%dB reused=%dB chunks written=%d reused=%d",
		base.BytesWritten, delta, reusedBytes,
		after.ChunksWritten-base.ChunksWritten, after.ChunksReused-base.ChunksReused)
}

// TestHostileIndexRejected: an index blob is attacker-adjacent input
// (it's just a file on disk); traversal-shaped chunk names, row-count
// lies, and content/hash mismatches must all fail hydration loudly.
func TestHostileIndexRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const id = "ds_555555555555"
	cfg := testConfig("hostile")
	upd := newUpdater(t, cfg, testTable(rand.New(rand.NewSource(21)), 30))
	if err := s.SaveSnapshot(context.Background(), record(id, cfg, upd, 0)); err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, datasetsDir, id, snapshotName)
	good, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mut func(*indexFile)) {
		t.Run(name, func(t *testing.T) {
			idx, err := parseIndex(good)
			if err != nil {
				t.Fatal(err)
			}
			mut(idx)
			data, err := json.Marshal(idx)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(idxPath, data, 0o600); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(idxPath, good, 0o600); err != nil {
					t.Fatal(err)
				}
			}()
			if _, err := s.LoadState(context.Background(), id); err == nil {
				t.Fatal("hostile index hydrated without error")
			}
		})
	}
	corrupt("traversal-name", func(idx *indexFile) {
		idx.Current.Chunks[0].Name = "../../../master.key"
	})
	corrupt("uppercase-name", func(idx *indexFile) {
		idx.Current.Chunks[0].Name = strings.ToUpper(idx.Current.Chunks[0].Name)
	})
	corrupt("row-count-lie", func(idx *indexFile) {
		idx.Current.Chunks[0].Rows++
		idx.Current.Rows++
	})
	corrupt("missing-chunk", func(idx *indexFile) {
		idx.Current.Chunks[0].Name = strings.Repeat("ab", 32)
	})

	// Tampered chunk file: flip one payload byte — the frame CRC must
	// catch it.
	idx, err := parseIndex(good)
	if err != nil {
		t.Fatal(err)
	}
	name := idx.Current.Chunks[0].Name
	chunkPath := filepath.Join(dir, datasetsDir, id, chunksDirName, name)
	orig, err := os.ReadFile(chunkPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("tampered-chunk", func(t *testing.T) {
		bad := append([]byte(nil), orig...)
		bad[len(bad)-1] ^= 0xff
		if err := os.WriteFile(chunkPath, bad, 0o600); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := os.WriteFile(chunkPath, orig, 0o600); err != nil {
				t.Fatal(err)
			}
		}()
		if _, err := s.LoadState(context.Background(), id); err == nil {
			t.Fatal("tampered chunk hydrated without error")
		}
	})
	// Wrong content under a referenced name: a perfectly valid frame
	// whose payload does not hash to the name — the content-address check
	// must catch the swap even though the CRC is fine.
	t.Run("wrong-content", func(t *testing.T) {
		frame, err := encodeChunkFrame([]byte(`[["x","y","z"]]`))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(chunkPath, frame, 0o600); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := os.WriteFile(chunkPath, orig, 0o600); err != nil {
				t.Fatal(err)
			}
		}()
		if _, err := s.LoadState(context.Background(), id); err == nil {
			t.Fatal("name/content mismatch hydrated without error")
		}
	})
}
