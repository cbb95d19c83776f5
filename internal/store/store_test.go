package store

import (
	"context"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"f2/internal/core"
	"f2/internal/crypt"
	"f2/internal/relation"
)

// testTable builds a table with duplicate-rich columns (so MASs exist)
// plus a unique ID column.
func testTable(rng *rand.Rand, rows int) *relation.Table {
	tbl := relation.NewTable(relation.MustSchema("A", "B", "ID"))
	for i := 0; i < rows; i++ {
		tbl.AppendRow(testRow(rng, i))
	}
	return tbl
}

func testRow(rng *rand.Rand, id int) []string {
	return []string{
		fmt.Sprintf("a%d", rng.Intn(3)),
		fmt.Sprintf("b%d", rng.Intn(4)),
		fmt.Sprintf("id%d", id),
	}
}

func testConfig(seed string) core.Config {
	cfg := core.DefaultConfig(crypt.KeyFromSeed(seed))
	cfg.Alpha = 0.5
	return cfg
}

func newUpdater(t *testing.T, cfg core.Config, tbl *relation.Table) *core.Updater {
	t.Helper()
	upd, _, err := core.NewUpdater(context.Background(), cfg, tbl)
	if err != nil {
		t.Fatal(err)
	}
	return upd
}

func record(id string, cfg core.Config, upd *core.Updater, walSeq uint64) *Record {
	return &Record{ID: id, Name: "t-" + id, Config: cfg, Updater: upd.State(), WALSeq: walSeq}
}

func decryptRows(t *testing.T, cfg core.Config, upd *core.Updater) [][]string {
	t.Helper()
	dec, err := core.NewDecryptor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := dec.Recover(context.Background(), upd.Result())
	if err != nil {
		t.Fatal(err)
	}
	return tbl.SortedRows()
}

// checkFrequencyFlatness asserts the attacker-visible invariant on an
// encrypted table: within every attribute, every frequency class with
// f ≥ 2 holds at least k distinct ciphertexts (mirrors the core
// invariants tests — recovery must preserve it, not just the plaintext).
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

// hydrated returns a loaded dataset's full updater state via LoadState.
func hydrated(t *testing.T, s *Store, l *Loaded) *core.UpdaterState {
	t.Helper()
	st, err := s.LoadState(context.Background(), l.ID)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func loadOnly(t *testing.T, s *Store) []*Loaded {
	t.Helper()
	loaded, skipped, err := s.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("unexpected skipped datasets: %v", skipped)
	}
	return loaded
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cfg := testConfig("round-trip")
	upd := newUpdater(t, cfg, testTable(rand.New(rand.NewSource(1)), 40))
	if err := s.SaveSnapshot(context.Background(), record("ds_aaaaaaaaaaaa", cfg, upd, 0)); err != nil {
		t.Fatal(err)
	}

	// The index as written, and as an older build wrote it: with the
	// config's since-removed MAS algorithm field, which must be ignored.
	path := filepath.Join(dir, datasetsDir, "ds_aaaaaaaaaaaa", snapshotName)
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	withMAS := strings.Replace(string(written), `"config":{`, `"config":{"mas":0,`, 1)
	if withMAS == string(written) {
		t.Fatal("index has no config object")
	}
	for _, index := range []string{string(written), withMAS} {
		if err := os.WriteFile(path, []byte(index), 0o600); err != nil {
			t.Fatal(err)
		}
		// Reopen from scratch, as a restarted process would.
		s2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		loaded := loadOnly(t, s2)
		if len(loaded) != 1 {
			t.Fatalf("loaded %d datasets, want 1", len(loaded))
		}
		l := loaded[0]
		if l.ID != "ds_aaaaaaaaaaaa" || l.Name != "t-ds_aaaaaaaaaaaa" || len(l.Tail) != 0 {
			t.Fatalf("loaded record: %+v", l.Record)
		}
		if l.Config.Key != cfg.Key || l.Config.Alpha != cfg.Alpha || l.Config.PRF != cfg.PRF {
			t.Fatal("config did not round-trip")
		}
		if l.Updater != nil || l.Stats == nil {
			t.Fatalf("snapshot should load lazily: updater=%v stats=%v", l.Updater != nil, l.Stats != nil)
		}
		if l.Stats.Rows != upd.Rows() || l.Stats.EncryptedRows != upd.Result().Encrypted.NumRows() {
			t.Fatalf("index stats %+v do not match the dataset", l.Stats)
		}
		back, err := core.RestoreUpdater(l.Config, hydrated(t, s2, l))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(decryptRows(t, cfg, back), decryptRows(t, cfg, upd)) {
			t.Fatal("restored dataset decrypts differently")
		}
	}
}

// TestDatasetKeySealedAtRest: the snapshot file must not contain the
// dataset key in any recognizable form, and a store opened with the wrong
// master key must refuse to unseal it rather than yield a garbage key.
func TestDatasetKeySealedAtRest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cfg := testConfig("sealed-key")
	upd := newUpdater(t, cfg, testTable(rand.New(rand.NewSource(2)), 30))
	if err := s.SaveSnapshot(context.Background(), record("ds_bbbbbbbbbbbb", cfg, upd, 0)); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(filepath.Join(dir, datasetsDir, "ds_bbbbbbbbbbbb", snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), hex.EncodeToString(cfg.Key[:])) {
		t.Fatal("snapshot contains the dataset key in hex")
	}

	// Swap the master key: unsealing must fail loudly.
	other, err := crypt.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	text, _ := other.MarshalText()
	if err := os.WriteFile(filepath.Join(dir, masterKeyFile), append(text, '\n'), 0o600); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	loaded, skipped, err := s2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 0 || len(skipped) != 1 {
		t.Fatalf("wrong master key: loaded=%d skipped=%v", len(loaded), skipped)
	}
	if !strings.Contains(skipped[0], "master key") {
		t.Fatalf("skip reason does not mention the master key: %v", skipped[0])
	}
}

// TestSealedKeyTamperRejected: the sealed dataset key is authenticated
// and bound to its dataset id. A single flipped bit, an unknown seal
// version, or a sealed key copied into another dataset's index must keep
// that dataset from booting — reported in skipped — while the untouched
// dataset next to it still loads.
func TestSealedKeyTamperRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const a, b = "ds_a1a1a1a1a1a1", "ds_b2b2b2b2b2b2"
	for i, id := range []string{a, b} {
		cfg := testConfig("tamper-" + id)
		upd := newUpdater(t, cfg, testTable(rand.New(rand.NewSource(int64(i))), 20))
		if err := s.SaveSnapshot(context.Background(), record(id, cfg, upd, 0)); err != nil {
			t.Fatal(err)
		}
	}
	indexPath := func(id string) string { return filepath.Join(dir, datasetsDir, id, snapshotName) }
	readIndex := func(id string) (raw []byte, idx map[string]any) {
		raw, err := os.ReadFile(indexPath(id))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &idx); err != nil {
			t.Fatal(err)
		}
		return raw, idx
	}
	sealedA := func() []byte {
		_, idx := readIndex(a)
		raw, err := base64.StdEncoding.DecodeString(idx["keyEnc"].(string))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	tamper := func(name, victim, keyEnc string) {
		t.Run(name, func(t *testing.T) {
			orig, idx := readIndex(victim)
			idx["keyEnc"] = keyEnc
			data, err := json.Marshal(idx)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(indexPath(victim), data, 0o600); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(indexPath(victim), orig, 0o600); err != nil {
					t.Fatal(err)
				}
			}()
			loaded, skipped, err := s.LoadAll()
			if err != nil {
				t.Fatal(err)
			}
			if len(loaded) != 1 || loaded[0].ID == victim || len(skipped) != 1 || !strings.HasPrefix(skipped[0], victim+": ") {
				t.Fatalf("tampered %s: loaded %d, skipped %v", victim, len(loaded), skipped)
			}
		})
	}
	for _, bit := range []int{8 + 3, 20 * 8, len(sealedA())*8 - 1} { // nonce, seal, tag
		flipped := sealedA()
		flipped[bit/8] ^= 1 << (bit % 8)
		tamper(fmt.Sprintf("bit-%d", bit), a, base64.StdEncoding.EncodeToString(flipped))
	}
	future := sealedA()
	future[0] = keySealVersion + 1
	tamper("unknown-version", a, base64.StdEncoding.EncodeToString(future))
	tamper("moved-to-other-dataset", b, base64.StdEncoding.EncodeToString(sealedA()))

	if loaded := loadOnly(t, s); len(loaded) != 2 {
		t.Fatalf("restored indexes: loaded %d datasets, want 2", len(loaded))
	}
}

// TestWALPartialTailTolerated simulates a crash mid-append: the torn
// final record is dropped, the acknowledged ones survive.
func TestWALPartialTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cfg := testConfig("torn-wal")
	upd := newUpdater(t, cfg, testTable(rand.New(rand.NewSource(3)), 20))
	const id = "ds_cccccccccccc"
	if err := s.SaveSnapshot(context.Background(), record(id, cfg, upd, 0)); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		b := Batch{Seq: seq, Rows: [][]string{{"ax", "bx", fmt.Sprintf("wal%d", seq)}}}
		if err := s.AppendBatch(context.Background(), id, b); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Tear the last record: cut a few bytes off the file.
	walPath := filepath.Join(dir, datasetsDir, id, walName)
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	loaded := loadOnly(t, s2)
	if len(loaded) != 1 {
		t.Fatalf("loaded %d datasets, want 1", len(loaded))
	}
	tail := loaded[0].Tail
	if len(tail) != 2 || tail[0].Seq != 1 || tail[1].Seq != 2 {
		t.Fatalf("tail after torn record: %+v", tail)
	}

	// Corrupt a middle byte of the (remaining) first record's payload:
	// replay must stop before it, yielding an empty tail, not an error.
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[walHeaderSize+2] ^= 0xff
	if err := os.WriteFile(walPath, data, 0o600); err != nil {
		t.Fatal(err)
	}
	loaded = loadOnly(t, s2)
	if len(loaded[0].Tail) != 0 {
		t.Fatalf("tail after corrupt record: %+v", loaded[0].Tail)
	}
}

// TestReplaySkipsCoveredBatches simulates a crash between snapshot write
// and WAL truncation: batches at or below the snapshot's watermark must
// not be replayed (they are already inside the snapshot), later ones
// must.
func TestReplaySkipsCoveredBatches(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cfg := testConfig("covered")
	upd := newUpdater(t, cfg, testTable(rand.New(rand.NewSource(4)), 20))
	const id = "ds_dddddddddddd"
	if err := s.SaveSnapshot(context.Background(), record(id, cfg, upd, 0)); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		b := Batch{Seq: seq, Rows: [][]string{{"ay", "by", fmt.Sprintf("cov%d", seq)}}}
		if err := s.AppendBatch(context.Background(), id, b); err != nil {
			t.Fatal(err)
		}
	}
	// Rotate in a snapshot covering seq ≤ 2 without SaveSnapshot's WAL
	// compaction — exactly the disk state after a crash between the two.
	keyEnc, err := sealKey(s.master, id, cfg.Key)
	if err != nil {
		t.Fatal(err)
	}
	rec := record(id, cfg, upd, 2)
	if err := s.rotateSnapshot(context.Background(), rec, keyEnc, rec.Updater.Sections()); err != nil {
		t.Fatal(err)
	}

	loaded := loadOnly(t, s)
	if len(loaded) != 1 {
		t.Fatalf("loaded %d datasets, want 1", len(loaded))
	}
	tail := loaded[0].Tail
	if len(tail) != 1 || tail[0].Seq != 3 {
		t.Fatalf("tail = %+v, want only seq 3", tail)
	}
}

// TestStrayTempSnapshotIgnored simulates a crash mid-rotation: the torn
// temp file sits next to the intact snapshot and must not disturb
// recovery.
func TestStrayTempSnapshotIgnored(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cfg := testConfig("stray-tmp")
	upd := newUpdater(t, cfg, testTable(rand.New(rand.NewSource(5)), 20))
	const id = "ds_eeeeeeeeeeee"
	if err := s.SaveSnapshot(context.Background(), record(id, cfg, upd, 0)); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, datasetsDir, id, snapshotName+".tmp-crashed")
	if err := os.WriteFile(stray, []byte(`{"version":1,"truncated`), 0o600); err != nil {
		t.Fatal(err)
	}
	loaded := loadOnly(t, s)
	if len(loaded) != 1 || loaded[0].ID != id {
		t.Fatalf("stray temp file disturbed recovery: %d datasets", len(loaded))
	}
}

// TestCrashMidFlushRecovery is the crash-recovery property test: a
// randomized append stream is journaled batch by batch, the process
// "crashes" at every distinct point of the flush protocol (before flush,
// after flush but before snapshot, after snapshot but before truncation
// is irrelevant — see TestReplaySkipsCoveredBatches), and after every
// recovery the dataset must hold exactly the acknowledged rows, decrypt
// to them, and keep the frequency-hiding invariant. Run under -race in
// CI.
func TestCrashMidFlushRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()

	const id = "ds_ffffffffffff"
	cfg := testConfig("crash-recovery")
	base := testTable(rng, 40)
	upd := newUpdater(t, cfg, base)
	if err := s.SaveSnapshot(context.Background(), record(id, cfg, upd, 0)); err != nil {
		t.Fatal(err)
	}

	// acked tracks every row the "client" has been acknowledged for.
	acked := base.Clone()
	seq := uint64(0)
	lastSnapSeq := uint64(0)
	serial := 0

	// crash drops all in-memory state and recovers from disk, asserting
	// the recovered dataset matches the acknowledged rows exactly.
	crash := func(label string) {
		t.Helper()
		s.Close()
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("%s: reopen: %v", label, err)
		}
		s = s2
		loaded := loadOnly(t, s)
		if len(loaded) != 1 {
			t.Fatalf("%s: loaded %d datasets, want 1", label, len(loaded))
		}
		l := loaded[0]
		back, err := core.RestoreUpdater(l.Config, hydrated(t, s, l))
		if err != nil {
			t.Fatalf("%s: restore: %v", label, err)
		}
		for _, b := range l.Tail {
			if err := back.Buffer(b.Rows); err != nil {
				t.Fatalf("%s: replaying batch %d: %v", label, b.Seq, err)
			}
		}
		// Every acknowledged row is either flushed (in Current) or
		// pending (in the buffer); together they must equal acked.
		st := back.State()
		got := st.Current.JSON().Rows
		got = append(got, st.Buffer.JSON().Rows...)
		tbl, err := relation.FromRows(acked.Schema().Clone(), got)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !reflect.DeepEqual(tbl.SortedRows(), acked.SortedRows()) {
			t.Fatalf("%s: recovered %d rows, acknowledged %d — contents differ",
				label, tbl.NumRows(), acked.NumRows())
		}
		upd = back
		lastSnapSeq = l.WALSeq
		if len(l.Tail) > 0 {
			seq = l.Tail[len(l.Tail)-1].Seq
		} else {
			seq = l.WALSeq
		}
	}

	appendBatch := func(n int) {
		t.Helper()
		var rows [][]string
		for i := 0; i < n; i++ {
			serial++
			rows = append(rows, testRow(rng, 1000+serial))
		}
		seq++
		// Journal first, then buffer: an append is acknowledged only
		// after both, so a crash in between (journaled but not buffered)
		// re-applies the batch on replay — which is the correct outcome,
		// since the client was never acked and will see the rows present
		// on retry-read. Here we treat journal+buffer success as acked.
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

	flush := func() {
		t.Helper()
		if _, err := upd.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func() {
		t.Helper()
		if err := s.SaveSnapshot(context.Background(), record(id, cfg, upd, seq)); err != nil {
			t.Fatal(err)
		}
		lastSnapSeq = seq
	}

	// Round 1: crash with journaled-but-unflushed batches.
	appendBatch(3)
	appendBatch(2)
	crash("pending-only")

	// Round 2: crash right after the flush, before the snapshot — the
	// classic mid-flush crash. The snapshot on disk predates the flush,
	// so recovery replays the WAL and the rows come back as pending.
	appendBatch(4)
	flush()
	crash("flushed-no-snapshot")

	// Round 3: the full protocol completes; crash after snapshot.
	appendBatch(3)
	flush()
	snapshot()
	crash("snapshotted")
	if got := upd.Pending(); got != 0 {
		t.Fatalf("after snapshotted crash: %d pending rows, want 0", got)
	}

	// Interleaved randomized rounds with crashes at random points.
	for round := 0; round < 4; round++ {
		appendBatch(1 + rng.Intn(3))
		switch rng.Intn(3) {
		case 0:
		case 1:
			flush()
		case 2:
			flush()
			snapshot()
		}
		crash(fmt.Sprintf("random-round-%d", round))
	}
	_ = lastSnapSeq

	// Final verification: flush everything, snapshot, decrypt.
	flush()
	snapshot()
	if !reflect.DeepEqual(decryptRows(t, cfg, upd), acked.SortedRows()) {
		t.Fatal("final decrypt does not equal the acknowledged rows")
	}
	checkFrequencyFlatness(t, upd.Result().Encrypted, cfg.K(), "recovered ciphertext")

	// One more cold recovery for good measure: decrypt from a fresh load.
	crash("final")
	if !reflect.DeepEqual(decryptRows(t, cfg, upd), acked.SortedRows()) {
		t.Fatal("cold-recovered dataset decrypts differently")
	}
	checkFrequencyFlatness(t, upd.Result().Encrypted, cfg.K(), "cold-recovered ciphertext")
}

// TestDeleteRemovesEverything: after Delete the dataset directory is gone
// and LoadAll no longer sees it; journaling to a deleted dataset
// recreates nothing visible to recovery without a snapshot.
func TestDeleteRemovesEverything(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cfg := testConfig("delete")
	upd := newUpdater(t, cfg, testTable(rand.New(rand.NewSource(6)), 20))
	const id = "ds_999999999999"
	if err := s.SaveSnapshot(context.Background(), record(id, cfg, upd, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(context.Background(), id, Batch{Seq: 1, Rows: [][]string{{"a", "b", "x"}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, datasetsDir, id)); !os.IsNotExist(err) {
		t.Fatalf("dataset directory survives delete: %v", err)
	}
	if loaded := loadOnly(t, s); len(loaded) != 0 {
		t.Fatalf("deleted dataset still loads: %d", len(loaded))
	}
}

// TestMasterKeyPersists: two opens of the same directory share one master
// key, and the file is created 0600.
func TestMasterKeyPersists(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	info, err := os.Stat(filepath.Join(dir, masterKeyFile))
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o600 {
		t.Errorf("master key permissions %o, want 0600", perm)
	}

	cfg := testConfig("master-persists")
	upd := newUpdater(t, cfg, testTable(rand.New(rand.NewSource(7)), 20))
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.SaveSnapshot(context.Background(), record("ds_121212121212", cfg, upd, 0)); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	loaded := loadOnly(t, s3)
	if len(loaded) != 1 || loaded[0].Config.Key != cfg.Key {
		t.Fatal("dataset key does not unseal across reopens")
	}
}
