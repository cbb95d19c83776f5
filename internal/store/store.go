// Package store persists f2served datasets on disk so a restart — clean
// or crashed — recovers every dataset to its last transactional state.
//
// Layout under the data directory:
//
//	<dir>/master.key              service master key (hex, 0600)
//	<dir>/datasets/<id>/snapshot.json   index blob
//	<dir>/datasets/<id>/chunks/<sha256> content-addressed data chunks
//	<dir>/datasets/<id>/wal.log
//
// Each dataset is a snapshot plus a write-ahead log. The snapshot's index
// blob holds the dataset's configuration, schema, WAL watermark, and a
// manifest of content-addressed chunks carrying the bulky sections of the
// serialized updater state (plaintext rows, ciphertext rows, provenance,
// pending buffer — see rotate.go and chunks.go); the dataset key is
// stored encrypted under the service master key, never in the clear. The
// index is rotated atomically (write temp + fsync + rename) after every
// chunk it references is durable, so a crash at any point leaves the
// previous snapshot fully readable; a rotation-time GC then unlinks
// chunks the new index no longer references. Boot reads only the index
// (LoadAll); the full state hydrates on demand (LoadState). A snapshot in
// any other format version — including the pre-chunking monolithic v1 —
// is rejected like any other unreadable dataset.
//
// The WAL journals every append batch before the service acknowledges it.
// Journal writes are group-committed: concurrent appends stage framed
// records, and a per-dataset committer goroutine writes and fsyncs them
// in one batch per window (see groupcommit.go). After a successful flush
// the server writes a fresh snapshot recording the highest batch sequence
// it includes (the watermark), then compacts the WAL down to the batches
// above that watermark — batches journaled concurrently with the snapshot
// survive. Boot recovery loads the snapshot and replays only WAL batches
// with a higher sequence, so every crash point — mid-append, mid-flush,
// between snapshot and compaction — recovers without losing acknowledged
// rows or duplicating applied ones.
package store

import (
	"bytes"
	"context"
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"f2/internal/core"
	"f2/internal/crypt"
	"f2/internal/obs"
	"f2/internal/pool"
)

const (
	masterKeyFile = "master.key"
	datasetsDir   = "datasets"
	snapshotName  = "snapshot.json"
	walName       = "wal.log"
)

// Record is one dataset's durable state as the server sees it: identity,
// configuration (with the key in the clear — sealing happens inside the
// store), the serialized updater, and the WAL sequence watermark the
// updater state includes.
type Record struct {
	ID      string
	Name    string
	Created time.Time
	Config  core.Config
	Updater *core.UpdaterState
	// WALSeq is the highest journaled batch sequence already applied to
	// (buffered or flushed into) Updater. Replay skips batches at or below
	// it.
	WALSeq uint64
}

// DatasetStats are the index-level facts about a lazily loaded dataset:
// enough to serve listings and summaries without hydrating a single
// chunk. PendingRows counts only the snapshot's buffered rows; the WAL
// tail's rows come on top (the caller sees the tail and can add them).
type DatasetStats struct {
	Rows          int
	PendingRows   int
	EncryptedRows int
	Meta          core.UpdaterMeta
}

// Loaded is a recovered dataset: its snapshot record plus the WAL tail —
// acknowledged batches the snapshot does not include, in journal order —
// which the caller must replay through the updater.
//
// Boot is lazy: Record.Updater is nil on load, Stats carries the
// index-level numbers, and the caller hydrates the full state later via
// LoadState (then replays Tail).
type Loaded struct {
	Record
	Tail  []Batch
	Stats *DatasetStats
}

// Store is the durable dataset store. All methods are safe for concurrent
// use; concurrent appends to one dataset are serialized (and coalesced)
// by that dataset's committer goroutine, and compaction flows through the
// same committer, so callers need no external ordering of their own.
type Store struct {
	dir string
	// master seals dataset keys at rest (AES-GCM under master.key).
	master    cipher.AEAD
	chunkRows int

	// chunks runs every chunk job of every rotation and hydration, so
	// concurrent saves and loads of different datasets share one bound
	// of GOMAXPROCS workers. At GOMAXPROCS 1 the pool runs each job on
	// its caller and bounds nothing. Tests may swap in a pool of another
	// width.
	chunks    *pool.Pool
	closeOnce sync.Once

	mu   sync.Mutex
	wals map[string]*walWriter // group-commit writers by dataset id

	rotMu sync.Mutex
	rots  map[string]*sync.RWMutex // per-dataset rotation locks

	gcMu   sync.Mutex
	gcDebt map[string]string // dataset id -> last failed chunk-sweep error

	stats walStats
	snap  snapStats

	// testCrash, when set by a test, is invoked at rotation checkpoints
	// ("chunk" after each chunk write, "index" before the index rotates,
	// "gc" after each unlink); returning an error aborts the save there,
	// simulating a crash at that point.
	testCrash func(point string) error
}

// Options tunes a Store beyond its data directory.
type Options struct {
	// ChunkRows is the number of table rows per content-addressed
	// snapshot chunk. Smaller chunks dedup at a finer grain (an
	// incremental flush rewrites less); larger chunks mean fewer files
	// and a smaller manifest. 0 means the default (512).
	ChunkRows int
}

// Open initializes the store at dir with default options.
func Open(dir string) (*Store, error) { return OpenOptions(dir, Options{}) }

// OpenOptions initializes the store at dir, creating the directory tree
// and the master key on first use. The master key file is created with
// 0600 permissions; anyone who can read it can unseal every dataset key,
// so the data directory must be trusted storage (f2served is the
// owner-side service — the paper's untrusted server never runs it).
func OpenOptions(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty data directory")
	}
	if opts.ChunkRows < 0 {
		return nil, fmt.Errorf("store: negative chunk rows %d", opts.ChunkRows)
	}
	chunkRows := opts.ChunkRows
	if chunkRows == 0 {
		chunkRows = defaultChunkRows
	}
	if err := os.MkdirAll(filepath.Join(dir, datasetsDir), 0o700); err != nil {
		return nil, fmt.Errorf("store: creating data directory: %w", err)
	}
	master, err := loadOrCreateMasterKey(filepath.Join(dir, masterKeyFile))
	if err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(master[:])
	if err != nil {
		return nil, fmt.Errorf("store: master cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("store: master cipher: %w", err)
	}
	return &Store{
		dir:       dir,
		master:    aead,
		chunkRows: chunkRows,
		chunks:    pool.New(runtime.GOMAXPROCS(0)),
		wals:      make(map[string]*walWriter),
		rots:      make(map[string]*sync.RWMutex),
		gcDebt:    make(map[string]string),
	}, nil
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// Close drains every dataset's committer (staged groups are written and
// fsynced first), releases the WAL handles, and stops the chunk pool.
// Snapshots and acknowledged batches are already durable; Close loses
// nothing. A save or load that reaches the chunk pool after Close fails
// with pool.ErrClosed and writes no index, so callers close the store
// after their last save (the server's Close waits out its background
// flushes first).
func (s *Store) Close() error {
	s.closeOnce.Do(s.chunks.Close)
	s.mu.Lock()
	writers := s.wals
	s.wals = make(map[string]*walWriter)
	s.mu.Unlock()
	var firstErr error
	for _, w := range writers {
		if err := w.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// WALStats reports the group-commit counters: total WAL fsyncs issued and
// total batches those fsyncs covered. batches/fsyncs is the mean group
// size — 1.0 under serial load, climbing with append concurrency.
func (s *Store) WALStats() (fsyncs, batches uint64) {
	return s.stats.fsyncs.Load(), s.stats.batches.Load()
}

func loadOrCreateMasterKey(path string) (crypt.Key, error) {
	var key crypt.Key
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := key.UnmarshalText(bytes.TrimSpace(data)); err != nil {
			return crypt.Key{}, fmt.Errorf("store: master key file %s: %w", path, err)
		}
		return key, nil
	case errors.Is(err, os.ErrNotExist):
		key, err = crypt.GenerateKey()
		if err != nil {
			return crypt.Key{}, fmt.Errorf("store: %w", err)
		}
		text, err := key.MarshalText()
		if err != nil {
			return crypt.Key{}, fmt.Errorf("store: %w", err)
		}
		if err := writeFileAtomic(path, append(text, '\n'), 0o600); err != nil {
			return crypt.Key{}, fmt.Errorf("store: writing master key: %w", err)
		}
		return key, nil
	default:
		return crypt.Key{}, fmt.Errorf("store: reading master key: %w", err)
	}
}

func (s *Store) datasetDir(id string) string {
	return filepath.Join(s.dir, datasetsDir, id)
}

// SaveSnapshot durably records rec as a v3 chunked snapshot: section
// chunks are written (or re-linked when their content already exists)
// first, the index blob rotates atomically after they are durable, the
// GC sweeps chunks the new index dropped, and on success the WAL is
// truncated (every journaled batch at or below rec.WALSeq is now covered
// by the snapshot; replay skips them even if truncation itself is lost
// to a crash). The context only carries the caller's trace; the write
// itself is never cancelled mid-rotation. The dataset's rotation lock is
// held exclusively across chunks + index + GC, so concurrent hydration
// sees either the old snapshot or the new one, never a half-swept mix.
func (s *Store) SaveSnapshot(ctx context.Context, rec *Record) error {
	if rec.ID == "" {
		return errors.New("store: record has no id")
	}
	sctx, sp := obs.Start(ctx, "snapshot.save")
	defer sp.End()
	_, seal := obs.Start(sctx, "snapshot.seal")
	keyEnc, err := sealKey(s.master, rec.ID, rec.Config.Key)
	seal.End()
	if err != nil {
		return err
	}
	sec := rec.Updater.Sections()
	if sec == nil {
		return errors.New("store: record has no updater state")
	}
	rl := s.rot(rec.ID)
	rl.Lock()
	err = s.rotateSnapshot(sctx, rec, keyEnc, sec)
	rl.Unlock()
	if err != nil {
		return err
	}
	_, tr := obs.Start(sctx, "snapshot.compact-wal")
	err = s.compactWAL(rec.ID, rec.WALSeq)
	tr.End()
	return err
}

// WALAck is a staged batch's handle on its group commit.
type WALAck struct {
	entry *walEntry
}

// Wait blocks until the batch's group fsync completes and returns its
// outcome. The wait is deliberately not cancellable: the committer syncs
// every staged batch, so the bound is one group fsync away, and
// abandoning the wait would leave the caller unable to tell whether its
// batch became durable. The context only carries the caller's trace —
// Wait records the wal.append and wal.fsync spans into it, the latter
// tagged with the number of batches the shared fsync covered.
func (a *WALAck) Wait(ctx context.Context) error {
	res := <-a.entry.done
	a.entry.done <- res // allow a second Wait (e.g. retry paths) to observe the result
	obs.Record(ctx, "wal.append", time.Since(a.entry.staged),
		"seq", a.entry.seq, "rows", a.entry.rows, "bytes", len(a.entry.rec))
	if res.grouped > 0 {
		obs.Record(ctx, "wal.fsync", res.fsyncDur, "batched", res.grouped)
	}
	return res.err
}

// StageAppend frames one append batch and stages it for group commit,
// returning an ack the caller must Wait on before acknowledging its
// client. Framing errors (oversized record) and writer-open errors
// surface synchronously, before anything is staged. commit, if non-nil,
// runs exactly once on the committer goroutine after the batch's group
// fsync succeeds and before any waiter of that group is released; commits
// run in staging order, so per-dataset staging order is apply order.
func (s *Store) StageAppend(id string, b Batch, commit func()) (*WALAck, error) {
	rec, err := frameWALRecord(b)
	if err != nil {
		return nil, err
	}
	w, err := s.walFor(id)
	if err != nil {
		return nil, err
	}
	e := &walEntry{
		rec:    rec,
		seq:    b.Seq,
		rows:   len(b.Rows),
		staged: time.Now(),
		commit: commit,
		done:   make(chan walResult, 1),
	}
	if err := w.stage(walOp{entry: e}); err != nil {
		return nil, err
	}
	return &WALAck{entry: e}, nil
}

// AppendBatch journals one append batch and waits for its group fsync.
// It must be called — and must succeed — before the append is
// acknowledged to the client; a batch that fails to journal must be
// rejected, not buffered. The context only carries the caller's trace.
func (s *Store) AppendBatch(ctx context.Context, id string, b Batch) error {
	ack, err := s.StageAppend(id, b, nil)
	if err != nil {
		return err
	}
	return ack.Wait(ctx)
}

// walFor returns the dataset's group-commit writer, starting one on first
// use. The writer is created outside s.mu — opening and dir-syncing are
// syscalls — with a double-checked insert to resolve races.
func (s *Store) walFor(id string) (*walWriter, error) {
	s.mu.Lock()
	w, ok := s.wals[id]
	s.mu.Unlock()
	if ok {
		return w, nil
	}
	fresh, err := newWALWriter(s.datasetDir(id), &s.stats)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if existing, ok := s.wals[id]; ok {
		s.mu.Unlock()
		_ = fresh.close() // lost the race; ours has nothing staged
		return existing, nil
	}
	s.wals[id] = fresh
	s.mu.Unlock()
	return fresh, nil
}

// compactWAL rewrites the journal keeping only batches above the snapshot
// watermark keep — batches journaled concurrently with the snapshot
// survive. Failure is non-fatal to durability — replay skips covered
// batches by sequence — so the error only signals the space leak.
func (s *Store) compactWAL(id string, keep uint64) error {
	s.mu.Lock()
	w := s.wals[id]
	s.mu.Unlock()
	if w == nil {
		// No writer and no journal file means nothing to compact; skip
		// rather than spin up a committer just to find an empty queue.
		// (A fresh dataset's first snapshot lands here.) If a racing
		// append starts the writer right after this check, its batches
		// carry sequences above keep and would survive compaction anyway.
		if _, err := os.Stat(filepath.Join(s.datasetDir(id), walName)); errors.Is(err, os.ErrNotExist) {
			return nil
		}
		var err error
		if w, err = s.walFor(id); err != nil {
			return err
		}
	}
	return w.compact(keep)
}

// Delete removes every trace of a dataset: its committer, snapshot, and
// directory.
func (s *Store) Delete(id string) error {
	s.mu.Lock()
	w := s.wals[id]
	delete(s.wals, id)
	s.mu.Unlock()
	if w != nil {
		// Drains staged groups first; the directory (and any bytes they
		// wrote) is removed next anyway.
		_ = w.close()
	}
	// Exclusive rotation lock: an in-flight hydration finishes its chunk
	// reads before the directory goes away.
	rl := s.rot(id)
	rl.Lock()
	err := s.removeDataset(id)
	rl.Unlock()
	s.rotMu.Lock()
	delete(s.rots, id)
	s.rotMu.Unlock()
	// A deleted dataset's leaked chunks went with its directory; its
	// sweep debt is settled.
	s.noteGCDebt(id, nil)
	return err
}

func (s *Store) removeDataset(id string) error {
	if err := os.RemoveAll(s.datasetDir(id)); err != nil {
		return fmt.Errorf("store: deleting dataset %s: %w", id, err)
	}
	return syncDir(filepath.Join(s.dir, datasetsDir))
}

// LoadAll recovers every dataset in the store: each snapshot index is
// decoded, its key unsealed, and its WAL tail — acknowledged batches
// newer than the snapshot — attached for replay. Dataset directories
// without a readable snapshot (a crash before the first snapshot
// completed, a corrupt or foreign-version index) are skipped, left on
// disk untouched, and reported in skipped.
func (s *Store) LoadAll() (loaded []*Loaded, skipped []string, err error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, datasetsDir))
	if err != nil {
		return nil, nil, fmt.Errorf("store: listing datasets: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		l, err := s.loadOne(id)
		if err != nil {
			skipped = append(skipped, fmt.Sprintf("%s: %v", id, err))
			continue
		}
		loaded = append(loaded, l)
	}
	return loaded, skipped, nil
}

// loadOne reads a dataset's index blob only: identity, config,
// watermark, and the index-level stats. The chunked state stays on disk
// until LoadState is called. parseIndex rejects every format version but
// the current one, so a pre-chunking (v1) snapshot is reported as
// skipped and left untouched.
func (s *Store) loadOne(id string) (*Loaded, error) {
	dir := s.datasetDir(id)
	data, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		return nil, fmt.Errorf("reading snapshot: %w", err)
	}
	idx, err := parseIndex(data)
	if err != nil {
		return nil, err
	}
	if idx.ID != id {
		return nil, fmt.Errorf("snapshot id %q does not match directory %q", idx.ID, id)
	}
	key, err := openKey(s.master, id, idx.KeyEnc)
	if err != nil {
		return nil, err
	}
	tail, err := s.walTail(dir, idx.WALSeq)
	if err != nil {
		return nil, err
	}
	return &Loaded{
		Record: Record{
			ID:      idx.ID,
			Name:    idx.Name,
			Created: idx.Created,
			Config:  idx.Config.config(key),
			WALSeq:  idx.WALSeq,
		},
		Tail: tail,
		Stats: &DatasetStats{
			Rows:          idx.Current.Rows,
			PendingRows:   idx.Buffer.Rows,
			EncryptedRows: idx.Encrypted.Rows,
			Meta:          *idx.Meta,
		},
	}, nil
}

// walTail returns the acknowledged batches past the snapshot watermark,
// tolerating a WAL that survived a snapshot whose truncation was lost.
func (s *Store) walTail(dir string, walSeq uint64) ([]Batch, error) {
	batches, err := readWAL(filepath.Join(dir, walName))
	if err != nil {
		return nil, err
	}
	tail := batches[:0]
	for _, b := range batches {
		if b.Seq > walSeq {
			tail = append(tail, b)
		}
	}
	return tail, nil
}
