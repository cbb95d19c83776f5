package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"f2/internal/core"
	"f2/internal/obs"
	"f2/internal/relation"
)

// defaultChunkRows is the row-range size of a content-addressed chunk
// when the caller does not choose one. Small enough that an incremental
// flush rewrites only the trailing partial chunk of each section, large
// enough that a dataset stays at tens of chunks rather than thousands.
const defaultChunkRows = 512

// snapStats counts chunk traffic across every rotation of the store's
// lifetime. Reads are exposed via SnapshotStats; the server republishes
// them as f2_snapshot_* metrics.
type snapStats struct {
	chunksWritten atomic.Uint64
	chunksReused  atomic.Uint64
	bytesWritten  atomic.Uint64
	bytesReused   atomic.Uint64
	gcFailures    atomic.Uint64
}

// SnapshotStats is a point-in-time copy of the rotation counters.
// BytesWritten counts bytes physically written (compressed frames plus
// index blobs); BytesReused counts the uncompressed payload bytes of
// chunks a rotation re-linked instead of rewriting. A rotation after an
// incremental flush should grow BytesWritten by O(delta), not O(dataset)
// — that proportionality is the whole point of content addressing, and
// the dedup accounting test pins it.
type SnapshotStats struct {
	ChunksWritten uint64
	ChunksReused  uint64
	BytesWritten  uint64
	BytesReused   uint64
	// GCFailures counts rotation-time chunk sweeps that failed (each
	// leaks unreferenced chunks until the next successful rotation; see
	// Store.GCDebt for which datasets currently carry that debt).
	GCFailures uint64
}

// SnapshotStats reports the cumulative rotation counters.
func (s *Store) SnapshotStats() SnapshotStats {
	return SnapshotStats{
		ChunksWritten: s.snap.chunksWritten.Load(),
		ChunksReused:  s.snap.chunksReused.Load(),
		BytesWritten:  s.snap.bytesWritten.Load(),
		BytesReused:   s.snap.bytesReused.Load(),
		GCFailures:    s.snap.gcFailures.Load(),
	}
}

// rot returns the dataset's rotation lock, creating it on first use.
// Writers (rotation + GC) take it exclusively; hydration reads take it
// shared, so GC can never unlink a chunk out from under a reader.
func (s *Store) rot(id string) *sync.RWMutex {
	s.rotMu.Lock()
	defer s.rotMu.Unlock()
	rl, ok := s.rots[id]
	if !ok {
		rl = new(sync.RWMutex)
		s.rots[id] = rl
	}
	return rl
}

// chunkWriter plans one rotation's chunk jobs against a backend, updating
// the store-wide counters and honoring the crash-injection test hook.
// Jobs run concurrently, so the hook is serialized: each checkpoint
// still marks one completed step.
type chunkWriter struct {
	cs    ChunkStore
	stats *snapStats
	jobs  []func() error
	// queued names the chunks jobs will write, so a payload repeated
	// within one rotation is written once and re-linked after, as if
	// the first copy were already stored.
	queued map[string]struct{}

	crashMu sync.Mutex
	crash   func(point string) error
}

func (w *chunkWriter) checkpoint(point string) error {
	if w.crash == nil {
		return nil
	}
	w.crashMu.Lock()
	defer w.crashMu.Unlock()
	//lint:ignore f2vet/lockheld the lock exists to serialize this test-only hook, which never calls back into the store
	return w.crash(point)
}

// write compresses and durably stores one new chunk.
func (w *chunkWriter) write(name string, payload []byte) error {
	frame, err := encodeChunkFrame(payload)
	if err != nil {
		return err
	}
	if err := w.cs.WriteChunk(name, frame); err != nil {
		return err
	}
	w.stats.chunksWritten.Add(1)
	w.stats.bytesWritten.Add(uint64(len(frame)))
	return w.checkpoint("chunk")
}

// planSection cuts a section of rows rows into fixed row-ranges. Each
// range is encoded, named and probed on the calling goroutine; a range
// whose chunk already exists is re-linked there, and only new chunks
// become jobs (compress, write, fsync) for the pool.
func (w *chunkWriter) planSection(rows, per int, encode func(start, end int) ([]byte, error)) (sectionManifest, error) {
	m := sectionManifest{Rows: rows, Chunks: make([]chunkRef, (rows+per-1)/per)}
	for i := range m.Chunks {
		start, end := i*per, min((i+1)*per, rows)
		payload, err := encode(start, end)
		if err != nil {
			return sectionManifest{}, err
		}
		name := chunkName(payload)
		m.Chunks[i] = chunkRef{Name: name, Rows: end - start, Bytes: len(payload)}
		_, has := w.queued[name]
		if !has {
			if has, err = w.cs.HasChunk(name); err != nil {
				return sectionManifest{}, err
			}
		}
		if has {
			w.stats.chunksReused.Add(1)
			w.stats.bytesReused.Add(uint64(len(payload)))
			continue
		}
		w.queued[name] = struct{}{}
		w.jobs = append(w.jobs, func() error { return w.write(name, payload) })
	}
	return m, nil
}

func (w *chunkWriter) planTable(t *relation.Table, per int) (sectionManifest, error) {
	return w.planSection(t.NumRows(), per, func(start, end int) ([]byte, error) {
		return encodeTableChunk(t, start, end), nil
	})
}

func (w *chunkWriter) planTableSection(t *relation.Table, per int) (tableManifest, error) {
	m, err := w.planTable(t, per)
	return tableManifest{Columns: t.Schema().Names(), Rows: m.Rows, Chunks: m.Chunks}, err
}

// plan fills idx's four section manifests, queueing a job for every
// chunk that is not stored yet.
func (w *chunkWriter) plan(idx *indexFile, sec *core.StateSections, per int) error {
	var err error
	if idx.Current, err = w.planTableSection(sec.Current, per); err != nil {
		return err
	}
	if idx.Encrypted, err = w.planTableSection(sec.Encrypted, per); err != nil {
		return err
	}
	idx.Origins, err = w.planSection(len(sec.Origins), per, func(start, end int) ([]byte, error) {
		return encodeOrigins(sec.Origins[start:end])
	})
	if err != nil {
		return err
	}
	idx.Buffer, err = w.planTable(sec.Buffer, per)
	return err
}

// forEachChunk runs fn(i) for every i in [0, n) on the store's chunk
// pool. The pool reports the lowest failing i, so a failure reads the
// same at every width and schedule. The work is never cancelled midway —
// a rotation half-done by cancellation is no better than one half-done
// by a crash — so ctx only carries the trace.
func (s *Store) forEachChunk(ctx context.Context, n int, fn func(i int) error) error {
	return s.chunks.ForEach(context.WithoutCancel(ctx), n, func(_ context.Context, i int) error { return fn(i) })
}

// rotateSnapshot writes one dataset's chunked snapshot: all chunks first
// (durable before anything references them), then the atomically rotated
// index, then the GC sweep of chunks the new index no longer references.
// Chunks that already exist are re-linked while planning, on the calling
// goroutine; the new chunks of all four sections are then written as one
// batch of jobs on the store's pool, each fsynced before the one
// directory sync below.
// Callers hold the dataset's rotation lock exclusively.
func (s *Store) rotateSnapshot(ctx context.Context, rec *Record, keyEnc string, sec *core.StateSections) error {
	dir := s.datasetDir(rec.ID)
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return fmt.Errorf("store: creating dataset directory: %w", err)
	}
	cs := newDirChunks(filepath.Join(dir, chunksDirName))
	w := &chunkWriter{cs: cs, stats: &s.snap, queued: make(map[string]struct{}), crash: s.testCrash}
	idx := &indexFile{
		Version:   indexVersion,
		ID:        rec.ID,
		Name:      rec.Name,
		Created:   rec.Created,
		KeyEnc:    keyEnc,
		Config:    configToFile(rec.Config),
		WALSeq:    rec.WALSeq,
		ChunkRows: s.chunkRows,
		Meta:      sec.Meta,
	}
	_, cw := obs.Start(ctx, "snapshot.chunks")
	err := w.plan(idx, sec, s.chunkRows)
	if err == nil {
		err = s.forEachChunk(ctx, len(w.jobs), func(i int) error { return w.jobs[i]() })
	}
	// All referenced chunks must be durable before the index can name
	// them — the directory sync is what pins the renames.
	if err == nil {
		err = cs.Sync()
	}
	cw.End()
	if err != nil {
		return err
	}

	if err := w.checkpoint("index"); err != nil {
		return err
	}
	data, err := marshalIndex(idx)
	if err != nil {
		return err
	}
	_, iw := obs.Start(ctx, "snapshot.index")
	err = writeFileAtomic(filepath.Join(dir, snapshotName), data, 0o600)
	iw.End()
	if err != nil {
		return fmt.Errorf("store: writing snapshot index: %w", err)
	}
	s.snap.bytesWritten.Add(uint64(len(data)))

	_, gc := obs.Start(ctx, "snapshot.gc")
	err = gcChunks(cs, idx, s.testCrash)
	gc.End()
	// A failed sweep leaks disk, never correctness: the chunks it left
	// behind are unreferenced and the next rotation sweeps them again.
	// The debt ledger (and the f2_snapshot_gc_failures_total counter it
	// feeds) is how anyone finds out before the disk does.
	s.noteGCDebt(rec.ID, err)
	return err
}

// gcChunks unlinks every stored object the index does not reference —
// chunks orphaned by rotation (rewritten trailing ranges, pre-rebuild
// content) and crash debris (temp files, chunks from a save whose index
// never rotated in). Safe by construction: the index is already durable,
// the previous index is gone (atomic rename), and the caller holds the
// rotation lock, so nothing not in idx can be read by anyone.
func gcChunks(cs ChunkStore, idx *indexFile, crash func(string) error) error {
	live := make(map[string]struct{})
	for _, m := range [][]chunkRef{idx.Current.Chunks, idx.Encrypted.Chunks, idx.Origins.Chunks, idx.Buffer.Chunks} {
		for _, ref := range m {
			live[ref.Name] = struct{}{}
		}
	}
	names, err := cs.ListChunks()
	if err != nil {
		return err
	}
	for _, name := range names {
		if _, ok := live[name]; ok {
			continue
		}
		if err := cs.DeleteChunk(name); err != nil {
			return err
		}
		if crash != nil {
			if err := crash("gc"); err != nil {
				return err
			}
		}
	}
	return nil
}

// LoadState hydrates what one dataset's appends and flushes need: the
// plaintext and buffer sections, read and verified chunk by chunk, plus
// the index's metadata. The encrypted and origins sections stay on disk
// behind the state's deferred result (core.ResultLoader), which reads
// them when something first reads the ciphertext. Boot (LoadAll) returns
// index-level facts only; the server calls this on the first request
// that actually needs the tables. Held shared against the rotation lock,
// so a concurrent rotation's GC cannot unlink chunks mid-read.
func (s *Store) LoadState(ctx context.Context, id string) (*core.UpdaterState, error) {
	ctx, sp := obs.Start(ctx, "snapshot.hydrate")
	defer sp.End()
	rl := s.rot(id)
	rl.RLock()
	st, err := s.readState(ctx, id)
	rl.RUnlock()
	return st, err
}

func (s *Store) readState(ctx context.Context, id string) (*core.UpdaterState, error) {
	dir := s.datasetDir(id)
	data, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	idx, err := parseIndex(data)
	if err != nil {
		return nil, err
	}
	cs := newDirChunks(filepath.Join(dir, chunksDirName))
	cur, err := readTableSection(ctx, s, cs, idx.Current, "current")
	if err != nil {
		return nil, err
	}
	// The buffer holds pending plaintext rows: the current section's
	// schema, so the index records it once.
	buffer, err := readTableSection(ctx, s, cs, tableManifest{
		Columns: idx.Current.Columns, Rows: idx.Buffer.Rows, Chunks: idx.Buffer.Chunks,
	}, "buffer")
	if err != nil {
		return nil, err
	}
	return core.AssembleState(&core.StateSections{
		Meta:    idx.Meta,
		Current: cur,
		Buffer:  buffer,
		Load:    s.resultLoader(id, cs, idx.Encrypted, idx.Origins),
	})
}

// resultLoader returns the deferred read of one index generation's
// encrypted and origins sections. It is bound to that generation's
// manifests and reads like LoadState: every chunk verified, under the
// rotation read-lock, on the store's pool. The chunks it names stay live
// while the result is deferred: the server rotates only after a flush,
// which replaces the deferred result unread, and a save of a deferred
// capture loads it first and so re-links the very same chunks.
func (s *Store) resultLoader(id string, cs ByteSource, enc tableManifest, origins sectionManifest) core.ResultLoader {
	return func(ctx context.Context) (*relation.Table, []core.RowOrigin, error) {
		ctx, sp := obs.Start(ctx, "snapshot.hydrate_result")
		defer sp.End()
		sp.SetAttr("rows", enc.Rows)
		sp.SetAttr("chunks", len(enc.Chunks)+len(origins.Chunks))
		rl := s.rot(id)
		rl.RLock()
		t, o, err := s.readResult(ctx, cs, enc, origins)
		rl.RUnlock()
		return t, o, err
	}
}

// readResult reads the encrypted and origins sections. The caller holds
// the dataset's rotation lock shared.
func (s *Store) readResult(ctx context.Context, cs ByteSource, enc tableManifest, origins sectionManifest) (*relation.Table, []core.RowOrigin, error) {
	t, err := readTableSection(ctx, s, cs, enc, "encrypted")
	if err != nil {
		return nil, nil, err
	}
	parts, err := readSection[core.RowOrigin](ctx, s, cs, origins, "origins")
	if err != nil {
		return nil, nil, err
	}
	return t, slices.Concat(parts...), nil
}

// readChunkPayload fetches one chunk and verifies it end to end: frame
// CRC first, then that the payload actually hashes to the name the index
// asked for — a swapped or truncated chunk file cannot slip rows into the
// wrong place.
func readChunkPayload(src ByteSource, name string) ([]byte, error) {
	frame, err := src.ReadChunk(name)
	if err != nil {
		return nil, err
	}
	payload, err := decodeChunkFrame(frame)
	if err != nil {
		return nil, fmt.Errorf("store: chunk %s: %w", name, err)
	}
	if chunkName(payload) != name {
		return nil, fmt.Errorf("store: chunk %s content does not match its name", name)
	}
	return payload, nil
}

// readSection fetches, verifies and decodes one section's chunks on the
// store's pool, each into its own slot, and returns them in manifest
// order, enforcing the per-chunk and per-section row counts the index
// declared. A table chunk decodes to its columns (T is []string), an
// origins chunk to its origins (T is core.RowOrigin).
func readSection[T []string | core.RowOrigin](ctx context.Context, s *Store, src ByteSource, m sectionManifest, section string) ([][]T, error) {
	parts := make([][]T, len(m.Chunks))
	rows := make([]int, len(m.Chunks))
	err := s.forEachChunk(ctx, len(m.Chunks), func(i int) error {
		ref := m.Chunks[i]
		payload, err := readChunkPayload(src, ref.Name)
		if err != nil {
			return err
		}
		switch p := any(&parts[i]).(type) {
		case *[][]string:
			*p, err = decodeTableChunk(payload)
			if err == nil {
				rows[i] = len((*p)[0])
			}
		case *[]core.RowOrigin:
			*p, err = decodeOrigins(payload)
			rows[i] = len(*p)
		}
		if err != nil {
			return fmt.Errorf("store: decoding %s chunk %s: %w", section, ref.Name, err)
		}
		if rows[i] != ref.Rows {
			return fmt.Errorf("store: %s chunk %s holds %d rows, manifest says %d", section, ref.Name, rows[i], ref.Rows)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := 0
	for _, r := range rows {
		n += r
	}
	if n != m.Rows {
		return nil, fmt.Errorf("store: %s section has %d rows, manifest says %d", section, n, m.Rows)
	}
	return parts, nil
}

// readTableSection hydrates one table section straight into columns.
// The chunks' columns are joined into one backing array per section,
// each column's capacity clipped to its length so appending to one
// reallocates it rather than running into the next. A one-chunk section
// keeps the chunk's own columns, which are clipped the same way.
func readTableSection(ctx context.Context, s *Store, src ByteSource, t tableManifest, section string) (*relation.Table, error) {
	sch, err := relation.NewSchema(t.Columns...)
	if err != nil {
		return nil, fmt.Errorf("store: %s section schema: %w", section, err)
	}
	parts, err := readSection[[]string](ctx, s, src, sectionManifest{Rows: t.Rows, Chunks: t.Chunks}, section)
	if err != nil {
		return nil, err
	}
	width := sch.NumAttrs()
	for i, p := range parts {
		if len(p) != width {
			return nil, fmt.Errorf("store: %s chunk %s has %d columns, schema has %d", section, t.Chunks[i].Name, len(p), width)
		}
	}
	cols := make([][]string, width)
	if len(parts) == 1 {
		cols = parts[0]
	} else {
		cells := make([]string, 0, t.Rows*width)
		for a := range cols {
			start := len(cells)
			for _, p := range parts {
				cells = append(cells, p[a]...)
			}
			cols[a] = cells[start:len(cells):len(cells)]
		}
	}
	return relation.FromColumns(sch, cols)
}
