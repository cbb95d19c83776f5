package store

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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

// chunkWriter accumulates one rotation's chunk writes against a backend,
// updating the store-wide counters and honoring the crash-injection test
// hook.
type chunkWriter struct {
	cs    ChunkStore
	stats *snapStats
	crash func(point string) error
}

func (w *chunkWriter) checkpoint(point string) error {
	if w.crash == nil {
		return nil
	}
	return w.crash(point)
}

// put stores one payload by content address, skipping the write (and the
// compression) when the backend already holds it.
func (w *chunkWriter) put(payload []byte, rows int) (chunkRef, error) {
	name := chunkName(payload)
	ref := chunkRef{Name: name, Rows: rows, Bytes: len(payload)}
	has, err := w.cs.HasChunk(name)
	if err != nil {
		return chunkRef{}, err
	}
	if has {
		w.stats.chunksReused.Add(1)
		w.stats.bytesReused.Add(uint64(len(payload)))
		return ref, nil
	}
	frame, err := encodeChunkFrame(payload)
	if err != nil {
		return chunkRef{}, err
	}
	if err := w.cs.WriteChunk(name, frame); err != nil {
		return chunkRef{}, err
	}
	w.stats.chunksWritten.Add(1)
	w.stats.bytesWritten.Add(uint64(len(frame)))
	if err := w.checkpoint("chunk"); err != nil {
		return chunkRef{}, err
	}
	return ref, nil
}

// writeSection chunks a row-shaped section into fixed row-ranges. Because
// flushes only append to these sections, every range except the trailing
// partial one keeps its content — and its name — across rotations.
func writeSection[T any](w *chunkWriter, items []T, per int) (sectionManifest, error) {
	m := sectionManifest{Rows: len(items)}
	for start := 0; start < len(items); start += per {
		end := min(start+per, len(items))
		payload, err := json.Marshal(items[start:end])
		if err != nil {
			return sectionManifest{}, fmt.Errorf("store: encoding chunk: %w", err)
		}
		ref, err := w.put(payload, end-start)
		if err != nil {
			return sectionManifest{}, err
		}
		m.Chunks = append(m.Chunks, ref)
	}
	return m, nil
}

func writeTableSection(w *chunkWriter, t *relation.JSONTable, per int) (tableManifest, error) {
	m, err := writeSection(w, t.Rows, per)
	if err != nil {
		return tableManifest{}, err
	}
	return tableManifest{Columns: t.Columns, Rows: m.Rows, Chunks: m.Chunks}, nil
}

// rotateSnapshot writes one dataset's chunked snapshot: all chunks first
// (durable before anything references them), then the atomically rotated
// index, then the GC sweep of chunks the new index no longer references.
// Callers hold the dataset's rotation lock exclusively.
func (s *Store) rotateSnapshot(ctx context.Context, rec *Record, keyEnc string, sec *core.StateSections) error {
	dir := s.datasetDir(rec.ID)
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return fmt.Errorf("store: creating dataset directory: %w", err)
	}
	cs := newDirChunks(filepath.Join(dir, chunksDirName))
	w := &chunkWriter{cs: cs, stats: &s.snap, crash: s.testCrash}

	_, cw := obs.Start(ctx, "snapshot.chunks")
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
	var err error
	if idx.Current, err = writeTableSection(w, sec.Current, s.chunkRows); err != nil {
		cw.End()
		return err
	}
	if idx.Encrypted, err = writeTableSection(w, sec.Encrypted, s.chunkRows); err != nil {
		cw.End()
		return err
	}
	if idx.Origins, err = writeSection(w, sec.Origins, s.chunkRows); err != nil {
		cw.End()
		return err
	}
	if idx.Buffer, err = writeSection(w, sec.Buffer, s.chunkRows); err != nil {
		cw.End()
		return err
	}
	// All referenced chunks must be durable before the index can name
	// them — the directory sync is what pins the renames.
	if err := cs.Sync(); err != nil {
		cw.End()
		return err
	}
	cw.End()

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

// LoadState hydrates one dataset's full updater state from its snapshot,
// reading and verifying every chunk. Boot (LoadAll) returns index-level
// facts only; the server calls this on the first request that actually
// needs the tables. Held shared against the rotation lock, so a
// concurrent rotation's GC cannot unlink chunks mid-read.
func (s *Store) LoadState(ctx context.Context, id string) (*core.UpdaterState, error) {
	_, sp := obs.Start(ctx, "snapshot.hydrate")
	defer sp.End()
	rl := s.rot(id)
	rl.RLock()
	st, err := s.readState(id)
	rl.RUnlock()
	return st, err
}

func (s *Store) readState(id string) (*core.UpdaterState, error) {
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
	cur, err := readTableSection(cs, idx.Current, "current")
	if err != nil {
		return nil, err
	}
	enc, err := readTableSection(cs, idx.Encrypted, "encrypted")
	if err != nil {
		return nil, err
	}
	origins, err := readSection[core.RowOrigin](cs, idx.Origins, "origins")
	if err != nil {
		return nil, err
	}
	buffer, err := readSection[[]string](cs, idx.Buffer, "buffer")
	if err != nil {
		return nil, err
	}
	return core.AssembleState(&core.StateSections{
		Meta:      idx.Meta,
		Current:   cur,
		Encrypted: enc,
		Origins:   origins,
		Buffer:    buffer,
	})
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

// readSection reassembles one row-shaped section from its manifest,
// enforcing the per-chunk and per-section row counts the index declared.
func readSection[T any](src ByteSource, m sectionManifest, section string) ([]T, error) {
	out := make([]T, 0, len(m.Chunks))
	for _, ref := range m.Chunks {
		payload, err := readChunkPayload(src, ref.Name)
		if err != nil {
			return nil, err
		}
		var items []T
		if err := json.Unmarshal(payload, &items); err != nil {
			return nil, fmt.Errorf("store: decoding %s chunk %s: %w", section, ref.Name, err)
		}
		if len(items) != ref.Rows {
			return nil, fmt.Errorf("store: %s chunk %s holds %d rows, manifest says %d", section, ref.Name, len(items), ref.Rows)
		}
		out = append(out, items...)
	}
	if len(out) != m.Rows {
		return nil, fmt.Errorf("store: %s section has %d rows, manifest says %d", section, len(out), m.Rows)
	}
	return out, nil
}

func readTableSection(src ByteSource, t tableManifest, section string) (*relation.JSONTable, error) {
	rows, err := readSection[[]string](src, sectionManifest{Rows: t.Rows, Chunks: t.Chunks}, section)
	if err != nil {
		return nil, err
	}
	return &relation.JSONTable{Columns: t.Columns, Rows: rows}, nil
}
