package store

import (
	"encoding/json"
	"fmt"
	"time"

	"f2/internal/core"
)

// The v3 snapshot is an index blob plus content-addressed chunks. The
// index — still named snapshot.json, still rotated atomically — is the
// only thing boot reads eagerly: identity, sealed key, configuration, WAL
// watermark, the updater's table-free metadata, and a manifest naming the
// chunks that hold each bulky section. The manifest invariants:
//
//  1. Every chunk name is the hex SHA-256 of that chunk's uncompressed
//     payload (verified on read), and names are valid per validChunkName.
//  2. Within a section, chunks are listed in row order and their Rows
//     fields sum to the section's Rows — hydration fails loudly on any
//     mismatch rather than assembling a dataset with missing rows.
//  3. The index is written only after every chunk it references is
//     durable (chunk fsync + directory sync), so a readable index never
//     dangles.
//
// Invariant 3 plus atomic index rotation is the whole GC safety argument:
// chunks unreferenced by the *current* index belong to no readable
// snapshot (the previous index was atomically replaced), so unlinking
// them — even interrupted halfway — can only remove garbage.

// indexVersion is the snapshot format version of the chunked index.
// Version 3 stores chunk payloads in the columnar codec (codec.go);
// version 2 stored JSON row arrays and is not read.
const indexVersion = 3

// chunkRef names one chunk of a section and what it covers.
type chunkRef struct {
	// Name is the content address: hex SHA-256 of the uncompressed
	// payload.
	Name string `json:"name"`
	// Rows is how many rows (or origins) the chunk covers.
	Rows int `json:"rows"`
	// Bytes is the uncompressed payload size, recorded for accounting.
	Bytes int `json:"bytes"`
}

// sectionManifest lists the chunks of one row-shaped section in order.
type sectionManifest struct {
	Rows   int        `json:"rows"`
	Chunks []chunkRef `json:"chunks,omitempty"`
}

// tableManifest is a sectionManifest plus the table's schema, which lives
// in the index so summaries and width checks never touch a chunk.
type tableManifest struct {
	Columns []string   `json:"columns"`
	Rows    int        `json:"rows"`
	Chunks  []chunkRef `json:"chunks,omitempty"`
}

// indexFile is the on-disk JSON shape of a v3 snapshot index.
type indexFile struct {
	Version int        `json:"version"`
	ID      string     `json:"id"`
	Name    string     `json:"name"`
	Created time.Time  `json:"created"`
	KeyEnc  string     `json:"keyEnc"`
	Config  configFile `json:"config"`
	WALSeq  uint64     `json:"walSeq"`
	// ChunkRows is the row-range size this index was chunked with.
	ChunkRows int `json:"chunkRows"`
	// Meta is the updater's table-free state: strategy knobs, flush
	// counters, MASs, and the report — a few hundred bytes regardless of
	// dataset size, so it lives inline.
	Meta      *core.UpdaterMeta `json:"meta"`
	Current   tableManifest     `json:"current"`
	Encrypted tableManifest     `json:"encrypted"`
	Origins   sectionManifest   `json:"origins"`
	Buffer    sectionManifest   `json:"buffer"`
}

func marshalIndex(f *indexFile) ([]byte, error) {
	data, err := json.Marshal(f)
	if err != nil {
		return nil, fmt.Errorf("store: encoding snapshot index: %w", err)
	}
	return data, nil
}

// parseIndex decodes and validates a v3 index blob. Validation covers
// everything hydration will rely on — version, presence, chunk-name
// shape, and per-section row accounting — so a hostile or corrupt index
// is rejected here instead of steering chunk reads or assembling a
// partial dataset.
func parseIndex(data []byte) (*indexFile, error) {
	var f indexFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("store: decoding snapshot index: %w", err)
	}
	if f.Version != indexVersion {
		return nil, fmt.Errorf("store: snapshot index version %d, want %d", f.Version, indexVersion)
	}
	if f.ID == "" || f.Meta == nil {
		return nil, fmt.Errorf("store: snapshot index is incomplete")
	}
	if f.ChunkRows <= 0 {
		return nil, fmt.Errorf("store: snapshot index has chunkRows %d", f.ChunkRows)
	}
	if err := checkManifest("current", f.Current.Rows, f.Current.Chunks); err != nil {
		return nil, err
	}
	if err := checkManifest("encrypted", f.Encrypted.Rows, f.Encrypted.Chunks); err != nil {
		return nil, err
	}
	if err := checkManifest("origins", f.Origins.Rows, f.Origins.Chunks); err != nil {
		return nil, err
	}
	if err := checkManifest("buffer", f.Buffer.Rows, f.Buffer.Chunks); err != nil {
		return nil, err
	}
	if len(f.Current.Columns) == 0 || len(f.Encrypted.Columns) == 0 {
		return nil, fmt.Errorf("store: snapshot index has no schema")
	}
	return &f, nil
}

func checkManifest(section string, rows int, chunks []chunkRef) error {
	if rows < 0 {
		return fmt.Errorf("store: snapshot index: %s has %d rows", section, rows)
	}
	total := 0
	for _, c := range chunks {
		if !validChunkName(c.Name) {
			return fmt.Errorf("store: snapshot index: %s references invalid chunk name %q", section, c.Name)
		}
		if c.Rows <= 0 || c.Bytes < 0 {
			return fmt.Errorf("store: snapshot index: %s chunk %s covers %d rows / %d bytes", section, c.Name, c.Rows, c.Bytes)
		}
		if total > rows-c.Rows {
			return fmt.Errorf("store: snapshot index: %s chunks cover more than %d rows", section, rows)
		}
		total += c.Rows
	}
	if total != rows {
		return fmt.Errorf("store: snapshot index: %s chunks cover %d of %d rows", section, total, rows)
	}
	return nil
}
