package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"f2/internal/core"
)

// The three decoders that consume bytes straight off disk — the chunk
// frame, the snapshot index blob, and the WAL record stream — are exactly
// the surfaces a corrupt disk or hostile data directory reaches first.
// Each fuzz target asserts the decoder's contract on arbitrary input:
// return an error or a validated value, never panic, never over-read,
// never allocate beyond its caps. Seed corpora are checked in under
// testdata/fuzz; CI runs each target briefly on every push.

func fuzzFrameSeed(f *testing.F, payload []byte) {
	f.Helper()
	frame, err := encodeChunkFrame(payload)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
}

// freshFrame is the reference encoder: encodeChunkFrame's format built
// with a flate.Writer of its own, as the encoder did before its
// compressor state was pooled.
func freshFrame(t testing.TB, payload []byte) []byte {
	t.Helper()
	var body bytes.Buffer
	zw, err := flate.NewWriter(&body, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	codec, b := byte(chunkCodecFlate), body.Bytes()
	if len(b) >= len(payload) {
		codec, b = chunkCodecRaw, payload
	}
	frame := make([]byte, chunkHeaderSize, chunkHeaderSize+len(b))
	copy(frame, chunkMagic)
	frame[4] = chunkFrameVersion
	frame[5] = codec
	binary.BigEndian.PutUint32(frame[6:10], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[10:14], crc32.ChecksumIEEE(payload))
	return append(frame, b...)
}

// checkPooledMatchesFresh asserts the pooled encoder's frame for payload
// equals the reference encoder's, byte for byte.
func checkPooledMatchesFresh(t testing.TB, payload []byte) {
	t.Helper()
	got, err := encodeChunkFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	if want := freshFrame(t, payload); !bytes.Equal(got, want) {
		t.Fatalf("pooled frame of a %d-byte payload differs from a fresh writer's (%d vs %d bytes)", len(payload), len(got), len(want))
	}
}

// TestPooledFrameMatchesFresh: payloads of different sizes and kinds go
// through the pooled compressor in sequence — so each reuses state the
// previous one left — and every frame must equal a fresh writer's.
// Chunk names are content addresses of the payload, but the frame bytes
// are what a later rotation re-links, so they must not drift either.
func TestPooledFrameMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	noise := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	rows := func(n int) []byte {
		var b bytes.Buffer
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, `["a%d","b%d","id%d"],`, rng.Intn(3), rng.Intn(4), i)
		}
		return b.Bytes()
	}
	payloads := [][]byte{
		rows(2000),   // compressible, several flate blocks
		noise(70000), // incompressible: raw codec
		{},           // empty
		rows(3),      // small, after a large one
		noise(5),     // tiny incompressible
		rows(20000),  // larger than flate's window
		bytes.Repeat([]byte("x"), 1<<16),
		noise(300),
	}
	raw := 0
	for round := 0; round < 2; round++ {
		for _, p := range payloads {
			checkPooledMatchesFresh(t, p)
			frame, err := encodeChunkFrame(p)
			if err != nil {
				t.Fatal(err)
			}
			if frame[5] == chunkCodecRaw {
				raw++
			}
			back, err := decodeChunkFrame(frame)
			if err != nil || !bytes.Equal(back, p) {
				t.Fatalf("pooled frame of a %d-byte payload does not round-trip: %v", len(p), err)
			}
		}
	}
	if raw == 0 {
		t.Fatal("no payload took the raw codec")
	}
}

func FuzzChunkFrame(f *testing.F) {
	fuzzFrameSeed(f, []byte(`[["a0","b1","id7"],["a2","b0","id8"]]`))
	fuzzFrameSeed(f, bytes.Repeat([]byte("x"), 4096)) // compressible → flate codec
	fuzzFrameSeed(f, []byte{})                        // empty payload
	f.Add([]byte("F2CK"))                             // bare magic
	f.Add([]byte{})                                   // empty frame
	f.Fuzz(func(t *testing.T, data []byte) {
		// Any bytes are also a payload: the pooled encoder must frame
		// them exactly as a fresh writer would.
		checkPooledMatchesFresh(t, data)
		payload, err := decodeChunkFrame(data)
		if err != nil {
			return
		}
		// A frame that decodes must be internally consistent: re-encoding
		// its payload yields a frame that decodes to the same bytes (the
		// codec byte may differ; the payload may not).
		frame, err := encodeChunkFrame(payload)
		if err != nil {
			t.Fatalf("valid payload does not re-encode: %v", err)
		}
		back, err := decodeChunkFrame(frame)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !bytes.Equal(back, payload) {
			t.Fatal("payload changed across re-encode")
		}
		checkPooledMatchesFresh(t, payload)
	})
}

func FuzzIndexBlob(f *testing.F) {
	// A real index shape, produced by the marshal path.
	seed, err := marshalIndex(&indexFile{
		Version: indexVersion, ID: "ds_aaaaaaaaaaaa", Name: "t",
		Created: time.Unix(0, 0).UTC(), KeyEnc: "sealed", ChunkRows: 512,
		Meta: &core.UpdaterMeta{Strategy: "incremental", LastFlush: "none"},
		Current: tableManifest{Columns: []string{"A", "B"}, Rows: 2,
			Chunks: []chunkRef{{Name: chunkName([]byte("x")), Rows: 2, Bytes: 9}}},
		Encrypted: tableManifest{Columns: []string{"A", "B"}, Rows: 2,
			Chunks: []chunkRef{{Name: chunkName([]byte("y")), Rows: 2, Bytes: 9}}},
		Origins: sectionManifest{Rows: 2, Chunks: []chunkRef{{Name: chunkName([]byte("z")), Rows: 2, Bytes: 4}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":1,"id":"x","updater":{}}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := parseIndex(data)
		if err != nil {
			return
		}
		// An index that parses must satisfy the manifest invariants the
		// rest of the store relies on, and survive a marshal/parse
		// round-trip.
		for _, refs := range [][]chunkRef{idx.Current.Chunks, idx.Encrypted.Chunks, idx.Origins.Chunks, idx.Buffer.Chunks} {
			for _, r := range refs {
				if !validChunkName(r.Name) {
					t.Fatalf("parseIndex accepted invalid chunk name %q", r.Name)
				}
			}
		}
		out, err := marshalIndex(idx)
		if err != nil {
			t.Fatalf("accepted index does not re-marshal: %v", err)
		}
		if _, err := parseIndex(out); err != nil {
			t.Fatalf("re-marshaled index does not re-parse: %v", err)
		}
	})
}

func FuzzWALReader(f *testing.F) {
	rec1, err := frameWALRecord(Batch{Seq: 1, Rows: [][]string{{"a", "b", "id1"}}})
	if err != nil {
		f.Fatal(err)
	}
	rec2, err := frameWALRecord(Batch{Seq: 2, Rows: [][]string{{"c", "d", "id2"}}})
	if err != nil {
		f.Fatal(err)
	}
	both := append(append([]byte{}, rec1...), rec2...)
	f.Add(both)
	f.Add(both[:len(both)-3]) // torn tail
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), walName)
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		batches, err := readWAL(path)
		if err != nil {
			t.Fatalf("readWAL must treat corruption as end-of-journal, got error: %v", err)
		}
		// Every returned batch consumed at least a full header plus its
		// checksummed payload, so the count is bounded by the input size —
		// anything more means the reader invented records.
		if len(batches)*walHeaderSize > len(data) {
			t.Fatalf("replayed %d batches from a %d-byte journal — over-read", len(batches), len(data))
		}
		for _, b := range batches {
			if _, err := frameWALRecord(b); err != nil {
				t.Fatalf("replayed batch does not re-frame: %v", err)
			}
		}
	})
}
