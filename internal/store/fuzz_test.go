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
	"reflect"
	"runtime"
	"testing"
	"time"

	"f2/internal/core"
	"f2/internal/relation"
)

// The decoders that consume bytes straight off disk — the chunk frame,
// the columnar chunk payload, the snapshot index blob, and the WAL record
// stream — are exactly the surfaces a corrupt disk or hostile data
// directory reaches first. Each fuzz target asserts the decoder's contract on arbitrary input:
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

// TestDeclaredSizeBoundedByBody: a flate frame's declared size is
// checked against what its body could inflate to before anything is
// sized from it — a 16-byte frame claiming 64 MiB errors without
// allocating the claim — while the most compressible payloads still
// round-trip.
func TestDeclaredSizeBoundedByBody(t *testing.T) {
	frame := make([]byte, chunkHeaderSize, chunkHeaderSize+2)
	copy(frame, chunkMagic)
	frame[4] = chunkFrameVersion
	frame[5] = chunkCodecFlate
	binary.BigEndian.PutUint32(frame[6:10], 64<<20)
	frame = append(frame, 0x03, 0x00) // an empty final fixed-Huffman block
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeChunkFrame(frame)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 16-byte frame claiming 64 MiB decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("rejecting a 16-byte frame allocated %d bytes", grew)
	}
	for _, p := range [][]byte{make([]byte, 8<<20), bytes.Repeat([]byte("ab"), 1<<20)} {
		frame, err := encodeChunkFrame(p)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeChunkFrame(frame)
		if err != nil || !bytes.Equal(back, p) {
			t.Fatalf("a %d-byte payload compressed to %d bytes does not round-trip: %v", len(p), len(frame), err)
		}
	}
}

// TestChunkPayloadRejectsHostile pins the columnar decoders' rules on
// claims the payload cannot back: each input must error.
func TestChunkPayloadRejectsHostile(t *testing.T) {
	tables := map[string][]byte{
		"empty":          {},
		"4G rows":        {0xff, 0xff, 0xff, 0xff, 0x0f, 0x01},
		"zero columns":   {0x01, 0x00, 0x00},
		"65 columns":     {0x00, 0x41},
		"cells overrun":  {0x02, 0x02, 0x01, 0x01, 0x01, 0x01, 'a', 'b', 'c'},
		"cell overrun":   {0x01, 0x01, 0x05, 'a'},
		"trailing bytes": {0x01, 0x01, 0x01, 'a', 'b'},
		"truncated":      {0x01, 0x01, 0x81},
		"overlong":       bytes.Repeat([]byte{0xff}, 11),
	}
	for name, p := range tables {
		if cols, err := decodeTableChunk(p); err == nil {
			t.Errorf("table chunk %q decoded to %d columns", name, len(cols))
		}
	}
	origins := map[string][]byte{
		"empty":          {},
		"rows unbacked":  {0x02, 0x00, 0x00, 0x00, 0x00, 0x00},
		"trailing bytes": {0x01, 0x00, 0x00, 0x00, 0x00},
		"truncated":      {0x01, 0x00, 0x00, 0x80},
	}
	for name, p := range origins {
		if o, err := decodeOrigins(p); err == nil {
			t.Errorf("origins chunk %q decoded to %d origins", name, len(o))
		}
	}
}

// fuzzTable builds a table from fuzz bytes: the first byte picks the
// width, then each cell is a length byte (mod 16) and that many bytes,
// so cells are empty, hold NULs and are not valid UTF-8 as often as not.
func fuzzTable(data []byte) *relation.Table {
	if len(data) == 0 {
		return nil
	}
	width := 1 + int(data[0]%4)
	var cells []string
	for rest := data[1:]; len(rest) > 0; {
		n := min(int(rest[0]%16), len(rest)-1)
		cells = append(cells, string(rest[1:1+n]))
		rest = rest[1+n:]
	}
	names := []string{"A", "B", "C", "D"}[:width]
	tbl := relation.NewTable(relation.MustSchema(names...))
	for len(cells) >= width {
		if err := tbl.AppendRow(cells[:width]); err != nil {
			panic(err) // the width is the schema's
		}
		cells = cells[width:]
	}
	return tbl
}

// fuzzOrigins builds provenance from fuzz bytes, nine bytes a row: a
// kind, then eight bytes read as a signed source row (so -1 and extreme
// values occur) and as a carried set with its high bits set.
func fuzzOrigins(data []byte) []core.RowOrigin {
	var out []core.RowOrigin
	for ; len(data) >= 9; data = data[9:] {
		w := binary.LittleEndian.Uint64(data[1:9])
		out = append(out, core.RowOrigin{
			Kind:      core.RowKind(data[0]),
			SourceRow: int(int64(w) >> (data[0] % 64)),
			Carried:   relation.AttrSet(w ^ 1<<63),
		})
	}
	return out
}

// FuzzChunkPayload holds the columnar chunk codec to two properties.
// Hostile bytes: both decoders error or return a value, never panic, and
// never allocate much more than the payload could back. Tables and
// origins built from the input (empty cells, NULs, invalid UTF-8, source
// row -1, high carried bits) round-trip exactly through encode→decode,
// whole and as a row range.
func FuzzChunkPayload(f *testing.F) {
	seed := relation.MustFromRows(relation.MustSchema("A", "B"), [][]string{{"a", ""}, {"\x00\xff", "é"}})
	f.Add(encodeTableChunk(seed, 0, 2))
	origins, err := encodeOrigins([]core.RowOrigin{
		{Kind: core.RowOriginal, SourceRow: 7, Carried: 3},
		{Kind: core.RowFakeEC, SourceRow: -1, Carried: 1 << 63},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(origins)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0x01}) // 4G rows claimed
	f.Add([]byte{0x01, 0x01, 0x05, 'a'})              // cell longer than the payload
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cols, terr := decodeTableChunk(data)
		origins, oerr := decodeOrigins(data)
		runtime.ReadMemStats(&after)
		// Cell headers are 16 bytes and a cell needs at least one
		// payload byte; origins are 24 bytes and need three.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 48*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if terr == nil && len(cols[0])*len(cols) > len(data) {
			t.Fatalf("%d bytes decoded to %d×%d cells", len(data), len(cols[0]), len(cols))
		}
		if oerr == nil && 3*len(origins) > len(data) {
			t.Fatalf("%d bytes decoded to %d origins", len(data), len(origins))
		}

		if tbl := fuzzTable(data); tbl != nil {
			n := tbl.NumRows()
			for _, r := range [][2]int{{0, n}, {n / 3, n}} {
				back, err := decodeTableChunk(encodeTableChunk(tbl, r[0], r[1]))
				if err != nil {
					t.Fatalf("rows %v do not decode: %v", r, err)
				}
				for a := range back {
					if want := tbl.Column(a)[r[0]:r[1]]; !reflect.DeepEqual(back[a], want) && len(want)+len(back[a]) > 0 {
						t.Fatalf("rows %v column %d: got %q, want %q", r, a, back[a], want)
					}
				}
			}
		}
		want := fuzzOrigins(data)
		payload, err := encodeOrigins(want)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeOrigins(payload)
		if err != nil {
			t.Fatalf("origins do not decode: %v", err)
		}
		if len(back)+len(want) > 0 && !reflect.DeepEqual(back, want) {
			t.Fatalf("origins: got %+v, want %+v", back, want)
		}
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
	// The previous format version is a rejected input, not a legacy one.
	v2 := bytes.Replace(seed, []byte(fmt.Sprintf(`"version":%d`, indexVersion)), []byte(`"version":2`), 1)
	if _, err := parseIndex(v2); err == nil {
		f.Fatal("a version-2 index parsed")
	}
	f.Add(v2)
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
