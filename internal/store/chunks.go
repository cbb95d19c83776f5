package store

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Chunked snapshots store the bulky, append-mostly sections of a dataset
// (plaintext rows, ciphertext rows, provenance) as content-addressed data
// chunks: each fixed row-range is encoded (codec.go), compressed,
// CRC-framed, and written to a file named by the hex SHA-256 of its
// *uncompressed* payload. Because flushes grow these sections by
// appending (incremental flushes never reorder settled rows), every full
// chunk keeps its content — and therefore its name — across rotations,
// so a rotation re-links existing chunks instead of rewriting the
// dataset. Naming by the uncompressed payload keeps dedup stable even if
// the compression level changes between versions.
//
// Chunk frame layout:
//
//	4 bytes magic "F2CK" | 1 byte frame version | 1 byte codec |
//	4 bytes big-endian uncompressed payload length |
//	4 bytes CRC32 (IEEE) of the uncompressed payload | body
//
// codec 0 stores the payload raw; codec 1 stores it DEFLATE-compressed.
// The CRC and length are always of the uncompressed payload, so a
// truncated or bit-flipped body fails the frame check regardless of
// codec.

const (
	chunkMagic        = "F2CK"
	chunkFrameVersion = 1

	chunkCodecRaw   = 0
	chunkCodecFlate = 1

	// chunkHeaderSize is the fixed frame prefix before the body.
	chunkHeaderSize = 4 + 1 + 1 + 4 + 4

	// maxChunkBytes caps the uncompressed payload so a hostile length
	// field cannot drive a multi-gigabyte allocation during decode.
	maxChunkBytes = 1 << 30

	// maxDeflateRatio is DEFLATE's largest expansion: a 258-byte match
	// coded in two bits. A flate body of n bytes inflates to at most
	// n*maxDeflateRatio plus deflateSlack (room for the bits a final
	// partial byte holds), so a frame declaring more is rejected before
	// the payload buffer is sized from its claim.
	maxDeflateRatio = 1032
	deflateSlack    = 1 << 10

	// chunkNameLen is the length of a chunk name: hex SHA-256.
	chunkNameLen = 2 * sha256.Size

	chunksDirName = "chunks"
)

// chunkName derives a payload's content address.
func chunkName(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// validChunkName reports whether name is a plausible content address:
// exactly 64 lowercase hex characters. Everything else — including path
// separators, dots, and uppercase hex — is rejected, so a hostile index
// blob cannot steer chunk reads outside the chunk directory.
func validChunkName(name string) bool {
	if len(name) != chunkNameLen {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Compressor and decompressor state is pooled: a fresh BestSpeed
// flate.Writer allocates over a megabyte, more than most chunks it
// compresses. Reset is documented to leave a writer (or reader) in the
// state NewWriter (NewReader) returns, so a pooled one produces the same
// bytes; TestPooledFrameMatchesFresh and FuzzChunkFrame hold it to that.
var (
	flateWriters = sync.Pool{New: func() any {
		zw, err := flate.NewWriter(nil, flate.BestSpeed)
		if err != nil {
			panic(err) // BestSpeed is a valid level; only a bug gets here
		}
		return zw
	}}
	flateReaders = sync.Pool{New: func() any { return flate.NewReader(bytes.NewReader(nil)) }}
)

// encodeChunkFrame frames a payload for storage: DEFLATE-compressed when
// that helps, raw when it does not (already-dense payloads).
func encodeChunkFrame(payload []byte) ([]byte, error) {
	if len(payload) > maxChunkBytes {
		return nil, fmt.Errorf("store: chunk payload is %d bytes, max %d", len(payload), maxChunkBytes)
	}
	// Compress straight behind a reserved header, so a compressed frame
	// is the buffer itself with no copy of the body.
	var buf bytes.Buffer
	var header [chunkHeaderSize]byte
	buf.Grow(chunkHeaderSize + len(payload)/2)
	buf.Write(header[:])
	zw := flateWriters.Get().(*flate.Writer)
	zw.Reset(&buf)
	_, err := zw.Write(payload)
	if err == nil {
		err = zw.Close()
	}
	zw.Reset(nil) // drop the buffer before pooling the writer
	flateWriters.Put(zw)
	if err != nil {
		return nil, fmt.Errorf("store: compressing chunk: %w", err)
	}
	frame := buf.Bytes()
	codec := byte(chunkCodecFlate)
	if len(frame)-chunkHeaderSize >= len(payload) {
		codec = chunkCodecRaw
		frame = make([]byte, chunkHeaderSize+len(payload))
		copy(frame[chunkHeaderSize:], payload)
	}
	copy(frame[0:4], chunkMagic)
	frame[4] = chunkFrameVersion
	frame[5] = codec
	binary.BigEndian.PutUint32(frame[6:10], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[10:14], crc32.ChecksumIEEE(payload))
	return frame, nil
}

// decodeChunkFrame inverts encodeChunkFrame. Every field is validated
// before it is trusted: magic, frame version, codec, the length cap, and
// finally the CRC of the decompressed payload. Hostile input errors; it
// never panics, and never allocates more than maxChunkBytes or more than
// the body could inflate to.
func decodeChunkFrame(frame []byte) ([]byte, error) {
	if len(frame) < chunkHeaderSize {
		return nil, fmt.Errorf("store: chunk frame truncated at %d bytes", len(frame))
	}
	if string(frame[0:4]) != chunkMagic {
		return nil, errors.New("store: bad chunk magic")
	}
	if frame[4] != chunkFrameVersion {
		return nil, fmt.Errorf("store: chunk frame version %d, want %d", frame[4], chunkFrameVersion)
	}
	codec := frame[5]
	size := binary.BigEndian.Uint32(frame[6:10])
	if size > maxChunkBytes {
		return nil, fmt.Errorf("store: chunk claims %d bytes, max %d", size, maxChunkBytes)
	}
	body := frame[chunkHeaderSize:]
	var payload []byte
	switch codec {
	case chunkCodecRaw:
		if len(body) != int(size) {
			return nil, fmt.Errorf("store: raw chunk body is %d bytes, header says %d", len(body), size)
		}
		payload = body
	case chunkCodecFlate:
		if uint64(size) > uint64(len(body))*maxDeflateRatio+deflateSlack {
			return nil, fmt.Errorf("store: %d-byte flate body cannot inflate to the %d bytes its header claims", len(body), size)
		}
		var err error
		if payload, err = inflate(body, int(size)); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("store: unknown chunk codec %d", codec)
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(frame[10:14]) {
		return nil, errors.New("store: chunk payload checksum mismatch")
	}
	return payload, nil
}

// inflate decompresses a flate body that must inflate to exactly size
// bytes: shorter is truncation, longer is corruption (one byte past size
// is read to tell the two apart), and nothing past size+1 is ever read.
func inflate(body []byte, size int) ([]byte, error) {
	zr := flateReaders.Get().(io.ReadCloser)
	reset := zr.(flate.Resetter).Reset
	defer func() {
		// Drop the body before pooling; Reset on a flate reader cannot fail.
		_ = reset(bytes.NewReader(nil), nil)
		flateReaders.Put(zr)
	}()
	if err := reset(bytes.NewReader(body), nil); err != nil {
		return nil, fmt.Errorf("store: inflating chunk: %w", err)
	}
	payload := make([]byte, size)
	n, err := io.ReadFull(zr, payload)
	switch {
	case err == nil:
		var extra [1]byte
		var m int
		m, err = io.ReadFull(zr, extra[:])
		n += m
		if err == io.EOF {
			err = nil
		}
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		err = nil // short: reported by the size check below
	}
	if err != nil {
		return nil, fmt.Errorf("store: inflating chunk: %w", err)
	}
	if n != size {
		return nil, fmt.Errorf("store: chunk inflates to %d bytes, header says %d", n, size)
	}
	return payload, nil
}

// ByteSource is the read side of chunk storage: fetch one framed chunk by
// content address. It is the part a remote backend (S3 GET, HTTP range
// server) must implement for lazy hydration to work against it.
type ByteSource interface {
	// ReadChunk returns the framed bytes of the named chunk.
	ReadChunk(name string) ([]byte, error)
}

// ChunkStore is a full chunk backend: reads plus the write, enumeration,
// and deletion a rotating writer needs. Only the local-dir backend exists
// today; the interface is the seam where a remote backend slots in.
type ChunkStore interface {
	ByteSource
	// HasChunk reports whether the named chunk already exists — the
	// dedup fast path, letting a rotation skip framing and compressing
	// payloads it already stores.
	HasChunk(name string) (bool, error)
	// WriteChunk durably stores a framed chunk under name. Writing a
	// name that already exists is a no-op (content addressing makes the
	// bytes identical by construction).
	WriteChunk(name string, frame []byte) error
	// ListChunks returns the names of every stored object, including
	// stray files that are not valid chunk names (crash debris); the
	// garbage collector removes anything the current index does not
	// reference.
	ListChunks() ([]string, error)
	// DeleteChunk removes one stored object named by ListChunks.
	DeleteChunk(name string) error
	// Sync makes every completed WriteChunk durable. Called once per
	// rotation, after all chunk writes and before the index rotates, so
	// the index never references a chunk the disk could forget.
	Sync() error
}

// dirChunks is the local-directory ChunkStore: one file per chunk inside
// a dataset's chunks/ directory. Writes go through a same-directory temp
// file, fsync, and rename, so a crash mid-write leaves only a temp file —
// never a torn chunk under a valid name — and the next rotation's GC
// sweeps the debris.
type dirChunks struct {
	dir string
}

func newDirChunks(dir string) *dirChunks { return &dirChunks{dir: dir} }

func (c *dirChunks) path(name string) (string, error) {
	if !validChunkName(name) {
		return "", fmt.Errorf("store: invalid chunk name %q", name)
	}
	return filepath.Join(c.dir, name), nil
}

func (c *dirChunks) ReadChunk(name string) ([]byte, error) {
	p, err := c.path(name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, fmt.Errorf("store: reading chunk %s: %w", name, err)
	}
	return data, nil
}

func (c *dirChunks) HasChunk(name string) (bool, error) {
	p, err := c.path(name)
	if err != nil {
		return false, err
	}
	if _, err := os.Stat(p); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return false, nil
		}
		return false, fmt.Errorf("store: probing chunk %s: %w", name, err)
	}
	return true, nil
}

func (c *dirChunks) WriteChunk(name string, frame []byte) error {
	p, err := c.path(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(c.dir, 0o700); err != nil {
		return fmt.Errorf("store: creating chunk directory: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, name[:8]+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: writing chunk %s: %w", name, err)
	}
	tmpPath := tmp.Name()
	cleanup := func() {
		_ = tmp.Close()
		os.Remove(tmpPath)
	}
	if _, err := tmp.Write(frame); err != nil {
		cleanup()
		return fmt.Errorf("store: writing chunk %s: %w", name, err)
	}
	if err := tmp.Chmod(0o600); err != nil {
		cleanup()
		return fmt.Errorf("store: writing chunk %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("store: syncing chunk %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("store: writing chunk %s: %w", name, err)
	}
	if err := os.Rename(tmpPath, p); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("store: writing chunk %s: %w", name, err)
	}
	return nil
}

func (c *dirChunks) ListChunks() ([]string, error) {
	entries, err := os.ReadDir(c.dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: listing chunks: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		names = append(names, e.Name())
	}
	return names, nil
}

func (c *dirChunks) DeleteChunk(name string) error {
	// Names come from ListChunks (directory entries), which may include
	// crash debris with non-chunk names; only reject anything that could
	// escape the directory.
	if name != filepath.Base(name) || name == "." || name == ".." || strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("store: refusing to delete %q", name)
	}
	if err := os.Remove(filepath.Join(c.dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: deleting chunk %s: %w", name, err)
	}
	return nil
}

func (c *dirChunks) Sync() error {
	return syncDir(c.dir)
}
