package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"f2/internal/core"
	"f2/internal/relation"
)

// Chunk payloads are columnar, in the spirit of Arrow's variable-length
// binary layout: a column's cell lengths come first and its bytes after,
// so similar lengths and similar bytes sit together for DEFLATE.
//
// A table chunk (the current, encrypted and buffer sections):
//
//	uvarint rows | uvarint cols |
//	per column: rows × uvarint cell length, then the cells' bytes
//
// An origins chunk:
//
//	uvarint rows | rows × 1-byte Kind |
//	rows × zigzag varint SourceRow | rows × uvarint Carried
//
// The payload is what a chunk's name hashes, so it must be a pure
// function of the rows it covers: the encoders read nothing else.

// uvarintLen is the encoded size of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the encoded size of x as a zigzag varint.
func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// encodeTableChunk encodes rows [start, end) of t into one buffer sized
// before the first write.
func encodeTableChunk(t *relation.Table, start, end int) []byte {
	rows, cols := end-start, t.NumAttrs()
	size := uvarintLen(uint64(rows)) + uvarintLen(uint64(cols))
	for a := 0; a < cols; a++ {
		for _, v := range t.Column(a)[start:end] {
			size += uvarintLen(uint64(len(v))) + len(v)
		}
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(rows))
	buf = binary.AppendUvarint(buf, uint64(cols))
	for a := 0; a < cols; a++ {
		col := t.Column(a)[start:end]
		for _, v := range col {
			buf = binary.AppendUvarint(buf, uint64(len(v)))
		}
		for _, v := range col {
			buf = append(buf, v...)
		}
	}
	return buf
}

// payloadReader walks a payload's varints; the first malformed one
// sticks in err and reads after it return 0.
type payloadReader struct {
	buf []byte
	pos int
	err error
}

func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.err = errors.New("truncated or overlong varint")
		return 0
	}
	r.pos += n
	return x
}

func (r *payloadReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.err = errors.New("truncated or overlong varint")
		return 0
	}
	r.pos += n
	return x
}

// left is the number of unread bytes.
func (r *payloadReader) left() int { return len(r.buf) - r.pos }

// count reads a row count and checks that the payload can back it at
// per bytes a row, so no count is trusted before it is paid for.
func (r *payloadReader) count(what string, per int) int {
	x := r.uvarint()
	if r.err == nil && x > uint64(r.left()/per) {
		r.err = fmt.Errorf("%d %s claimed, %d bytes left", x, what, r.left())
	}
	return int(x)
}

// decodeTableChunk inverts encodeTableChunk and returns the chunk's
// columns. Every cell is a substring of one string copy of the payload,
// so a chunk costs three allocations however many cells it holds. A
// claim the payload cannot back is rejected before anything is sized
// from it: each cell needs at least its length byte, so rows × cols is
// at most the bytes left; each length must fit in the bytes left; and
// trailing bytes are an error.
func decodeTableChunk(payload []byte) ([][]string, error) {
	r := &payloadReader{buf: payload}
	rows := r.count("rows", 1)
	c := r.uvarint()
	if r.err != nil {
		return nil, fmt.Errorf("table chunk header: %w", r.err)
	}
	if c == 0 || c > relation.MaxAttrs {
		return nil, fmt.Errorf("table chunk has %d columns", c)
	}
	cols := int(c)
	if rows > r.left()/cols {
		return nil, fmt.Errorf("table chunk claims %d×%d cells, %d bytes left", rows, cols, r.left())
	}
	s := string(payload)
	cells := make([]string, rows*cols)
	out := make([][]string, cols)
	for a := range out {
		// Pass 1 checks the lengths against the bytes after them; pass 2
		// re-reads them, now trusted, and slices the cells.
		lengths, total := r.pos, uint64(0)
		for i := 0; i < rows; i++ {
			n := r.uvarint()
			if left := uint64(r.left()); r.err == nil && (total > left || n > left-total) {
				r.err = fmt.Errorf("column %d cell %d claims %d bytes past the %d left", a, i, n, left)
			}
			if r.err != nil {
				return nil, r.err
			}
			total += n
		}
		data := r.pos
		col := cells[a*rows : (a+1)*rows : (a+1)*rows]
		for i := range col {
			n, k := binary.Uvarint(payload[lengths:])
			lengths += k
			col[i] = s[data : data+int(n)]
			data += int(n)
		}
		r.pos = data
		out[a] = col
	}
	if r.left() != 0 {
		return nil, fmt.Errorf("table chunk has %d trailing bytes", r.left())
	}
	return out, nil
}

// encodeOrigins encodes one chunk of provenance.
func encodeOrigins(origins []core.RowOrigin) ([]byte, error) {
	size := uvarintLen(uint64(len(origins))) + len(origins)
	for _, o := range origins {
		size += varintLen(int64(o.SourceRow)) + uvarintLen(uint64(o.Carried))
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(len(origins)))
	for _, o := range origins {
		if o.Kind < 0 || o.Kind > math.MaxUint8 {
			return nil, fmt.Errorf("store: row kind %d does not fit the origins codec", o.Kind)
		}
		buf = append(buf, byte(o.Kind))
	}
	for _, o := range origins {
		buf = binary.AppendVarint(buf, int64(o.SourceRow))
	}
	for _, o := range origins {
		buf = binary.AppendUvarint(buf, uint64(o.Carried))
	}
	return buf, nil
}

// decodeOrigins inverts encodeOrigins. A row needs at least three bytes
// (kind, source, carried), so the row count is checked against that
// before the output is sized.
func decodeOrigins(payload []byte) ([]core.RowOrigin, error) {
	r := &payloadReader{buf: payload}
	rows := r.count("origins", 3)
	if r.err != nil {
		return nil, fmt.Errorf("origins chunk header: %w", r.err)
	}
	out := make([]core.RowOrigin, rows)
	for i := range out {
		out[i].Kind = core.RowKind(payload[r.pos+i])
	}
	r.pos += rows
	for i := range out {
		out[i].SourceRow = int(r.varint())
	}
	for i := range out {
		out[i].Carried = relation.AttrSet(r.uvarint())
	}
	if r.err != nil {
		return nil, fmt.Errorf("origins chunk: %w", r.err)
	}
	if r.left() != 0 {
		return nil, fmt.Errorf("origins chunk has %d trailing bytes", r.left())
	}
	return out, nil
}
