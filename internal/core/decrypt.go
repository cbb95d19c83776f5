package core

import (
	"context"
	"fmt"

	"f2/internal/crypt"
	"f2/internal/obs"
	"f2/internal/pool"
	"f2/internal/relation"
)

// Decryptor inverts F² encryption. The data owner holds the key; the
// server never can.
type Decryptor struct {
	cfg    Config
	cipher *crypt.ProbCipher
}

// NewDecryptor validates cfg and builds a decryptor.
func NewDecryptor(cfg Config) (*Decryptor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := crypt.NewProbCipher(cfg.Key, cfg.PRF)
	if err != nil {
		return nil, err
	}
	return &Decryptor{cfg: cfg, cipher: c}, nil
}

// DecryptTable decrypts every cell of an encrypted table. Artificial cells
// decrypt to marker values recognizable via IsArtificialValue; real cells
// decrypt to their original plaintext. This needs only the key, not the
// encryption-time provenance. The context is checked periodically so a
// large decryption can be cancelled.
//
// Cell decryption is pure, so the rows are sharded across
// Config.Parallelism workers, each opening cells with its own kernel and
// writing them straight into the pre-sized output table — the output is
// identical at every parallelism.
func (d *Decryptor) DecryptTable(ctx context.Context, t *relation.Table) (*relation.Table, error) {
	ctx, sp := obs.Start(ctx, "decrypt.table")
	sp.SetAttr("rows", t.NumRows())
	defer sp.End()
	n := t.NumRows()
	m := t.NumAttrs()
	out := relation.NewTableRows(t.Schema().Clone(), n)
	decryptRange := func(ctx context.Context, lo, hi int) error {
		kern := d.cipher.NewKernel()
		for i := lo; i < hi; i++ {
			if (i-lo)%1024 == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("core: decrypt: %w", err)
				}
			}
			for a := 0; a < m; a++ {
				p, err := kern.Open(t.Cell(i, a))
				if err != nil {
					return fmt.Errorf("core: decrypting cell (%d,%d): %w", i, a, err)
				}
				out.SetCell(i, a, p)
			}
		}
		return nil
	}
	if workers := d.cfg.Workers(); workers > 1 && n > 1 {
		pl := pool.New(workers)
		defer pl.Close()
		ranges := chunkRanges(n, workers*4)
		if err := pl.ForEach(ctx, len(ranges), func(ctx context.Context, si int) error {
			return decryptRange(ctx, ranges[si][0], ranges[si][1])
		}); err != nil {
			return nil, err
		}
	} else if err := decryptRange(ctx, 0, n); err != nil {
		return nil, err
	}
	return out, nil
}

// Recover reconstructs the original table D exactly (same rows, same
// order) from an encryption Result: artificial rows are dropped and the
// parts of conflict-split tuples are stitched back together using the
// per-row provenance.
func (d *Decryptor) Recover(ctx context.Context, res *Result) (*relation.Table, error) {
	enc := res.Encrypted
	if len(res.Origins) != enc.NumRows() {
		return nil, fmt.Errorf("core: provenance covers %d rows, table has %d", len(res.Origins), enc.NumRows())
	}
	plain, err := d.DecryptTable(ctx, enc)
	if err != nil {
		return nil, err
	}
	m := enc.NumAttrs()
	// Every source row is carried by at least one encrypted row, so valid
	// provenance never names a source row at or past len(Origins).
	// Provenance can come from a file, so anything else is an error.
	maxSrc := -1
	for i, o := range res.Origins {
		if o.Kind != RowOriginal && o.Kind != RowConflictPart {
			continue
		}
		if o.SourceRow < 0 || o.SourceRow >= len(res.Origins) {
			return nil, fmt.Errorf("core: provenance row %d names source row %d, out of range", i, o.SourceRow)
		}
		maxSrc = max(maxSrc, o.SourceRow)
	}

	// Copy each source row's cells into place, recording which
	// attributes the encrypted rows carried.
	out := relation.NewTableRows(enc.Schema().Clone(), maxSrc+1)
	seen := make([]bool, maxSrc+1)
	carried := make([]relation.AttrSet, maxSrc+1)
	for i, o := range res.Origins {
		var attrs relation.AttrSet
		switch o.Kind {
		case RowOriginal:
			attrs = relation.FullAttrSet(m)
		case RowConflictPart:
			attrs = o.Carried
		default:
			continue
		}
		for a := 0; a < m; a++ {
			if attrs.Has(a) {
				out.SetCell(o.SourceRow, a, plain.Cell(i, a))
			}
		}
		seen[o.SourceRow] = true
		carried[o.SourceRow] = carried[o.SourceRow].Union(attrs)
	}
	for src, have := range carried {
		if !seen[src] {
			return nil, fmt.Errorf("core: no encrypted row carries source row %d", src)
		}
		for a := 0; a < m; a++ {
			if !have.Has(a) || IsArtificialValue(out.Cell(src, a)) {
				return nil, fmt.Errorf("core: source row %d attribute %d not carried by any part", src, a)
			}
		}
	}
	return out, nil
}

// StripArtificial returns the decrypted table with every row containing an
// artificial value removed. Unlike Recover this needs no provenance, but
// two caveats apply: conflict-split tuples are lost (each of their parts
// contains filler), and scale copies of a MAS that covers every column
// decrypt to exact duplicates of real tuples and are kept (without
// provenance they are indistinguishable). Use Recover when the provenance
// survived.
func (d *Decryptor) StripArtificial(ctx context.Context, t *relation.Table) (*relation.Table, error) {
	plain, err := d.DecryptTable(ctx, t)
	if err != nil {
		return nil, err
	}
	out := relation.NewTable(t.Schema().Clone())
	for i := 0; i < plain.NumRows(); i++ {
		keep := true
		for a := 0; a < plain.NumAttrs(); a++ {
			if IsArtificialValue(plain.Cell(i, a)) {
				keep = false
				break
			}
		}
		if keep {
			if err := out.AppendRow(plain.Row(i)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// chunkRanges splits [0, n) into at most chunks contiguous, near-even
// ranges (each [lo, hi)).
func chunkRanges(n, chunks int) [][2]int {
	if chunks < 1 {
		chunks = 1
	}
	if chunks > n {
		chunks = n
	}
	out := make([][2]int, 0, chunks)
	for c := 0; c < chunks; c++ {
		lo := c * n / chunks
		hi := (c + 1) * n / chunks
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}
