package core

import (
	"context"
	"fmt"

	"f2/internal/crypt"
	"f2/internal/obs"
	"f2/internal/relation"
)

// This file is the parallel emission machinery of the encryption engine.
//
// The F² output table is order- and value-deterministic: one key must
// always produce one ciphertext table, no matter how many workers emit
// it (Config.Parallelism). Two things threaten that when emission fans
// out:
//
//   - row order — solved by sharding the work into contiguous ranges,
//     buffering each shard's rows in an emitSink, and merging the sinks
//     back in shard order (a deterministic ordered merge);
//   - fresh-value minting — every artificial cell consumes the next
//     value of a strictly sequential minter, so each shard is handed its
//     own freshMinter pre-positioned at the offset the serial path would
//     have reached at the shard's first row. The offsets come from a
//     cheap crypto-free counting pass (prefix sums of per-unit fresh
//     consumption), and every shard verifies after emitting that it
//     consumed exactly its budget — a count/emit mismatch aborts the
//     encryption instead of silently shifting every later ciphertext.
//
// With one worker the shard machinery collapses: a single shard emits
// through the encryptor's own minter with no counting pass, which is
// byte-for-byte the historical serial path.

// emitSink buffers the rows, provenance, and report deltas produced by
// one emission shard until the ordered merge.
type emitSink struct {
	rows    [][]string
	origins []RowOrigin
	// block is the bump allocator the emitted row cells are carved from:
	// one backing allocation per few hundred rows instead of one small
	// pointer-dense object per row, which is what GC marking pays for.
	block []string

	conflictRows   int
	conflictTuples int
	groupRows      int
	scaleRows      int
	fpRows         int
}

// copyRow returns a sink-owned copy of row, carved from the block.
func (s *emitSink) copyRow(row []string) []string {
	m := len(row)
	if len(s.block) < m {
		s.block = make([]string, 512*m)
	}
	dst := s.block[:m:m]
	s.block = s.block[m:]
	copy(dst, row)
	return dst
}

// mergeInto appends the sink's buffered output to the result in emission
// order.
func (s *emitSink) mergeInto(out *relation.Table, res *Result) {
	for _, r := range s.rows {
		out.AppendRow(r)
	}
	res.Origins = append(res.Origins, s.origins...)
	res.Report.ConflictRows += s.conflictRows
	res.Report.ConflictTuples += s.conflictTuples
	res.Report.GroupRows += s.groupRows
	res.Report.ScaleRows += s.scaleRows
	res.Report.FPRows += s.fpRows
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

// emitChunks picks the shard count for a batch of n units: enough chunks
// per worker that uneven shards still balance, never more than n, and a
// single chunk when the pool is serial (which routes emission through
// the encryptor's own minter with no counting pass). Callers gate their
// counting pass on emitChunks(n) > 1, so the n cap also skips the budget
// work for batches that cannot shard.
func (e *Encryptor) emitChunks(n int) int {
	w := e.pool.Workers()
	if w <= 1 || n <= 1 {
		return 1
	}
	c := w * 4
	if c > n {
		c = n
	}
	return c
}

// runEmitShards is the shared shard driver: it splits n units into
// chunks, runs emit(shard, unit range, minter, kernel) on the pool for
// each — every shard sealing with a kernel of its own — and
// merges the sinks in order. freshPrefix[i] must hold the number of
// fresh values the serial path mints before unit i (freshPrefix[n] =
// total); with a single shard it may be nil and the encryptor's live
// minter is used directly. Each multi-shard emit call is audited against
// its minting budget; on any error the output table and result are left
// untouched.
func (e *Encryptor) runEmitShards(ctx context.Context, n int, freshPrefix []uint64, out *relation.Table, res *Result, emit func(s *emitSink, lo, hi int, mint *freshMinter, kern *crypt.Kernel) error) error {
	if n == 0 {
		return ctx.Err()
	}
	ranges := chunkRanges(n, e.emitChunks(n))
	sinks := make([]emitSink, len(ranges))
	base := e.mint.n
	err := e.pool.ForEach(ctx, len(ranges), func(ctx context.Context, si int) error {
		rng := ranges[si]
		_, sp := obs.Start(ctx, "emit.shard")
		sp.SetAttr("shard", si)
		sp.SetAttr("units", rng[1]-rng[0])
		defer sp.End()
		mint := e.mint
		if len(ranges) > 1 {
			mint = &freshMinter{n: base + freshPrefix[rng[0]]}
		}
		if err := emit(&sinks[si], rng[0], rng[1], mint, e.cipher.NewKernel()); err != nil {
			return err
		}
		if len(ranges) > 1 {
			got := mint.n - (base + freshPrefix[rng[0]])
			want := freshPrefix[rng[1]] - freshPrefix[rng[0]]
			if got != want {
				return fmt.Errorf("core: internal: emission shard [%d,%d) minted %d fresh values, budget was %d", rng[0], rng[1], got, want)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(ranges) > 1 {
		e.mint.n = base + freshPrefix[n]
	}
	for i := range sinks {
		sinks[i].mergeInto(out, res)
	}
	return nil
}

// prefixSums turns per-unit fresh-value counts into the offset table
// runEmitShards expects.
func prefixSums(counts []int) []uint64 {
	out := make([]uint64, len(counts)+1)
	for i, c := range counts {
		out[i+1] = out[i] + uint64(c)
	}
	return out
}

// padJob is one padding-emission unit: count synthetic rows carrying
// inst's ciphertext over the MAS attributes of plan and fresh values
// elsewhere. For a real member these are scale copies (Step 2.2, with
// §3.3.1's type-1 conflict handling built in); for a fake member they
// materialize a fake equivalence class of Step 2.1. The full pipeline,
// the incremental top-up path, and the fake-EC phase all emit through
// the same job shape.
type padJob struct {
	plan  *masPlan
	inst  *ecInstance
	count int
	fake  bool
}

// scaleCopyJobs lists the scaling copies of Step 2.2 in deterministic
// plan/group/member/instance order.
func scaleCopyJobs(plans []*masPlan) []padJob {
	var jobs []padJob
	for _, p := range plans {
		for _, g := range p.ecgs {
			for _, mem := range g.members {
				if mem.fake {
					continue
				}
				for _, inst := range mem.instances {
					jobs = append(jobs, padJob{p, inst, inst.copies, false})
				}
			}
		}
	}
	return jobs
}

// fakeECJobs lists the fake-equivalence-class rows of Step 2.1 (target
// rows per instance) in deterministic order.
func fakeECJobs(plans []*masPlan) []padJob {
	var jobs []padJob
	for _, p := range plans {
		for _, g := range p.ecgs {
			for _, mem := range g.members {
				if !mem.fake {
					continue
				}
				for _, inst := range mem.instances {
					jobs = append(jobs, padJob{p, inst, g.target, true})
				}
			}
		}
	}
	return jobs
}

// emitPaddingJobs synthesizes every job's padding rows, fanning the jobs
// out across the pool. Each padding row consumes exactly (numAttrs −
// |MAS|) fresh values, so the per-job minting budget is known up front.
func (e *Encryptor) emitPaddingJobs(ctx context.Context, jobs []padJob, out *relation.Table, res *Result) error {
	if len(jobs) == 0 {
		return ctx.Err()
	}
	m := out.NumAttrs()
	var prefix []uint64
	if e.emitChunks(len(jobs)) > 1 {
		counts := make([]int, len(jobs))
		for i, j := range jobs {
			counts[i] = j.count * (m - j.plan.attrs.Size())
		}
		prefix = prefixSums(counts)
	}
	return e.runEmitShards(ctx, len(jobs), prefix, out, res, func(s *emitSink, lo, hi int, mint *freshMinter, kern *crypt.Kernel) error {
		row := make([]string, m)
		for ji := lo; ji < hi; ji++ {
			if (ji-lo)%64 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			j := jobs[ji]
			for c := 0; c < j.count; c++ {
				for a := 0; a < m; a++ {
					if j.plan.attrs.Has(a) {
						row[a] = j.inst.cipher[a]
					} else {
						row[a] = freshCipherM(kern, mint, a)
					}
				}
				s.rows = append(s.rows, s.copyRow(row))
				if j.fake {
					s.origins = append(s.origins, RowOrigin{Kind: RowFakeEC, SourceRow: -1, Carried: 0})
					s.groupRows++
				} else {
					s.origins = append(s.origins, RowOrigin{Kind: RowScaleCopy, SourceRow: -1, Carried: j.plan.attrs})
					s.scaleRows++
				}
			}
		}
		return nil
	})
}
