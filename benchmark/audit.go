package main

import (
	"context"
	"time"

	"f2/internal/core"
	"f2/internal/crypt"
	"f2/internal/fd"
	"f2/internal/relation"
	"f2/internal/workload"
)

// audit alternates FD discovery on the ciphertext (the provider's job)
// and decryption (the owner's) on one stored customer table, in a closed
// loop with one client.
type audit struct {
	p      *params
	table  *relation.Table
	create []byte
	id     string
	program
}

func newAudit(p *params) (bench, error) {
	t, err := workload.Generate(workload.NameCustomer, p.auditRows, p.seed)
	if err != nil {
		return nil, err
	}
	body, err := createBody("audit", t, p.keySeed())
	if err != nil {
		return nil, err
	}
	return &audit{p: p, table: t, create: body}, nil
}

func (b *audit) setup(ctx context.Context, dir string) (err error) {
	b.id, err = b.bootWith(ctx, dir, b.create)
	return err
}

func (b *audit) measure(ctx context.Context, window time.Duration, tr *tracer) (*pass, error) {
	c := newClient(b.in.base, 1, tr)
	defer c.hc.CloseIdleConnections()
	path := "/v1/datasets/" + b.id
	m := newModel(b.table)
	want, err := m.wantFDs()
	if err != nil {
		return nil, err
	}
	fds := newBodyCache(func(body []byte) error { return checkFDs(body, want) })
	decrypts := newBodyCache(func(body []byte) error { return checkDecrypt(body, m) })
	timed := func(s *samples, op, method, suffix string, keep *bodyCache) int {
		start := time.Now()
		body, err := c.call(ctx, op, method, path+suffix, nil)
		if err != nil {
			s.fail()
			return 1
		}
		s.add(ms(time.Since(start)))
		keep.keep(body)
		return 0
	}

	if _, err := c.call(ctx, "", "GET", path+"/fds", nil); err != nil { // warm-up
		return nil, err
	}
	if _, err := c.call(ctx, "", "POST", path+"/decrypt", nil); err != nil {
		return nil, err
	}
	ps := &pass{}
	if err := tr.begin(ctx, c); err != nil {
		return nil, err
	}
	for end := time.Now().Add(window); time.Now().Before(end); {
		ps.failed += timed(&ps.primary, "discover_fds", "GET", "/fds", fds)
		ps.failed += timed(&ps.secondary, "decrypt", "POST", "/decrypt", decrypts)
		ps.attempted += 2
	}
	if err := tr.end(ctx, c); err != nil {
		return nil, err
	}

	// Untimed: every distinct response the window saw, then the report.
	fds.verify(ps)
	decrypts.verify(ps)
	var got datasetResponse
	if err := c.callJSON(ctx, "", "GET", path, nil, &got); err != nil {
		return nil, err
	}
	ps.expansion = got.Dataset.expansion()
	if ps.diskRatio, err = storedRatio(b.in, b.id, m); err != nil {
		return nil, err
	}
	return ps, checkOutputs(ctx, c, b.id, m, b.p, ps)
}

// probe times TANE alone on the same ciphertext the server discovers FDs
// on: the audit table re-encrypted in-process with the same key seed and
// α, which gives identical ciphertext.
func (b *audit) probe(ctx context.Context, tr *tracer) error {
	cfg := core.DefaultConfig(crypt.KeyFromSeed(b.p.keySeed()))
	cfg.Alpha, cfg.SplitFactor = alpha, splitFactor
	enc, err := core.NewEncryptor(cfg)
	if err != nil {
		return err
	}
	res, err := enc.Encrypt(ctx, b.table)
	if err != nil {
		return err
	}
	return tr.timeCall("fd.tane_ms", 3, func() error {
		_, err := fd.DiscoverWitnessedCtx(ctx, res.Encrypted)
		return err
	})
}
