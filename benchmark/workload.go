package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"f2/internal/relation"
)

// Every workload encrypts with the same F² parameters and the server's
// default flush policy (flushFraction 0.1, group-commit WAL, parallelism =
// GOMAXPROCS).
const (
	alpha       = 0.25
	splitFactor = 2
	batchRows   = 8 // rows per append
)

// params fixes a run's inputs and dimensions. The benchmark runs
// fullParams; the smoke test shrinks the sizes.
type params struct {
	seed   int64
	window time.Duration // measured time per pass

	ingestRows  int           // synthetic rows created before the append stream
	ingestRate  float64       // appends per second, open loop
	warmup      time.Duration // ingest open-loop warm-up before the window
	drainMax    time.Duration // ingest: how long appends continue after the window until every timed append is visible
	uploadRows  int           // orders rows per uploaded table
	auditRows   int           // customer rows audited
	restartRows int           // synthetic rows in the restarted dataset
	restartTail int           // acknowledged, unflushed append batches in the restarted WAL
	trials      int           // attack trials per column in the end-of-run report check
}

func fullParams(seed int64, window time.Duration) *params {
	return &params{
		seed:        seed,
		window:      window,
		ingestRows:  4000,
		ingestRate:  100,
		warmup:      2 * time.Second,
		drainMax:    8 * time.Second,
		uploadRows:  2000,
		auditRows:   600,
		restartRows: 3000,
		restartTail: 16,
		trials:      200,
	}
}

// scale shrinks every table, and the ingest warm-up, by f. It exists for
// the smoke test; every reported number is measured at scale 1.
func (p *params) scale(f float64) {
	size := func(n int) int { return max(int(float64(n)*f), 40) }
	p.ingestRows = size(p.ingestRows)
	p.uploadRows = size(p.uploadRows)
	p.auditRows = size(p.auditRows)
	p.restartRows = size(p.restartRows)
	p.warmup = time.Duration(float64(p.warmup) * f)
}

func (p *params) keySeed() string { return fmt.Sprintf("f2bench-%d", p.seed) }

// pass is what one measured window produced.
type pass struct {
	// primary and secondary are the two latency series each workload
	// reports (see workloadSpec), in ms.
	primary, secondary samples
	// attempted counts the timed operations; failed counts those that
	// failed (transport error, non-2xx, or an output the oracle rejected).
	attempted, failed int
	// mismatch is the first output the oracle rejected.
	mismatch error

	expansion float64 // encrypted rows ÷ plaintext rows
	diskRatio float64 // bytes under the dataset's store directory ÷ plaintext cell bytes
	userBytes int64   // plaintext cell bytes sent during the window

	late    samples // open loop: how late the generator started each operation, ms
	refused int     // open loop: appends refused with 429

	firstRead samples // restart: first request answered, timed from reopen, ms
}

// reject records an oracle mismatch as one failed operation.
func (p *pass) reject(err error) {
	p.failed++
	if p.mismatch == nil {
		p.mismatch = err
	}
}

// bench is one workload's program-side lifecycle. setup brings a fresh
// program to the workload's starting state in dir and is what setup_s
// times; measure runs one window against it and checks the outputs;
// teardown stops whatever is still running.
type bench interface {
	setup(ctx context.Context, dir string) error
	measure(ctx context.Context, window time.Duration, tr *tracer) (*pass, error)
	probe(ctx context.Context, tr *tracer) error
	teardown() error
}

// workloadSpec names a benchmark workload and says what its two latency
// series time.
type workloadSpec struct {
	name, why          string
	primary, secondary string
	new                func(p *params) (bench, error)
}

var workloads = []workloadSpec{
	{
		name:      "ingest",
		why:       "open-loop appends at 100/s with reads: the HTTP and WAL write path, incremental flushes and snapshot rotation",
		primary:   "visibility lag: ack until a poll shows the rows encrypted",
		secondary: "append ack, timed from its due time",
		new:       newIngest,
	},
	{
		name:      "upload",
		why:       "closed-loop create of a fresh orders table: Steps 1-4 on many overlapping MASs, then the chunk write",
		primary:   "create (upload + encrypt + persist)",
		secondary: "delete",
		new:       newUpload,
	},
	{
		name:      "audit",
		why:       "closed-loop reads of stored data: TANE on the ciphertext (provider) and decrypt (owner); no encryption, no WAL",
		primary:   "FD discovery on the ciphertext",
		secondary: "decrypt",
		new:       newAudit,
	},
	{
		name:      "restart",
		why:       "reopen, first request and first flush: lazy boot, chunk hydration, WAL replay and the forced full rebuild",
		primary:   "first flush, timed from reopen",
		secondary: "first append acknowledged, timed from reopen",
		new:       newRestart,
	},
}

// createRequest is the body of POST /v1/datasets.
type createRequest struct {
	Name        string     `json:"name"`
	Columns     []string   `json:"columns"`
	Rows        [][]string `json:"rows"`
	Alpha       float64    `json:"alpha"`
	SplitFactor int        `json:"splitFactor"`
	KeySeed     string     `json:"keySeed"`
}

func createBody(name string, t *relation.Table, keySeed string) ([]byte, error) {
	j := t.JSON()
	return json.Marshal(createRequest{
		Name: name, Columns: j.Columns, Rows: j.Rows,
		Alpha: alpha, SplitFactor: splitFactor, KeySeed: keySeed,
	})
}

func appendBody(rows [][]string) ([]byte, error) {
	return json.Marshal(struct {
		Rows [][]string `json:"rows"`
	}{rows})
}

// summary is the part of a dataset summary the benchmark reads.
type summary struct {
	ID            string `json:"id"`
	Rows          int    `json:"rows"`
	PendingRows   int    `json:"pendingRows"`
	EncryptedRows int    `json:"encryptedRows"`
}

// datasetResponse is the body of create, get, append and flush responses.
type datasetResponse struct {
	Dataset summary `json:"dataset"`
	Report  struct {
		OriginalRows  int `json:"originalRows"`
		EncryptedRows int `json:"encryptedRows"`
	} `json:"report"`
}

func (s summary) expansion() float64 { return float64(s.EncryptedRows) / float64(s.Rows) }

// checkOutputs runs the oracle on dataset id after a window: decrypt
// equals the model, the FDs discovered on the ciphertext equal the
// plaintext's, and the audit report shows α-hiding and FD soundness.
func checkOutputs(ctx context.Context, c *client, id string, m *model, p *params, ps *pass) error {
	base := "/v1/datasets/" + id
	body, err := c.call(ctx, "", "POST", base+"/decrypt", nil)
	if err != nil {
		return err
	}
	if err := checkDecrypt(body, m); err != nil {
		ps.reject(err)
	}
	want, err := m.wantFDs()
	if err != nil {
		return err
	}
	if body, err = c.call(ctx, "", "GET", base+"/fds", nil); err != nil {
		return err
	}
	if err := checkFDs(body, want); err != nil {
		ps.reject(err)
	}
	if body, err = c.call(ctx, "", "GET", fmt.Sprintf("%s/report?seed=%d&trials=%d", base, p.seed, p.trials), nil); err != nil {
		return err
	}
	if err := checkReport(body); err != nil {
		ps.reject(err)
	}
	return nil
}

// storedRatio is bytes under the dataset's store directory per plaintext
// cell byte.
func storedRatio(in *instance, id string, m *model) (float64, error) {
	disk, err := storedBytes(in, id)
	return float64(disk) / float64(cellBytes(m.rows)), err
}

// storedBytes totals the files under the dataset's store directory.
func storedBytes(in *instance, id string) (int64, error) {
	var disk int64
	err := filepath.WalkDir(filepath.Join(in.st.Dir(), "datasets", id), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		disk += info.Size()
		return nil
	})
	return disk, err
}

func cellBytes(rows [][]string) int64 {
	var n int64
	for _, r := range rows {
		for _, c := range r {
			n += int64(len(c))
		}
	}
	return n
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o700)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.OpenFile(target, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
