package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"f2/internal/server"
	"f2/internal/store"
)

// instance is one in-process f2served wired the way cmd/f2served wires it:
// a durable store, the server with its default options, and an HTTP server
// on a loopback listener.
type instance struct {
	st   *store.Store
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{} // closed when Serve returns
}

func boot(dir string) (*instance, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Options{Store: st})
	if err != nil {
		_ = st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		_ = st.Close()
		return nil, err
	}
	in := &instance{
		st:   st,
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(in.done)
		_ = in.hs.Serve(ln) // always ErrServerClosed after Shutdown
	}()
	return in, nil
}

// close shuts down in cmd/f2served's order: stop serving HTTP, drain the
// server (running flushes persist), then close the store.
func (in *instance) close() error {
	// Not derived from the run's context: shutdown must finish even when
	// the run was cancelled.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	<-in.done
	in.srv.Close()
	if cerr := in.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// program is the instance a bench has set up, if any.
type program struct{ in *instance }

// bootWith boots a fresh program in dir and uploads one dataset,
// returning its id.
func (p *program) bootWith(ctx context.Context, dir string, create []byte) (string, error) {
	in, err := boot(dir)
	if err != nil {
		return "", err
	}
	p.in = in
	c := newClient(in.base, 1, nil)
	defer c.hc.CloseIdleConnections()
	var resp datasetResponse
	if err := c.callJSON(ctx, "", "POST", "/v1/datasets", create, &resp); err != nil {
		return "", err
	}
	return resp.Dataset.ID, nil
}

// teardown stops the instance; it is a no-op when none is running.
func (p *program) teardown() error {
	if p.in == nil {
		return nil
	}
	err := p.in.close()
	p.in = nil
	return err
}

// statusError is a response outside 2xx.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.msg) }

func statusOf(err error) int {
	var se *statusError
	if errors.As(err, &se) {
		return se.code
	}
	return 0
}

// client drives the server over HTTP through a pool of at most conns
// connections. On traced passes it records a span around every call.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer // nil on untraced passes
}

func newClient(base string, conns int, tr *tracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		base: base,
		tr:   tr,
	}
}

// call sends one request, reads the whole response and returns its body.
// Transport errors and non-2xx statuses are errors. op names the server
// route the call lands on, as the server's http metrics label it; calls
// without one (scrapes, output checks) are left out of the spans.
func (c *client) call(ctx context.Context, op, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c.tr != nil && op != "" {
		c.tr.record(span{start: start, dur: time.Since(start)})
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading response: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return data, &statusError{code: resp.StatusCode, msg: string(bytes.TrimSpace(data))}
	}
	return data, nil
}

// callJSON is call plus decoding the response into out.
func (c *client) callJSON(ctx context.Context, op, method, path string, body []byte, out any) error {
	data, err := c.call(ctx, op, method, path, body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decoding response: %w", method, path, err)
	}
	return nil
}

// scrape is one read of /metrics: every sample keyed by its series name
// and labels exactly as exposed, e.g. `f2_wal_fsync_total` or
// `f2_stage_duration_seconds_sum{stage="wal.fsync"}`.
type scrape map[string]float64

// walBatches is the derived series the WAL group-commit gauge implies:
// the gauge is batches/fsyncs since boot, so batches = gauge × fsyncs,
// which unlike the gauge can be differenced.
const walBatches = "f2_wal_batches"

func (c *client) scrape(ctx context.Context) (scrape, error) {
	data, err := c.call(ctx, "", http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	s := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s[line[:i]] = v
	}
	s[walBatches] = s["f2_wal_group_commit_size"] * s["f2_wal_fsync_total"]
	return s, nil
}
