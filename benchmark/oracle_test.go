package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"f2/internal/relation"
)

// oracleModel has one witnessed FD, Zip→City.
func oracleModel() *model {
	return newModel(relation.MustFromRows(relation.MustSchema("Zip", "City", "Name"), [][]string{
		{"07030", "Hoboken", "alice"},
		{"07030", "Hoboken", "bob"},
		{"07302", "JerseyCity", "carol"},
		{"07310", "JerseyCity", "dave"},
		{"07310", "JerseyCity", "erin"},
	}))
}

// fakeBodies are the responses a fake server gives on a dataset's routes.
type fakeBodies struct{ decrypt, fds, report string }

func honestBodies(t *testing.T, m *model) fakeBodies {
	t.Helper()
	dec, err := json.Marshal(map[string]any{"columns": m.schema.Names(), "rows": m.rows, "pendingRows": 0})
	if err != nil {
		t.Fatal(err)
	}
	return fakeBodies{
		decrypt: string(dec),
		fds:     `{"count":1,"fds":[{"lhs":["Zip"],"rhs":"City"}]}`,
		report:  `{"attack":{"ok":true},"verify":{"ok":true}}`,
	}
}

func fakeServer(b fakeBodies) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets/ds/decrypt", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(b.decrypt)) })
	mux.HandleFunc("GET /v1/datasets/ds/fds", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(b.fds)) })
	mux.HandleFunc("GET /v1/datasets/ds/report", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(b.report)) })
	return httptest.NewServer(mux)
}

func TestOracleCatchesTamperedOutputs(t *testing.T) {
	m := oracleModel()
	honest := honestBodies(t, m)
	swap := func(s, old, new string) string {
		if !strings.Contains(s, old) {
			t.Fatalf("%q does not occur in %s", old, s)
		}
		return strings.Replace(s, old, new, 1)
	}
	for _, tc := range []struct {
		name   string
		tamper func(*fakeBodies)
		want   string // "" for an honest server
	}{
		{"honest", func(*fakeBodies) {}, ""},
		{"decrypt changes a cell", func(b *fakeBodies) { b.decrypt = swap(b.decrypt, "carol", "mallory") }, "decrypt"},
		{"decrypt duplicates a row in place of another", func(b *fakeBodies) { b.decrypt = swap(b.decrypt, `"dave"`, `"erin"`) }, "decrypt"},
		{"decrypt drops a row", func(b *fakeBodies) { b.decrypt = swap(b.decrypt, `,["07310","JerseyCity","erin"]`, "") }, "decrypt"},
		{"decrypt leaves rows pending", func(b *fakeBodies) { b.decrypt = swap(b.decrypt, `"pendingRows":0`, `"pendingRows":1`) }, "decrypt"},
		{"fds misses one", func(b *fakeBodies) { b.fds = `{"count":0,"fds":[]}` }, "fds"},
		{"fds adds a false positive", func(b *fakeBodies) {
			b.fds = `{"count":2,"fds":[{"lhs":["Zip"],"rhs":"City"},{"lhs":["City"],"rhs":"Zip"}]}`
		}, "fds"},
		{"report shows an attack succeeding", func(b *fakeBodies) { b.report = swap(b.report, `"attack":{"ok":true}`, `"attack":{"ok":false}`) }, "report"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := honest
			tc.tamper(&b)
			srv := fakeServer(b)
			defer srv.Close()
			c := newClient(srv.URL, 1, nil)
			defer c.hc.CloseIdleConnections()
			ps := &pass{}
			if err := checkOutputs(context.Background(), c, "ds", m, &params{seed: 1, trials: 10}, ps); err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.want == "" && (ps.mismatch != nil || ps.failed != 0):
				t.Errorf("honest outputs rejected: %d failed, %v", ps.failed, ps.mismatch)
			case tc.want != "" && (ps.mismatch == nil || !strings.HasPrefix(ps.mismatch.Error(), tc.want+":")):
				t.Errorf("tampered %s not caught: mismatch %v", tc.want, ps.mismatch)
			case tc.want != "" && ps.failed != 1:
				t.Errorf("tampered output counted as %d failed operations, want 1", ps.failed)
			}
		})
	}
}

// TestBodyCacheChargesEveryBadResponse checks that a window's repeated
// responses are judged per response: two tampered decrypts among five
// are two failed operations.
func TestBodyCacheChargesEveryBadResponse(t *testing.T) {
	m := oracleModel()
	good := honestBodies(t, m).decrypt
	bad := strings.Replace(good, "alice", "eve", 1)
	cache := newBodyCache(func(body []byte) error { return checkDecrypt(body, m) })
	for _, body := range []string{good, bad, good, bad, good} {
		cache.keep([]byte(body))
	}
	ps := &pass{}
	cache.verify(ps)
	if ps.failed != 2 || ps.mismatch == nil {
		t.Errorf("failed = %d, mismatch = %v; want 2 failed and a mismatch", ps.failed, ps.mismatch)
	}
}
