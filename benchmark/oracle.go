package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"f2/internal/fd"
	"f2/internal/relation"
)

// model is the plaintext the program should hold: the rows the benchmark
// uploaded plus every append the program acknowledged. It is the oracle
// every output is checked against.
type model struct {
	schema *relation.Schema
	rows   [][]string
}

func newModel(t *relation.Table) *model {
	return &model{schema: t.Schema(), rows: t.JSON().Rows}
}

func (m *model) add(rows [][]string) { m.rows = append(m.rows, rows...) }

func (m *model) table() (*relation.Table, error) { return relation.FromRows(m.schema, m.rows) }

// wantFDs is what the provider must discover from the ciphertext: the
// witnessed FDs of the plaintext (Theorem 3.7 of the paper).
func (m *model) wantFDs() ([]string, error) {
	t, err := m.table()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, f := range fd.DiscoverWitnessed(t).Slice() {
		lhs := make([]string, 0, f.LHS.Size())
		for _, a := range f.LHS.Attrs() {
			lhs = append(lhs, m.schema.Name(a))
		}
		out = append(out, fdString(lhs, m.schema.Name(f.RHS)))
	}
	sort.Strings(out)
	return out, nil
}

func fdString(lhs []string, rhs string) string {
	s := append([]string(nil), lhs...)
	sort.Strings(s)
	return strings.Join(s, ",") + "->" + rhs
}

// checkDecrypt verifies a POST …/decrypt body: the schema matches, nothing
// is pending, and the rows equal the model as a multiset.
func checkDecrypt(body []byte, m *model) error {
	var resp struct {
		Columns     []string   `json:"columns"`
		Rows        [][]string `json:"rows"`
		PendingRows int        `json:"pendingRows"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decrypt: %w", err)
	}
	if got, want := strings.Join(resp.Columns, ","), strings.Join(m.schema.Names(), ","); got != want {
		return fmt.Errorf("decrypt: columns %q, want %q", got, want)
	}
	if resp.PendingRows != 0 {
		return fmt.Errorf("decrypt: %d rows still pending", resp.PendingRows)
	}
	if len(resp.Rows) != len(m.rows) {
		return fmt.Errorf("decrypt: %d rows, model has %d", len(resp.Rows), len(m.rows))
	}
	count := make(map[string]int, len(m.rows))
	for _, r := range m.rows {
		count[relation.KeyOfValues(r)]++
	}
	for i, r := range resp.Rows {
		k := relation.KeyOfValues(r)
		if count[k] == 0 {
			return fmt.Errorf("decrypt: row %d %q is not in the model (or appears too often)", i, r)
		}
		count[k]--
	}
	return nil
}

// checkFDs verifies a GET …/fds body against the model's witnessed FDs.
func checkFDs(body []byte, want []string) error {
	var resp struct {
		Count int `json:"count"`
		FDs   []struct {
			LHS []string `json:"lhs"`
			RHS string   `json:"rhs"`
		} `json:"fds"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("fds: %w", err)
	}
	got := make([]string, len(resp.FDs))
	for i, f := range resp.FDs {
		got[i] = fdString(f.LHS, f.RHS)
	}
	sort.Strings(got)
	if resp.Count != len(got) || strings.Join(got, " ") != strings.Join(want, " ") {
		return fmt.Errorf("fds: ciphertext gives %v (count %d), plaintext gives %v", got, resp.Count, want)
	}
	return nil
}

// checkReport verifies a GET …/report body: α-frequency-hiding held
// against both attacks on every column, and every FD discovered on the
// ciphertext is sound.
func checkReport(body []byte) error {
	var resp struct {
		Attack struct {
			OK bool `json:"ok"`
		} `json:"attack"`
		Verify struct {
			OK bool `json:"ok"`
		} `json:"verify"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if !resp.Attack.OK || !resp.Verify.OK {
		return fmt.Errorf("report: attack.ok=%v verify.ok=%v: %s", resp.Attack.OK, resp.Verify.OK, body)
	}
	return nil
}

// bodyCache runs a check once per distinct response body. The server's
// answers to repeated reads of unchanged data are byte-identical, so a
// window of a hundred decrypts costs one comparison, and the check runs
// after the window, outside the timings.
type bodyCache struct {
	check  func([]byte) error
	bodies map[[sha256.Size]byte][]byte
	seen   map[[sha256.Size]byte]int
}

func newBodyCache(check func([]byte) error) *bodyCache {
	return &bodyCache{check: check, bodies: map[[sha256.Size]byte][]byte{}, seen: map[[sha256.Size]byte]int{}}
}

func (c *bodyCache) keep(body []byte) {
	h := sha256.Sum256(body)
	if _, ok := c.bodies[h]; !ok {
		c.bodies[h] = body
	}
	c.seen[h]++
}

// verify checks every distinct body and charges each response that fails
// to ps as a failed operation.
func (c *bodyCache) verify(ps *pass) {
	for h, body := range c.bodies {
		if err := c.check(body); err != nil {
			ps.failed += c.seen[h]
			if ps.mismatch == nil {
				ps.mismatch = err
			}
		}
	}
}
