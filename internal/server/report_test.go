package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"f2/internal/workload"
)

// TestReportExactVerdict audits a table on which a sampled attack game
// overshoots the α bound by chance: the 2,000-row orders table of seed 34
// under key f2bench-34, where 200 sampled games on O_CLERK (3 values,
// bound 1/3) win up to 0.365 of the time although both adversaries' exact
// success probabilities are about 0.31. The report gives the exact
// probabilities and its verdict rests on them, so it must hold.
func TestReportExactVerdict(t *testing.T) {
	if testing.Short() {
		t.Skip("encrypts a 2,000-row table")
	}
	_, ts := newTestServer(t, 2)
	tbl, err := workload.Generate(workload.NameOrders, 2000, 34)
	if err != nil {
		t.Fatal(err)
	}
	j := tbl.JSON()
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets", map[string]any{
		"name": "orders", "columns": j.Columns, "rows": j.Rows,
		"alpha": 0.25, "splitFactor": 2, "keySeed": "f2bench-34",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d, body %s", resp.StatusCode, body)
	}
	var created struct {
		Dataset Summary `json:"dataset"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+created.Dataset.ID+"/report?seed=34&trials=200", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d, body %s", resp.StatusCode, body)
	}
	var report struct {
		Attack struct {
			OK      bool `json:"ok"`
			Columns []struct {
				Name             string  `json:"name"`
				FrequencyMatcher float64 `json:"frequencyMatcher"`
				Kerckhoffs       float64 `json:"kerckhoffs"`
				Bound            float64 `json:"bound"`
				OK               bool    `json:"ok"`
			} `json:"columns"`
		} `json:"attack"`
	}
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatal(err)
	}
	if !report.Attack.OK {
		t.Fatalf("attack report not ok: %s", body)
	}
	for _, c := range report.Attack.Columns {
		if c.FrequencyMatcher > c.Bound || c.Kerckhoffs > c.Bound {
			t.Errorf("%s: exact probabilities %.4f / %.4f above bound %.4f", c.Name, c.FrequencyMatcher, c.Kerckhoffs, c.Bound)
		}
	}
}
