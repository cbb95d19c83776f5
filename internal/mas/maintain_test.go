package mas

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"f2/internal/relation"
	"f2/internal/workload"
)

// TestBruteForceAtMaxAttrs is the regression for the mask-enumeration
// overflow: at m = relation.MaxAttrs the old loop bound FullAttrSet(m)+1
// wrapped to zero, the body never ran, and a 64-attribute table silently
// reported no MASs.
func TestBruteForceAtMaxAttrs(t *testing.T) {
	m := relation.MaxAttrs
	names := make([]string, m)
	for i := range names {
		names[i] = "c" + string(rune('0'+i/10)) + string(rune('0'+i%10))
	}
	tbl := relation.NewTable(relation.MustSchema(names...))
	// Rows 0 and 1 agree everywhere except the last attribute; row 2
	// agrees with row 0 only on the last attribute.
	r0 := make([]string, m)
	r1 := make([]string, m)
	r2 := make([]string, m)
	for a := 0; a < m; a++ {
		r0[a] = "x"
		r1[a] = "x"
		r2[a] = "z" + names[a]
	}
	r1[m-1] = "y"
	r2[m-1] = "x"
	for _, r := range [][]string{r0, r1, r2} {
		if err := tbl.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	got := bruteForce(tbl)
	want := []relation.AttrSet{
		relation.SingleAttr(m - 1),
		relation.FullAttrSet(m).Remove(m - 1),
	}
	relation.SortAttrSets(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BruteForce at %d attrs = %v, want %v", m, got, want)
	}
}

// TestMaintainBorderStableAppend: appends that only thicken existing
// equivalence classes (or add fresh singletons) keep the border, and the
// refined partitions must equal freshly discovered ones.
func TestMaintainBorderStableAppend(t *testing.T) {
	tbl := relation.MustFromRows(relation.MustSchema("A", "B", "C"), [][]string{
		{"a1", "b1", "c1"},
		{"a1", "b1", "c2"},
		{"a2", "b2", "c3"},
		{"a2", "b2", "c4"},
	})
	prev, err := DiscoverCtx(context.Background(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	old := tbl.NumRows()
	// Thicken the {a1,b1} class of MAS {A,B} and add a fresh singleton.
	tbl.AppendRow([]string{"a1", "b1", "c9"})
	tbl.AppendRow([]string{"a9", "b9", "c8"})

	ref, ok, err := MaintainBorder(context.Background(), prev, tbl, old)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("border reported as changed on a border-stable append")
	}
	if !reflect.DeepEqual(ref.Result.Sets, prev.Sets) {
		t.Fatalf("sets changed: %v vs %v", ref.Result.Sets, prev.Sets)
	}
	fresh, err := DiscoverCtx(context.Background(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Result.Sets, fresh.Sets) {
		t.Fatalf("refreshed sets %v ≠ rediscovered %v", ref.Result.Sets, fresh.Sets)
	}
	for _, m := range fresh.Sets {
		rp, fp := ref.Result.Partitions[m], fresh.Partitions[m]
		if !reflect.DeepEqual(rp.Classes, fp.Classes) {
			t.Fatalf("partition of %v diverged: %d/%d classes", m, rp.NumClasses(), fp.NumClasses())
		}
	}
	if len(ref.Agreements) == 0 || ref.Result.Checked == 0 {
		t.Fatalf("no agreement bookkeeping: %d sets, %d probes", len(ref.Agreements), ref.Result.Checked)
	}
	// The original result must be untouched (copy-on-write).
	for _, m := range prev.Sets {
		covered := 0
		for _, c := range prev.Partitions[m].Classes {
			covered += c.Size()
		}
		if covered != old {
			t.Fatalf("MaintainBorder mutated the previous partition of %v", m)
		}
	}
}

// TestMaintainBorderDetectsMerge: one appended row that duplicates an
// existing row on a superset of any MAS moves the border and must force a
// fallback.
func TestMaintainBorderDetectsMerge(t *testing.T) {
	tbl := relation.MustFromRows(relation.MustSchema("A", "B", "C"), [][]string{
		{"a1", "b1", "c1"},
		{"a1", "b1", "c2"},
		{"a2", "b2", "c3"},
	})
	prev, err := DiscoverCtx(context.Background(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	old := tbl.NumRows()
	tbl.AppendRow([]string{"a1", "b1", "c2"}) // full-row duplicate: {A,B,C} turns non-unique
	_, ok, err := MaintainBorder(context.Background(), prev, tbl, old)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("full-row duplicate not flagged as a border change")
	}
}

// TestMaintainBorderMatchesDiscoverRandomized cross-checks the exactness
// of the agreement-set criterion on random tables: MaintainBorder says
// "unchanged" iff fresh discovery finds the same border. A refreshed
// result is then maintained the way a failed flush leaves it: extended
// over one suffix that is dropped, then over another. The shared coded
// view, postings and class indexes must notice the abandoned extension,
// so the second answer still matches discovery, class for class.
func TestMaintainBorderMatchesDiscoverRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	agree, changed := 0, 0
	for trial := 0; trial < 300; trial++ {
		attrs := 2 + rng.Intn(4)
		rows := 4 + rng.Intn(30)
		tbl := randomTable(rng, attrs, rows, 1+rng.Intn(3))
		old := tbl.NumRows()
		prev, err := DiscoverCtx(context.Background(), tbl)
		if err != nil {
			t.Fatal(err)
		}
		extra := randomTable(rng, attrs, 1+rng.Intn(3), 1+rng.Intn(3))
		for i := 0; i < extra.NumRows(); i++ {
			tbl.AppendRow(extra.Row(i))
		}
		ref, ok, err := MaintainBorder(context.Background(), prev, tbl, old)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := DiscoverCtx(context.Background(), tbl)
		if err != nil {
			t.Fatal(err)
		}
		same := reflect.DeepEqual(prev.Sets, fresh.Sets)
		if ok != same {
			t.Fatalf("trial %d: MaintainBorder ok=%v but border equality=%v\n old: %v\n new: %v\n%v",
				trial, ok, same, prev.Sets, fresh.Sets, tbl)
		}
		if ok {
			agree++
			if !reflect.DeepEqual(ref.Result.Sets, fresh.Sets) {
				t.Fatalf("trial %d: refreshed sets diverge", trial)
			}
			appended := func(domain int) *relation.Table {
				out := tbl.Clone()
				extra := randomTable(rng, attrs, 1+rng.Intn(3), domain)
				for i := 0; i < extra.NumRows(); i++ {
					out.AppendRow(extra.Row(i))
				}
				return out
			}
			if _, _, err := MaintainBorder(context.Background(), ref.Result, appended(4), tbl.NumRows()); err != nil {
				t.Fatal(err)
			}
			kept := appended(3)
			checkMaintainedLike(t, trial, ref.Result, kept, tbl.NumRows())
		} else {
			changed++
		}
	}
	if agree == 0 || changed == 0 {
		t.Fatalf("degenerate trial mix: %d stable, %d changed", agree, changed)
	}
}

// checkMaintainedLike maintains prev over t[oldRows:] and checks the
// outcome against discovery on t: the same verdict and, when the border
// held, identical classes and codes.
func checkMaintainedLike(t *testing.T, trial int, prev *Result, tbl *relation.Table, oldRows int) {
	t.Helper()
	ref, ok, err := MaintainBorder(context.Background(), prev, tbl, oldRows)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := DiscoverCtx(context.Background(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	if ok != reflect.DeepEqual(prev.Sets, fresh.Sets) {
		t.Fatalf("trial %d: after an abandoned flush, MaintainBorder ok=%v against sets %v → %v", trial, ok, prev.Sets, fresh.Sets)
	}
	if !ok {
		return
	}
	for _, m := range fresh.Sets {
		got, want := ref.Result.Partitions[m].Classes, fresh.Partitions[m].Classes
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: after an abandoned flush, classes of %v diverge", trial, m)
		}
	}
	for a := 0; a < tbl.NumAttrs(); a++ {
		if !reflect.DeepEqual(ref.Result.Coded.Column(a), fresh.Coded.Column(a)) ||
			ref.Result.Coded.Cardinality(a) != fresh.Coded.Cardinality(a) {
			t.Fatalf("trial %d: after an abandoned flush, codes of column %d diverge", trial, a)
		}
	}
}

// pairwiseAgreements is the reference for Refreshed.Agreements: for i
// ascending from oldRows and j ascending below i, the first pair realizing
// each non-empty agreement set not seen yet.
func pairwiseAgreements(tbl *relation.Table, oldRows int) map[relation.AttrSet][2]int {
	out := make(map[relation.AttrSet][2]int)
	for i := oldRows; i < tbl.NumRows(); i++ {
		for j := 0; j < i; j++ {
			a := agreementSet(tbl, j, i)
			if _, seen := out[a]; !seen && !a.IsEmpty() {
				out[a] = [2]int{j, i}
			}
		}
	}
	return out
}

// TestMaintainBorderAgreementsMatchPairwise holds Agreements, whose exact
// witness pairs Step 4's ciphertext depends on, to the pairwise scan over
// three shapes: small random tables whose appends repeat rows within the
// batch, tables with a value whose posting list reaches 64 rows or more
// (the heavy-posting path), and schemas wider than the stamped set table.
// Every stable append is maintained once more from the refreshed result,
// through the cached postings.
func TestMaintainBorderAgreementsMatchPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shapes := []struct {
		name               string
		minAttrs, maxAttrs int
		minRows, maxRows   int
		domain             func(a int) int
	}{
		{"small", 2, 6, 4, 40, func(int) int { return 1 + rng.Intn(3) }},
		{"heavy", 3, 5, 150, 300, func(a int) int {
			if a == 0 {
				return 1 + rng.Intn(2)
			}
			return 2 + rng.Intn(30)
		}},
		{"wide", setStampMaxAttrs + 1, setStampMaxAttrs + 4, 10, 40, func(int) int { return 1 + rng.Intn(3) }},
	}
	randomRow := func(domains []int, spare int) []string {
		row := make([]string, len(domains))
		for a := range row {
			row[a] = fmt.Sprintf("%c%d", 'a'+a, rng.Intn(domains[a]+spare))
		}
		return row
	}
	batch := func(tbl *relation.Table, domains []int) *relation.Table {
		out := tbl.Clone()
		n := 1 + rng.Intn(6)
		start := out.NumRows()
		for r := 0; r < n; r++ {
			switch k := rng.Intn(4); {
			case k == 0 && r > 0: // a duplicate of an earlier row of this batch
				out.AppendRow(out.Row(start + rng.Intn(r)))
			case k == 1: // a duplicate of an old row
				out.AppendRow(out.Row(rng.Intn(start)))
			default: // one value more than the old rows drew from, so codes get coined
				out.AppendRow(randomRow(domains, 1))
			}
		}
		return out
	}
	for _, sh := range shapes {
		stable := 0
		for trial := 0; trial < 60; trial++ {
			attrs := sh.minAttrs + rng.Intn(sh.maxAttrs-sh.minAttrs+1)
			domains := make([]int, attrs)
			for a := range domains {
				domains[a] = sh.domain(a)
			}
			names := make([]string, attrs)
			for a := range names {
				names[a] = fmt.Sprintf("C%d", a)
			}
			tbl := relation.NewTable(relation.MustSchema(names...))
			for r := sh.minRows + rng.Intn(sh.maxRows-sh.minRows+1); r > 0; r-- {
				tbl.AppendRow(randomRow(domains, 0))
			}
			if trial%2 == 0 { // a full-row duplicate pins the border at R
				tbl.AppendRow(tbl.Row(0))
			}
			prev, err := DiscoverCtx(context.Background(), tbl)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ {
				next := batch(tbl, domains)
				ref, ok, err := MaintainBorder(context.Background(), prev, next, tbl.NumRows())
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				stable++
				if want := pairwiseAgreements(next, tbl.NumRows()); !reflect.DeepEqual(ref.Agreements, want) {
					t.Fatalf("%s trial %d round %d: Agreements = %v, pairwise = %v\n%v", sh.name, trial, round, ref.Agreements, want, next)
				}
				prev, tbl = ref.Result, next
			}
		}
		if stable < 30 {
			t.Fatalf("%s: only %d stable appends checked", sh.name, stable)
		}
	}
}

// BenchmarkMaintainBorder replays flushes of 10% of the table through
// MaintainBorder: the ingest workload's shape (synthetic-4000 and a fresh
// synthetic stream), a growing orders table, and orders re-appending its
// own rows. A flush that moves the border is rediscovered off the clock,
// as the updater's fallback would; fallbacks/op counts them.
func BenchmarkMaintainBorder(b *testing.B) {
	const flushes = 10
	growth := func(base int) int {
		n, total := base, 0
		for f := 0; f < flushes; f++ {
			total += n / 10
			n += n / 10
		}
		return total
	}
	synthetic := workload.Synthetic(4000, 7)
	orders := workload.Orders(2000+growth(2000), 1)
	ordersBase := relation.MustFromRows(orders.Schema(), orders.JSON().Rows[:2000])
	cases := []struct {
		name   string
		base   *relation.Table
		stream [][]string
	}{
		{"synthetic-4000", synthetic, workload.Synthetic(growth(4000), 14).JSON().Rows},
		{"orders-2000", ordersBase, orders.JSON().Rows[2000:]},
		{"orders-2000-reappend", ordersBase, append(append([][]string{}, ordersBase.JSON().Rows...), ordersBase.JSON().Rows...)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			fallbacks := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tbl := c.base.Clone()
				prev, err := DiscoverCtx(context.Background(), tbl)
				if err != nil {
					b.Fatal(err)
				}
				next := 0
				for f := 0; f < flushes; f++ {
					old := tbl.NumRows()
					add := old / 10
					if err := tbl.AppendRows(c.stream[next : next+add]); err != nil {
						b.Fatal(err)
					}
					next += add
					b.StartTimer()
					ref, ok, err := MaintainBorder(context.Background(), prev, tbl, old)
					b.StopTimer()
					if err != nil {
						b.Fatal(err)
					}
					if ok {
						prev = ref.Result
						continue
					}
					fallbacks++
					if prev, err = DiscoverCtx(context.Background(), tbl); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(fallbacks)/float64(b.N), "fallbacks/op")
		})
	}
}
