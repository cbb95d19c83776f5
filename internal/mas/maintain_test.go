package mas

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"f2/internal/relation"
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
	got := BruteForce(tbl)
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
		if rp.NumRows() != fp.NumRows() || rp.NumClasses() != fp.NumClasses() {
			t.Fatalf("partition of %v diverged: %d/%d classes over %d/%d rows",
				m, rp.NumClasses(), fp.NumClasses(), rp.NumRows(), fp.NumRows())
		}
	}
	if len(ref.Agreements) == 0 || ref.Result.Checked == 0 {
		t.Fatalf("no agreement bookkeeping: %d sets, %d probes", len(ref.Agreements), ref.Result.Checked)
	}
	// The original result must be untouched (copy-on-write).
	for _, m := range prev.Sets {
		if prev.Partitions[m].NumRows() != old {
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
