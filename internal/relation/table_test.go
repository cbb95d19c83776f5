package relation

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func sampleTable(t *testing.T) *Table {
	t.Helper()
	return MustFromRows(MustSchema("A", "B", "C"), [][]string{
		{"a1", "b1", "c1"},
		{"a1", "b1", "c2"},
		{"a2", "b2", "c1"},
	})
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewSchema("a", "a"); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewSchema("a", ""); err == nil {
		t.Error("empty column name accepted")
	}
	many := make([]string, MaxAttrs+1)
	for i := range many {
		many[i] = strings.Repeat("x", i+1)
	}
	if _, err := NewSchema(many...); err == nil {
		t.Error("over-wide schema accepted")
	}
	s := MustSchema("A", "B")
	if s.Lookup("B") != 1 || s.Lookup("nope") != -1 {
		t.Error("Lookup wrong")
	}
	set, err := s.AttrSetOf("B", "A")
	if err != nil || set != NewAttrSet(0, 1) {
		t.Errorf("AttrSetOf = %v, %v", set, err)
	}
	if _, err := s.AttrSetOf("missing"); err == nil {
		t.Error("AttrSetOf of unknown column accepted")
	}
}

func TestTableBasics(t *testing.T) {
	tbl := sampleTable(t)
	if tbl.NumRows() != 3 || tbl.NumAttrs() != 3 {
		t.Fatalf("dims = %dx%d", tbl.NumRows(), tbl.NumAttrs())
	}
	if tbl.Cell(1, 2) != "c2" {
		t.Errorf("Cell(1,2) = %q", tbl.Cell(1, 2))
	}
	if got := tbl.Row(2); !reflect.DeepEqual(got, []string{"a2", "b2", "c1"}) {
		t.Errorf("Row(2) = %v", got)
	}
	if err := tbl.AppendRow([]string{"too", "short"}); err == nil {
		t.Error("short row accepted")
	}
}

func TestTableCloneIndependence(t *testing.T) {
	tbl := sampleTable(t)
	cp := tbl.Clone()
	cp.SetCell(0, 0, "changed")
	if tbl.Cell(0, 0) == "changed" {
		t.Error("Clone shares storage with original")
	}
}

func TestProjectKeyDistinguishes(t *testing.T) {
	// Length prefixing must prevent concatenation collisions: ("ab","c")
	// vs ("a","bc").
	tbl := MustFromRows(MustSchema("X", "Y"), [][]string{
		{"ab", "c"},
		{"a", "bc"},
	})
	k0 := tbl.ProjectKey(0, NewAttrSet(0, 1))
	k1 := tbl.ProjectKey(1, NewAttrSet(0, 1))
	if k0 == k1 {
		t.Fatalf("ProjectKey collision: %q", k0)
	}
}

func TestFreqAndDistinct(t *testing.T) {
	tbl := sampleTable(t)
	f := tbl.Freq(0)
	if f["a1"] != 2 || f["a2"] != 1 {
		t.Errorf("Freq = %v", f)
	}
	if tbl.DistinctCount(2) != 2 {
		t.Errorf("DistinctCount(C) = %d", tbl.DistinctCount(2))
	}
}

func TestHasDuplicateOn(t *testing.T) {
	tbl := sampleTable(t)
	if !tbl.HasDuplicateOn(NewAttrSet(0, 1)) {
		t.Error("{A,B} should be non-unique")
	}
	if tbl.HasDuplicateOn(NewAttrSet(0, 1, 2)) {
		t.Error("{A,B,C} should be unique")
	}
}

func TestSortedRowsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := [][]string{}
	for i := 0; i < 50; i++ {
		rows = append(rows, []string{string(rune('a' + rng.Intn(5))), string(rune('x' + rng.Intn(3)))})
	}
	t1 := MustFromRows(MustSchema("P", "Q"), rows)
	// Shuffle rows into a second table.
	shuffled := append([][]string(nil), rows...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	t2 := MustFromRows(MustSchema("P", "Q"), shuffled)
	if !reflect.DeepEqual(t1.SortedRows(), t2.SortedRows()) {
		t.Error("SortedRows not order-insensitive")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := MustFromRows(MustSchema("A", "B"), [][]string{
		{"plain", "with,comma"},
		{"with\"quote", "with\nnewline"},
		{"", "empty-left"},
	})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tbl); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !reflect.DeepEqual(back.SortedRows(), tbl.SortedRows()) {
		t.Errorf("round trip mismatch:\n%v\nvs\n%v", back, tbl)
	}
	if !reflect.DeepEqual(back.Schema().Names(), tbl.Schema().Names()) {
		t.Errorf("schema mismatch: %v vs %v", back.Schema().Names(), tbl.Schema().Names())
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	tbl := sampleTable(t)
	path := t.TempDir() + "/t.csv"
	if err := WriteCSVFile(path, tbl); err != nil {
		t.Fatalf("WriteCSVFile: %v", err)
	}
	back, err := ReadCSVFile(path)
	if err != nil {
		t.Fatalf("ReadCSVFile: %v", err)
	}
	if !reflect.DeepEqual(back.SortedRows(), tbl.SortedRows()) {
		t.Error("file round trip mismatch")
	}
}

func TestApproxBytesPositive(t *testing.T) {
	tbl := sampleTable(t)
	if tbl.ApproxBytes() <= 0 {
		t.Error("ApproxBytes should be positive")
	}
	if empty := NewTable(MustSchema("A")); empty.ApproxBytes() != 0 {
		t.Error("empty table should have 0 bytes")
	}
}
