// Package relation provides the relational substrate for F²: schemas,
// in-memory tables, attribute bitsets, projections, frequency statistics,
// and CSV/JSON import/export. Tables are immutable-by-convention column
// stores of string-typed cells; the F² scheme (and FD theory generally)
// only needs cell equality, so every value is a string.
//
// Invariants:
//
//   - an AttrSet is a uint64 bitmask, so schemas are capped at MaxAttrs
//     attributes; set algebra (subset, overlap, union) is a handful of
//     word operations, which is what makes the border searches cheap;
//   - AppendRow/AppendRows validate width and are atomic — a ragged
//     batch leaves the table unchanged, the guarantee the updater's
//     Buffer and the server's WAL-then-buffer sequencing rely on;
//   - row order is insertion order and is load-bearing throughout:
//     partitions keep it inside classes, the incremental engine splits
//     old from appended rows positionally, and encrypted tables must
//     replay byte-identically;
//   - Coded is the only string→code dictionary: codes are dense int32s in
//     first-occurrence order, so they are stable as rows are appended and
//     Coded.Extend codes only the new suffix. An extension shares its
//     view's storage, so each view lineage has a single writer; an
//     abandoned extension makes the next Extend of its parent rebuild.
package relation

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Schema describes the attributes (columns) of a relation.
type Schema struct {
	names []string
	index map[string]int
}

// NewSchema builds a schema from column names. Names must be unique and
// non-empty, and there may be at most MaxAttrs of them.
func NewSchema(names ...string) (*Schema, error) {
	if len(names) == 0 {
		return nil, errors.New("relation: schema needs at least one column")
	}
	if len(names) > MaxAttrs {
		return nil, fmt.Errorf("relation: schema has %d columns, max is %d", len(names), MaxAttrs)
	}
	idx := make(map[string]int, len(names))
	for i, n := range names {
		if n == "" {
			return nil, fmt.Errorf("relation: column %d has empty name", i)
		}
		if _, dup := idx[n]; dup {
			return nil, fmt.Errorf("relation: duplicate column name %q", n)
		}
		idx[n] = i
	}
	return &Schema{names: append([]string(nil), names...), index: idx}, nil
}

// MustSchema is NewSchema but panics on error; for tests and literals.
func MustSchema(names ...string) *Schema {
	s, err := NewSchema(names...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumAttrs returns the number of columns.
func (s *Schema) NumAttrs() int { return len(s.names) }

// Name returns the name of column a.
func (s *Schema) Name(a int) string { return s.names[a] }

// Names returns a copy of all column names.
func (s *Schema) Names() []string { return append([]string(nil), s.names...) }

// Lookup returns the index of the named column, or -1.
func (s *Schema) Lookup(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// AttrSetOf resolves column names into an AttrSet.
func (s *Schema) AttrSetOf(names ...string) (AttrSet, error) {
	var set AttrSet
	for _, n := range names {
		i := s.Lookup(n)
		if i < 0 {
			return 0, fmt.Errorf("relation: unknown column %q", n)
		}
		set = set.Add(i)
	}
	return set, nil
}

// All returns the set of all attributes in the schema.
func (s *Schema) All() AttrSet { return FullAttrSet(len(s.names)) }

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	return MustSchema(s.names...)
}

// Table is an in-memory relation: a schema plus column-major cell storage.
// All columns have the same length. Cells are strings; equality of cells is
// the only operation FD/MAS machinery relies on.
type Table struct {
	schema *Schema
	cols   [][]string
	n      int
}

// NewTable creates an empty table with the given schema.
func NewTable(schema *Schema) *Table {
	cols := make([][]string, schema.NumAttrs())
	return &Table{schema: schema, cols: cols}
}

// NewTableCap creates an empty table with row capacity reserved in every
// column, for callers that know roughly how many rows are coming (e.g. a
// flush buffer sized like the previous flush's delta).
func NewTableCap(schema *Schema, capacity int) *Table {
	t := NewTable(schema)
	for a := range t.cols {
		t.cols[a] = make([]string, 0, capacity)
	}
	return t
}

// NewTableRows creates a table of n rows whose cells are all empty, for
// builders that then fill every cell with SetCell (rows may be filled
// concurrently, one goroutine per row range).
func NewTableRows(schema *Schema, n int) *Table {
	t := NewTable(schema)
	for a := range t.cols {
		t.cols[a] = make([]string, n)
	}
	t.n = n
	return t
}

// FromRows builds a table from row-major data.
func FromRows(schema *Schema, rows [][]string) (*Table, error) {
	t := NewTable(schema)
	for i, r := range rows {
		if err := t.AppendRow(r); err != nil {
			return nil, fmt.Errorf("relation: row %d: %w", i, err)
		}
	}
	return t, nil
}

// FromColumns builds a table over column-major data, taking ownership
// of cols: column a becomes cols[a] without a copy. Every column must
// have the same length, and there must be one per schema attribute.
func FromColumns(schema *Schema, cols [][]string) (*Table, error) {
	if len(cols) != schema.NumAttrs() {
		return nil, fmt.Errorf("relation: %d columns, schema has %d", len(cols), schema.NumAttrs())
	}
	t := &Table{schema: schema, cols: cols}
	if len(cols) > 0 {
		t.n = len(cols[0])
	}
	for a, col := range cols {
		if len(col) != t.n {
			return nil, fmt.Errorf("relation: column %d has %d rows, column 0 has %d", a, len(col), t.n)
		}
	}
	return t, nil
}

// MustFromRows is FromRows but panics on error; for tests and literals.
func MustFromRows(schema *Schema, rows [][]string) *Table {
	t, err := FromRows(schema, rows)
	if err != nil {
		panic(err)
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return t.n }

// NumAttrs returns the number of columns.
func (t *Table) NumAttrs() int { return t.schema.NumAttrs() }

// Cell returns the value at (row, col).
func (t *Table) Cell(row, col int) string { return t.cols[col][row] }

// SetCell overwrites the value at (row, col). Intended for builders such as
// the encryptor; general users should treat tables as immutable.
func (t *Table) SetCell(row, col int, v string) { t.cols[col][row] = v }

// Column returns the backing slice of column a. Callers must not modify it.
func (t *Table) Column(a int) []string { return t.cols[a] }

// Row materializes row i as a fresh slice.
func (t *Table) Row(i int) []string {
	r := make([]string, len(t.cols))
	for c := range t.cols {
		r[c] = t.cols[c][i]
	}
	return r
}

// AppendRow appends one row. The row length must match the schema.
func (t *Table) AppendRow(row []string) error {
	if len(row) != t.schema.NumAttrs() {
		return fmt.Errorf("relation: row has %d cells, schema has %d", len(row), t.schema.NumAttrs())
	}
	for c, v := range row {
		t.cols[c] = append(t.cols[c], v)
	}
	t.n++
	return nil
}

// AppendRows appends many rows atomically: the whole batch is validated
// before the first row is committed, so a ragged batch leaves the table
// unchanged.
func (t *Table) AppendRows(rows [][]string) error {
	for i, r := range rows {
		if len(r) != t.schema.NumAttrs() {
			return fmt.Errorf("relation: row %d has %d cells, schema has %d", i, len(r), t.schema.NumAttrs())
		}
	}
	for _, r := range rows {
		if err := t.AppendRow(r); err != nil {
			return err // unreachable: widths were validated above
		}
	}
	return nil
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	return t.CloneGrow(0)
}

// CloneGrow returns a deep copy whose columns have room for extra more
// rows before reallocating. Callers that clone and then append a known
// batch (the incremental encryptor tops up every flush) avoid regrowing
// each column several times over.
func (t *Table) CloneGrow(extra int) *Table {
	out := NewTable(t.schema.Clone())
	out.n = t.n
	for c := range t.cols {
		col := make([]string, t.n, t.n+extra)
		copy(col, t.cols[c])
		out.cols[c] = col
	}
	return out
}

// CloneShared returns a table that shares t's column storage instead of
// copying it. The clone sees exactly t's rows, and t can never observe
// rows appended to the clone (its own row count is fixed), so reads of t
// stay safe while the clone grows. What sharing does forbid is two
// live clones of the same table both being appended to — the second
// would overwrite spare capacity the first already used. Callers must
// guarantee a single append lineage; the incremental encryptor's
// single-flight flush does exactly that, extending a retired ciphertext
// table without re-copying every column on every flush.
func (t *Table) CloneShared() *Table {
	out := NewTable(t.schema.Clone())
	out.n = t.n
	copy(out.cols, t.cols)
	return out
}

// View returns a table that shares t's storage and is fixed at t's
// current rows. Each column's capacity is clipped to its length, so an
// append to the view reallocates that column instead of writing into
// spare capacity t may fill later: t and any number of its views grow
// independently. Because tables only grow by appending, rows appended to
// t are never seen by the view, and the view's cells never change.
func (t *Table) View() *Table {
	out := &Table{schema: t.schema, cols: make([][]string, len(t.cols)), n: t.n}
	for a, col := range t.cols {
		out.cols[a] = col[:t.n:t.n]
	}
	return out
}

// Project returns the values of row i restricted to attrs, in ascending
// attribute order.
func (t *Table) Project(i int, attrs AttrSet) []string {
	out := make([]string, 0, attrs.Size())
	for _, a := range attrs.Attrs() {
		out = append(out, t.cols[a][i])
	}
	return out
}

// ProjectKey returns a canonical string key for row i over attrs, suitable
// for map grouping. Cell values are length-prefixed so that distinct value
// tuples never collide.
func (t *Table) ProjectKey(i int, attrs AttrSet) string {
	var b strings.Builder
	for _, a := range attrs.Attrs() {
		v := t.cols[a][i]
		writeInt(&b, len(v))
		b.WriteByte(':')
		b.WriteString(v)
	}
	return b.String()
}

// AgreementSet returns the set of attributes on which rows i and j agree.
// The agreement set of any row pair is a non-unique column combination
// (witnessed by that very pair), so agreement sets drive both the
// brute-force MAS oracle and incremental border maintenance.
func (t *Table) AgreementSet(i, j int) AttrSet {
	var s AttrSet
	for a, col := range t.cols {
		if col[i] == col[j] {
			s = s.Add(a)
		}
	}
	return s
}

// KeyOfValues returns the canonical grouping key of a projected value
// tuple: for any row i, KeyOfValues(t.Project(i, attrs)) == t.ProjectKey(i,
// attrs). It keys value tuples that live outside any table, such as the
// rows a client holds to compare against a decrypted download.
func KeyOfValues(vals []string) string {
	var b strings.Builder
	for _, v := range vals {
		writeInt(&b, len(v))
		b.WriteByte(':')
		b.WriteString(v)
	}
	return b.String()
}

// Freq returns the frequency map of values in column a.
func (t *Table) Freq(a int) map[string]int {
	m := make(map[string]int)
	for _, v := range t.cols[a] {
		m[v]++
	}
	return m
}

// DistinctCount returns the number of distinct values in column a.
func (t *Table) DistinctCount(a int) int {
	return len(t.Freq(a))
}

// HasDuplicateOn reports whether some value tuple over attrs occurs in more
// than one row — i.e. whether attrs is a non-unique column combination.
func (t *Table) HasDuplicateOn(attrs AttrSet) bool {
	seen := make(map[string]struct{}, t.n)
	for i := 0; i < t.n; i++ {
		k := t.ProjectKey(i, attrs)
		if _, dup := seen[k]; dup {
			return true
		}
		seen[k] = struct{}{}
	}
	return false
}

// ApproxBytes returns the approximate payload size of the table in bytes
// (sum of cell lengths plus one separator per cell). Used by the benchmark
// harness to report dataset sizes like the paper's MB/GB axis labels.
func (t *Table) ApproxBytes() int64 {
	var total int64
	for _, col := range t.cols {
		for _, v := range col {
			total += int64(len(v)) + 1
		}
	}
	return total
}

// SortedRows returns all rows sorted lexicographically. Useful for
// order-insensitive comparisons in tests.
func (t *Table) SortedRows() [][]string {
	rows := make([][]string, t.n)
	for i := 0; i < t.n; i++ {
		rows[i] = t.Row(i)
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for c := range a {
			if a[c] != b[c] {
				return a[c] < b[c]
			}
		}
		return false
	})
	return rows
}

// String renders a small table for debugging; large tables are elided.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table(%d rows) %s\n", t.n, strings.Join(t.schema.Names(), "|"))
	limit := t.n
	const maxShow = 20
	if limit > maxShow {
		limit = maxShow
	}
	for i := 0; i < limit; i++ {
		b.WriteString(strings.Join(t.Row(i), "|"))
		b.WriteByte('\n')
	}
	if t.n > maxShow {
		fmt.Fprintf(&b, "... (%d more rows)\n", t.n-maxShow)
	}
	return b.String()
}
