// Package relation is the relational substrate of the reproduction. The
// paper's prototype ran on top of Sybase; this package plays that role:
// schemas, tuples and in-memory relations with the algebra the query layer
// needs. The [T_start, T_end) retrieval of Section 5 ("Implementation
// Using Auxiliary Relations") is not here: internal/adb answers it from
// its retained history states.
package relation

import (
	"fmt"
	"sort"
	"strings"

	"ptlactive/internal/value"
)

// Column describes one attribute of a schema.
type Column struct {
	// Name is the attribute name, unique within a schema.
	Name string
	// Kind is the attribute's value kind. value.Null means "any scalar".
	Kind value.Kind
}

// Schema is an ordered list of columns.
type Schema struct {
	cols  []Column
	index map[string]int
}

// NewSchema builds a schema. Column names must be unique.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{cols: cols, index: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("relation: column %d has empty name", i)
		}
		if _, dup := s.index[c.Name]; dup {
			return nil, fmt.Errorf("relation: duplicate column %q", c.Name)
		}
		s.index[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and literals.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Arity returns the number of columns.
func (s *Schema) Arity() int { return len(s.cols) }

// Columns returns the columns in order. The result must not be mutated.
func (s *Schema) Columns() []Column { return s.cols }

// ColumnIndex returns the position of a named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Equal reports whether two schemas have identical column lists.
func (s *Schema) Equal(o *Schema) bool {
	if s.Arity() != o.Arity() {
		return false
	}
	for i := range s.cols {
		if s.cols[i] != o.cols[i] {
			return false
		}
	}
	return true
}

// String renders the schema as (name kind, ...).
func (s *Schema) String() string {
	parts := make([]string, len(s.cols))
	for i, c := range s.cols {
		parts[i] = c.Name + " " + c.Kind.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// checkTuple validates a row against the schema.
func (s *Schema) checkTuple(row []value.Value) error {
	if len(row) != len(s.cols) {
		return fmt.Errorf("relation: tuple arity %d does not match schema arity %d", len(row), len(s.cols))
	}
	for i, v := range row {
		want := s.cols[i].Kind
		if want != value.Null && v.Kind() != want {
			// Allow numeric interchange, mirroring the value package.
			if (want == value.Int || want == value.Float) && v.IsNumeric() {
				continue
			}
			return fmt.Errorf("relation: column %q wants %s, got %s", s.cols[i].Name, want, v.Kind())
		}
	}
	return nil
}

// Relation is an in-memory set of tuples over a schema. Duplicate rows are
// eliminated (set semantics, as in the paper's query results).
type Relation struct {
	schema *Schema
	rows   [][]value.Value
	keys   map[string]int // tuple key -> row index
}

// New creates an empty relation over the schema.
func New(schema *Schema) *Relation {
	return &Relation{schema: schema, keys: make(map[string]int)}
}

// FromRows creates a relation and inserts the given rows.
func FromRows(schema *Schema, rows [][]value.Value) (*Relation, error) {
	r := New(schema)
	for _, row := range rows {
		if err := r.Insert(row); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the cardinality.
func (r *Relation) Len() int { return len(r.rows) }

// Rows returns the rows in insertion order. Neither the slice nor the rows
// may be mutated.
func (r *Relation) Rows() [][]value.Value { return r.rows }

// rowKey computes a tuple identity key.
func rowKey(row []value.Value) string {
	return value.NewTuple(row...).Key()
}

// Insert adds a row; duplicates are silently ignored (set semantics).
func (r *Relation) Insert(row []value.Value) error {
	if err := r.schema.checkTuple(row); err != nil {
		return err
	}
	k := rowKey(row)
	if _, dup := r.keys[k]; dup {
		return nil
	}
	cp := make([]value.Value, len(row))
	copy(cp, row)
	r.keys[k] = len(r.rows)
	r.rows = append(r.rows, cp)
	return nil
}

// Delete removes a row if present and reports whether it was removed.
func (r *Relation) Delete(row []value.Value) bool {
	k := rowKey(row)
	i, ok := r.keys[k]
	if !ok {
		return false
	}
	last := len(r.rows) - 1
	if i != last {
		r.rows[i] = r.rows[last]
		r.keys[rowKey(r.rows[i])] = i
	}
	r.rows = r.rows[:last]
	delete(r.keys, k)
	return true
}

// Contains reports whether the row is present.
func (r *Relation) Contains(row []value.Value) bool {
	_, ok := r.keys[rowKey(row)]
	return ok
}

// Clone returns an independent deep-enough copy (rows are shared since
// values are immutable; row slices are copied).
func (r *Relation) Clone() *Relation {
	c := New(r.schema)
	for _, row := range r.rows {
		c.keys[rowKey(row)] = len(c.rows)
		c.rows = append(c.rows, row)
	}
	return c
}

// Value converts the relation to a value.Relation holding the same rows.
func (r *Relation) Value() value.Value {
	rows := make([][]value.Value, len(r.rows))
	copy(rows, r.rows)
	return value.NewRelation(rows)
}

// FromValue builds a relation over schema from a value.Relation.
func FromValue(schema *Schema, v value.Value) (*Relation, error) {
	if v.Kind() != value.Relation {
		return nil, fmt.Errorf("relation: FromValue needs a relation value, got %s", v.Kind())
	}
	return FromRows(schema, v.Rows())
}

// Select returns the rows satisfying pred, as a new relation.
func (r *Relation) Select(pred func(row []value.Value) bool) *Relation {
	out := New(r.schema)
	for _, row := range r.rows {
		if pred(row) {
			// Safe: row was validated on insert and stays immutable.
			out.keys[rowKey(row)] = len(out.rows)
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// Project returns a new relation containing only the named columns, with
// duplicates removed.
func (r *Relation) Project(names ...string) (*Relation, error) {
	idx := make([]int, len(names))
	cols := make([]Column, len(names))
	for i, n := range names {
		j := r.schema.ColumnIndex(n)
		if j < 0 {
			return nil, fmt.Errorf("relation: project on unknown column %q", n)
		}
		idx[i] = j
		cols[i] = r.schema.cols[j]
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	out := New(schema)
	for _, row := range r.rows {
		proj := make([]value.Value, len(idx))
		for i, j := range idx {
			proj[i] = row[j]
		}
		if err := out.Insert(proj); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Union returns r ∪ o; schemas must be equal.
func (r *Relation) Union(o *Relation) (*Relation, error) {
	if !r.schema.Equal(o.schema) {
		return nil, fmt.Errorf("relation: union of incompatible schemas %s and %s", r.schema, o.schema)
	}
	out := r.Clone()
	for _, row := range o.rows {
		if err := out.Insert(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Diff returns r \ o; schemas must be equal.
func (r *Relation) Diff(o *Relation) (*Relation, error) {
	if !r.schema.Equal(o.schema) {
		return nil, fmt.Errorf("relation: diff of incompatible schemas %s and %s", r.schema, o.schema)
	}
	return r.Select(func(row []value.Value) bool { return !o.Contains(row) }), nil
}

// Intersect returns r ∩ o; schemas must be equal.
func (r *Relation) Intersect(o *Relation) (*Relation, error) {
	if !r.schema.Equal(o.schema) {
		return nil, fmt.Errorf("relation: intersect of incompatible schemas %s and %s", r.schema, o.schema)
	}
	return r.Select(o.Contains), nil
}

// Join computes the natural join of r and o on their shared column names.
// Columns of o that also appear in r are dropped from the result.
func (r *Relation) Join(o *Relation) (*Relation, error) {
	var shared [][2]int // (index in r, index in o)
	var extraCols []Column
	var extraIdx []int
	for j, c := range o.schema.cols {
		if i := r.schema.ColumnIndex(c.Name); i >= 0 {
			shared = append(shared, [2]int{i, j})
		} else {
			extraCols = append(extraCols, c)
			extraIdx = append(extraIdx, j)
		}
	}
	cols := append(append([]Column{}, r.schema.cols...), extraCols...)
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	out := New(schema)
	// Hash join on the shared columns.
	type bucketKey = string
	buckets := make(map[bucketKey][][]value.Value)
	keyOf := func(row []value.Value, idx []int) string {
		parts := make([]value.Value, len(idx))
		for i, j := range idx {
			parts[i] = row[j]
		}
		return value.NewTuple(parts...).Key()
	}
	rIdx := make([]int, len(shared))
	oIdx := make([]int, len(shared))
	for i, p := range shared {
		rIdx[i], oIdx[i] = p[0], p[1]
	}
	for _, row := range o.rows {
		k := keyOf(row, oIdx)
		buckets[k] = append(buckets[k], row)
	}
	for _, row := range r.rows {
		for _, orow := range buckets[keyOf(row, rIdx)] {
			joined := make([]value.Value, 0, len(cols))
			joined = append(joined, row...)
			for _, j := range extraIdx {
				joined = append(joined, orow[j])
			}
			if err := out.Insert(joined); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Sorted returns the rows sorted lexicographically by tuple key, for
// deterministic display and comparison.
func (r *Relation) Sorted() [][]value.Value {
	out := make([][]value.Value, len(r.rows))
	copy(out, r.rows)
	sort.Slice(out, func(i, j int) bool {
		return rowKey(out[i]) < rowKey(out[j])
	})
	return out
}

// Equal reports set equality of two relations with equal schemas.
func (r *Relation) Equal(o *Relation) bool {
	if !r.schema.Equal(o.schema) || r.Len() != o.Len() {
		return false
	}
	for _, row := range r.rows {
		if !o.Contains(row) {
			return false
		}
	}
	return true
}

// String renders the relation deterministically.
func (r *Relation) String() string {
	var sb strings.Builder
	sb.WriteString(r.schema.String())
	sb.WriteString("{")
	for i, row := range r.Sorted() {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(value.NewTuple(row...).String())
	}
	sb.WriteString("}")
	return sb.String()
}
