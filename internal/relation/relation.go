// Package relation is the relational substrate of the reproduction. The
// paper's prototype ran on top of Sybase; this package plays that role:
// schemas, tuples and in-memory relations with the selection and
// projection the query layer needs. The [T_start, T_end) retrieval of Section 5 ("Implementation
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

// ColumnIndex returns the position of a named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
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
	keys   map[string]bool // the rows' tuple keys
}

// New creates an empty relation over the schema.
func New(schema *Schema) *Relation {
	return &Relation{schema: schema, keys: make(map[string]bool)}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

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
	if r.keys[k] {
		return nil
	}
	cp := make([]value.Value, len(row))
	copy(cp, row)
	r.keys[k] = true
	r.rows = append(r.rows, cp)
	return nil
}

// Value converts the relation to a value.Relation holding the same rows.
func (r *Relation) Value() value.Value {
	rows := make([][]value.Value, len(r.rows))
	copy(rows, r.rows)
	return value.NewRelation(rows)
}

// Admit builds a relation over schema from the rows of v that fit it: a
// value that is not a relation holds no rows, and a row of another width,
// or with a value of another kind in a typed column, is skipped. A query
// over an ill-shaped item so reads what is there and never fails, as an
// undefined operand in a condition is Null, not an error.
func Admit(schema *Schema, v value.Value) *Relation {
	r := New(schema)
	if v.Kind() == value.Relation {
		for _, row := range v.Rows() {
			_ = r.Insert(row) // a row the schema refuses is skipped
		}
	}
	return r
}

// Select returns the rows satisfying pred, as a new relation.
func (r *Relation) Select(pred func(row []value.Value) bool) *Relation {
	out := New(r.schema)
	for _, row := range r.rows {
		if pred(row) {
			// Safe: row was validated on insert and stays immutable.
			out.keys[rowKey(row)] = true
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

// Sorted returns the rows sorted lexicographically by tuple key, for
// deterministic display.
func (r *Relation) Sorted() [][]value.Value {
	out := make([][]value.Value, len(r.rows))
	copy(out, r.rows)
	sort.Slice(out, func(i, j int) bool {
		return rowKey(out[i]) < rowKey(out[j])
	})
	return out
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
