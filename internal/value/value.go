// Package value implements the dynamic value system shared by every layer
// of the reproduction: database items, query results, PTL terms and
// constraint formulas all carry values of this type.
//
// The paper's model is data-model independent; the concrete domains it uses
// in examples are integers (time, counters), reals (stock prices), strings
// (stock names, user ids) and relations (query results such as OVERPRICED).
// We support exactly those, plus booleans and tuples (relation rows).
package value

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic types a Value can hold.
type Kind int

const (
	// Null is the zero Value; it compares equal only to itself.
	Null Kind = iota
	// Bool holds a boolean.
	Bool
	// Int holds a 64-bit signed integer. Timestamps are Ints.
	Int
	// Float holds a 64-bit float.
	Float
	// String holds an immutable string.
	String
	// Tuple holds an ordered sequence of scalar values (a relation row).
	Tuple
	// Relation holds a set of equal-width tuples.
	Relation
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Bool:
		return "bool"
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	case Tuple:
		return "tuple"
	case Relation:
		return "relation"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Value is a dynamically typed value. The zero Value is Null.
//
// Values are immutable by convention: once constructed, neither the tuple
// slice nor the relation rows may be mutated. All package functions uphold
// this and callers must too; it is what makes histories and auxiliary
// relations safe to share without copying.
//
// A Value is copied wherever it goes, so it is kept to five words: the
// scalar payloads share i, the two kinds with slices share one pointer.
type Value struct {
	kind Kind
	i    int64 // Int; Bool as 0/1; Float as math.Float64bits
	s    string
	c    *compound // Tuple and Relation only
}

// compound is the payload of a Tuple (t) or a Relation (r).
type compound struct {
	t []Value   // Tuple elements
	r [][]Value // Relation rows; each row has identical width
}

// Bools, reused to avoid allocation in hot paths.
var (
	True  = Value{kind: Bool, i: 1}
	False = Value{kind: Bool}
)

// NewBool returns a boolean Value.
func NewBool(b bool) Value {
	if b {
		return True
	}
	return False
}

// NewInt returns an integer Value.
func NewInt(i int64) Value { return Value{kind: Int, i: i} }

// NewFloat returns a float Value.
func NewFloat(f float64) Value { return Value{kind: Float, i: int64(math.Float64bits(f))} }

// NewString returns a string Value.
func NewString(s string) Value { return Value{kind: String, s: s} }

// NewTuple returns a tuple Value over the given scalars. The slice is
// retained; the caller must not mutate it afterwards.
func NewTuple(elems ...Value) Value { return Value{kind: Tuple, c: &compound{t: elems}} }

// NewRelation returns a relation Value over the given rows. The slice is
// retained; the caller must not mutate it afterwards.
func NewRelation(rows [][]Value) Value { return Value{kind: Relation, c: &compound{r: rows}} }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the Null value.
func (v Value) IsNull() bool { return v.kind == Null }

// IsNumeric reports whether v is an Int or a Float.
func (v Value) IsNumeric() bool { return v.kind == Int || v.kind == Float }

// AsBool returns the boolean payload; it panics if v is not a Bool.
func (v Value) AsBool() bool {
	if v.kind != Bool {
		panic(fmt.Sprintf("value: AsBool on %s", v.kind))
	}
	return v.i != 0
}

// AsInt returns the integer payload; it panics if v is not an Int.
func (v Value) AsInt() int64 {
	if v.kind != Int {
		panic(fmt.Sprintf("value: AsInt on %s", v.kind))
	}
	return v.i
}

// AsFloat returns the numeric payload widened to float64; it panics if v is
// not numeric.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case Int:
		return float64(v.i)
	case Float:
		return v.float()
	}
	panic(fmt.Sprintf("value: AsFloat on %s", v.kind))
}

// AsString returns the string payload; it panics if v is not a String.
func (v Value) AsString() string {
	if v.kind != String {
		panic(fmt.Sprintf("value: AsString on %s", v.kind))
	}
	return v.s
}

// TupleLen returns the arity of a tuple value; it panics otherwise.
func (v Value) TupleLen() int {
	if v.kind != Tuple {
		panic(fmt.Sprintf("value: TupleLen on %s", v.kind))
	}
	return len(v.c.t)
}

// TupleAt returns element i of a tuple value.
func (v Value) TupleAt(i int) Value {
	if v.kind != Tuple {
		panic(fmt.Sprintf("value: TupleAt on %s", v.kind))
	}
	return v.c.t[i]
}

// TupleElems returns the underlying elements of a tuple value. The result
// must not be mutated.
func (v Value) TupleElems() []Value {
	if v.kind != Tuple {
		panic(fmt.Sprintf("value: TupleElems on %s", v.kind))
	}
	return v.c.t
}

// Rows returns the rows of a relation value. The result must not be
// mutated.
func (v Value) Rows() [][]Value {
	if v.kind != Relation {
		panic(fmt.Sprintf("value: Rows on %s", v.kind))
	}
	return v.c.r
}

// NumRows returns the cardinality of a relation value.
func (v Value) NumRows() int {
	if v.kind != Relation {
		panic(fmt.Sprintf("value: NumRows on %s", v.kind))
	}
	return len(v.c.r)
}

// float is the Float payload.
func (v Value) float() float64 { return math.Float64frombits(uint64(v.i)) }

func (v Value) isNaN() bool { return v.kind == Float && math.IsNaN(v.float()) }

// Equal reports deep equality. Int and Float compare numerically, so
// NewInt(2).Equal(NewFloat(2)) is true, matching the comparison operators
// of the logic — and exactly: a Float equals an Int only when it is that
// integer, never merely its nearest float64. Relations compare as sets
// (order-insensitive).
func (v Value) Equal(w Value) bool {
	if v.IsNumeric() && w.IsNumeric() {
		// NaN orders equal to everything but equals nothing.
		return !v.isNaN() && !w.isNaN() && compareNumeric(v, w) == 0
	}
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case Null:
		return true
	case Bool:
		return v.i == w.i
	case String:
		return v.s == w.s
	case Tuple:
		if len(v.c.t) != len(w.c.t) {
			return false
		}
		for i := range v.c.t {
			if !v.c.t[i].Equal(w.c.t[i]) {
				return false
			}
		}
		return true
	case Relation:
		return relationKey(v.c.r) == relationKey(w.c.r)
	default:
		return false
	}
}

// Identical reports whether v and w are the same value, where Equal is the
// logic's =: the same kind and the same bits, so Int 2 is not Float 2, 0 is
// not -0, and NaN is identical to itself (any NaN to any other: no encoding
// keeps the payload). Tuples compare element by element, relations as sets,
// as under Equal.
func (v Value) Identical(w Value) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case Float:
		return v.i == w.i || v.isNaN() && w.isNaN()
	case Tuple:
		if len(v.c.t) != len(w.c.t) {
			return false
		}
		for i := range v.c.t {
			if !v.c.t[i].Identical(w.c.t[i]) {
				return false
			}
		}
		return true
	case Relation:
		return relationKey(v.c.r) == relationKey(w.c.r)
	default:
		return v.i == w.i && v.s == w.s
	}
}

// compareNumeric orders two numeric values exactly: Int against Int as
// integers (timestamps may be nanoseconds, far beyond float64's 2^53), and
// Int against Float without rounding the integer. NaN orders equal to
// everything, as it always has through the float comparison.
func compareNumeric(v, w Value) int {
	switch {
	case v.isNaN() || w.isNaN():
		return 0
	case v.kind == Int && w.kind == Int:
		return cmp.Compare(v.i, w.i)
	case v.kind == Int:
		return compareIntFloat(v.i, w.float())
	case w.kind == Int:
		return -compareIntFloat(w.i, v.float())
	}
	return cmp.Compare(v.float(), w.float())
}

// compareIntFloat orders i against f (not NaN) exactly.
func compareIntFloat(i int64, f float64) int {
	switch {
	case f >= 1<<63:
		return -1
	case f < -1<<63:
		return 1
	}
	// f is inside int64's range, so its integer part converts exactly and
	// only the fraction is left to break a tie.
	whole := math.Trunc(f)
	if c := cmp.Compare(i, int64(whole)); c != 0 {
		return c
	}
	return cmp.Compare(0, f-whole)
}

// Compare orders two values. It returns a negative, zero or positive int
// like strings.Compare. Numerics compare numerically (and exactly) across
// Int/Float; otherwise both values must have the same kind. Bool orders
// false < true. Tuples order lexicographically. Comparing relations or
// mismatched kinds returns an error.
func (v Value) Compare(w Value) (int, error) {
	if v.IsNumeric() && w.IsNumeric() {
		return compareNumeric(v, w), nil
	}
	if v.kind != w.kind {
		return 0, fmt.Errorf("value: cannot compare %s with %s", v.kind, w.kind)
	}
	switch v.kind {
	case Null:
		return 0, nil
	case Bool:
		return cmp.Compare(v.i, w.i), nil
	case String:
		return strings.Compare(v.s, w.s), nil
	case Tuple:
		vt, wt := v.c.t, w.c.t
		for i := 0; i < len(vt) && i < len(wt); i++ {
			c, err := vt[i].Compare(wt[i])
			if err != nil || c != 0 {
				return c, err
			}
		}
		return len(vt) - len(wt), nil
	default:
		return 0, fmt.Errorf("value: cannot order %s values", v.kind)
	}
}

// Key returns a canonical string key for v, usable as a map key for
// hash-consing and deduplication. Distinct values (under Equal) have
// distinct keys and equal values share one. Numeric values are keyed by
// their float64 representation so Int 2 and Float 2 collide, matching
// Equal; integers beyond 2^53, which float64 cannot tell apart, are keyed
// by their decimal digits, whichever kind carries them.
func (v Value) Key() string { return string(v.AppendKey(make([]byte, 0, 24))) }

// AppendKey appends v's Key to b, so a caller that sorts or looks values up
// by key can reuse one buffer.
func (v Value) AppendKey(b []byte) []byte {
	switch v.kind {
	case Null:
		b = append(b, "n;"...)
	case Bool:
		if v.i != 0 {
			b = append(b, "b1;"...)
		} else {
			b = append(b, "b0;"...)
		}
	case Int, Float:
		// The integer v equals, if any: an Int's own, or a whole Float's
		// inside int64.
		i, whole := v.i, v.kind == Int
		if f := v.float(); !whole && f >= -1<<63 && f < 1<<63 && f == math.Trunc(f) {
			i, whole = int64(f), true
		}
		if whole && (i < -1<<53 || i > 1<<53) {
			b = strconv.AppendInt(append(b, 'i'), i, 10)
		} else {
			b = strconv.AppendFloat(append(b, 'f'), v.AsFloat(), 'g', -1, 64)
		}
		b = append(b, ';')
	case String:
		b = strconv.AppendInt(append(b, 's'), int64(len(v.s)), 10)
		b = append(append(append(b, ':'), v.s...), ';')
	case Tuple:
		b = append(b, "t("...)
		for _, e := range v.c.t {
			b = e.AppendKey(b)
		}
		b = append(b, ");"...)
	case Relation:
		b = append(append(append(b, "r("...), relationKey(v.c.r)...), ");"...)
	}
	return b
}

// relationKey builds an order-insensitive canonical key for rows.
func relationKey(rows [][]Value) string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		keys[i] = NewTuple(row...).Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case Null:
		return "null"
	case Bool:
		return strconv.FormatBool(v.i != 0)
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Float:
		s := strconv.FormatFloat(v.float(), 'g', -1, 64)
		// Keep a float marker so formula printing round-trips: plain "1"
		// would re-parse as an integer.
		if !strings.ContainsAny(s, ".eE") && !strings.ContainsAny(s, "InN") {
			s += ".0"
		}
		return s
	case String:
		return strconv.Quote(v.s)
	case Tuple:
		parts := make([]string, len(v.c.t))
		for i, e := range v.c.t {
			parts[i] = e.String()
		}
		return "(" + strings.Join(parts, ", ") + ")"
	case Relation:
		parts := make([]string, len(v.c.r))
		for i, row := range v.c.r {
			parts[i] = NewTuple(row...).String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	default:
		return "?"
	}
}

// ArithOp is a binary arithmetic operator.
type ArithOp int

// Arithmetic operators supported in PTL terms.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Mod
)

// String renders the operator symbol.
func (op ArithOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	case Mod:
		return "mod"
	default:
		return "?"
	}
}

// Arith applies a binary arithmetic operator. Int op Int stays Int (Div
// truncates, matching integer division in the logic); any Float operand
// promotes the result to Float. The result is Null, the undefined value,
// when an operand is Null or not a number, and for division or modulo by
// zero: an atom over it is then false, like one over any Null.
func Arith(op ArithOp, a, b Value) Value {
	if !a.IsNumeric() || !b.IsNumeric() || (op == Div || op == Mod) && b.AsFloat() == 0 {
		return Value{}
	}
	if a.kind == Int && b.kind == Int {
		x, y := a.i, b.i
		switch op {
		case Add:
			return NewInt(x + y)
		case Sub:
			return NewInt(x - y)
		case Mul:
			return NewInt(x * y)
		case Div:
			return NewInt(x / y)
		case Mod:
			return NewInt(x % y)
		}
	}
	x, y := a.AsFloat(), b.AsFloat()
	switch op {
	case Add:
		return NewFloat(x + y)
	case Sub:
		return NewFloat(x - y)
	case Mul:
		return NewFloat(x * y)
	case Div:
		return NewFloat(x / y)
	case Mod:
		return NewFloat(math.Mod(x, y))
	}
	return Value{}
}

// CmpOp is a comparison operator of the logic.
type CmpOp int

// Comparison operators. NE is the negation of EQ and so on; they are kept
// distinct because constraint formulas manipulate them symbolically.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String renders the operator symbol.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return "?"
	}
}

// Negate returns the complementary operator: !(a op b) == a op.Negate() b.
func (op CmpOp) Negate() CmpOp {
	switch op {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	default:
		return op
	}
}

// Flip returns the operator with swapped operands: a op b == b op.Flip() a.
func (op CmpOp) Flip() CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default:
		return op
	}
}

// Holds applies a comparison operator to an ordering result from Compare.
func (op CmpOp) Holds(cmp int) bool {
	switch op {
	case EQ:
		return cmp == 0
	case NE:
		return cmp != 0
	case LT:
		return cmp < 0
	case LE:
		return cmp <= 0
	case GT:
		return cmp > 0
	case GE:
		return cmp >= 0
	default:
		return false
	}
}

// Cmp evaluates a comparison between two values. It is false when a side
// is Null, the undefined value, and an ordering operator is false too where
// Compare refuses the kinds (a string against an int, a relation); EQ and
// NE otherwise follow Equal. So a comparison and its negation are both
// false exactly when it is undefined, and every evaluator gives a verdict
// at every state.
func Cmp(op CmpOp, a, b Value) bool {
	if a.kind == Null || b.kind == Null {
		return false
	}
	switch op {
	case EQ:
		return a.Equal(b)
	case NE:
		return !a.Equal(b)
	}
	c, err := a.Compare(b)
	return err == nil && op.Holds(c)
}
