package value

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Null: "null", Bool: "bool", Int: "int", Float: "float",
		String: "string", Tuple: "tuple", Relation: "relation", Kind(99): "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !NewBool(true).AsBool() || NewBool(false).AsBool() {
		t.Fatal("bool round trip failed")
	}
	if NewInt(-7).AsInt() != -7 {
		t.Fatal("int round trip failed")
	}
	if NewFloat(2.5).AsFloat() != 2.5 {
		t.Fatal("float round trip failed")
	}
	if NewInt(3).AsFloat() != 3.0 {
		t.Fatal("int widening failed")
	}
	if NewString("ibm").AsString() != "ibm" {
		t.Fatal("string round trip failed")
	}
	tp := NewTuple(NewInt(1), NewString("a"))
	if tp.TupleLen() != 2 || tp.TupleAt(1).AsString() != "a" {
		t.Fatal("tuple accessors failed")
	}
	if len(tp.TupleElems()) != 2 {
		t.Fatal("TupleElems length")
	}
	rel := NewRelation([][]Value{{NewInt(1)}, {NewInt(2)}})
	if rel.NumRows() != 2 || len(rel.Rows()) != 2 {
		t.Fatal("relation accessors failed")
	}
	var zero Value
	if !zero.IsNull() || zero.Kind() != Null {
		t.Fatal("zero value should be Null")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	v := NewString("x")
	mustPanic("AsBool", func() { v.AsBool() })
	mustPanic("AsInt", func() { v.AsInt() })
	mustPanic("AsFloat", func() { v.AsFloat() })
	mustPanic("AsString", func() { NewInt(1).AsString() })
	mustPanic("TupleLen", func() { v.TupleLen() })
	mustPanic("TupleAt", func() { v.TupleAt(0) })
	mustPanic("TupleElems", func() { v.TupleElems() })
	mustPanic("Rows", func() { v.Rows() })
	mustPanic("NumRows", func() { v.NumRows() })
}

func TestEqualNumericCrossKind(t *testing.T) {
	if !NewInt(2).Equal(NewFloat(2)) {
		t.Fatal("Int 2 should equal Float 2")
	}
	if NewInt(2).Equal(NewFloat(2.5)) {
		t.Fatal("Int 2 should not equal Float 2.5")
	}
	if NewInt(1).Equal(NewString("1")) {
		t.Fatal("Int should not equal String")
	}
}

func TestEqualComposite(t *testing.T) {
	a := NewTuple(NewInt(1), NewString("x"))
	b := NewTuple(NewFloat(1), NewString("x"))
	if !a.Equal(b) {
		t.Fatal("tuples with numerically equal elements should be equal")
	}
	if a.Equal(NewTuple(NewInt(1))) {
		t.Fatal("tuples of different arity should differ")
	}
	r1 := NewRelation([][]Value{{NewInt(1)}, {NewInt(2)}})
	r2 := NewRelation([][]Value{{NewInt(2)}, {NewInt(1)}})
	if !r1.Equal(r2) {
		t.Fatal("relations should compare as sets")
	}
	r3 := NewRelation([][]Value{{NewInt(1)}})
	if r1.Equal(r3) {
		t.Fatal("relations of different cardinality should differ")
	}
	if !(Value{}).Equal(Value{}) {
		t.Fatal("null equals null")
	}
}

// TestIdentical: identity is kind and bits, where Equal is the logic's =.
func TestIdentical(t *testing.T) {
	nan := NewFloat(math.NaN())
	r1 := NewRelation([][]Value{{NewInt(1)}, {NewInt(2)}})
	r2 := NewRelation([][]Value{{NewInt(2)}, {NewInt(1)}})
	for _, c := range []struct {
		a, b Value
		want bool
	}{
		{nan, nan, true},
		{nan, NewFloat(-math.NaN()), true},
		{NewTuple(nan, NewString("x")), NewTuple(nan, NewString("x")), true},
		{NewFloat(math.Inf(1)), NewFloat(math.Inf(1)), true},
		{r1, r2, true},
		{Value{}, Value{}, true},
		{NewBool(true), NewBool(true), true},
		{NewInt(2), NewFloat(2), false},
		{NewFloat(0), NewFloat(math.Copysign(0, -1)), false},
		{NewTuple(NewInt(1)), NewTuple(NewFloat(1)), false},
		{NewString("a"), NewString("b"), false},
		{nan, NewFloat(1), false},
		{Value{}, NewBool(false), false},
	} {
		if got := c.a.Identical(c.b); got != c.want {
			t.Errorf("%s Identical %s = %t, want %t", c.a, c.b, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	type tc struct {
		a, b Value
		want int
	}
	cases := []tc{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewFloat(2.5), NewInt(2), 1},
		{NewString("a"), NewString("b"), -1},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
		{NewBool(true), NewBool(false), 1},
		{NewTuple(NewInt(1), NewInt(2)), NewTuple(NewInt(1), NewInt(3)), -1},
		{NewTuple(NewInt(1)), NewTuple(NewInt(1), NewInt(0)), -1},
		{Value{}, Value{}, 0},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.b)
		if err != nil {
			t.Fatalf("Compare(%v,%v): %v", c.a, c.b, err)
		}
		if (got < 0) != (c.want < 0) || (got > 0) != (c.want > 0) {
			t.Errorf("Compare(%v,%v) = %d, want sign of %d", c.a, c.b, got, c.want)
		}
	}
	if _, err := NewString("a").Compare(NewInt(1)); err == nil {
		t.Fatal("cross-kind ordering should error")
	}
	if _, err := NewRelation(nil).Compare(NewRelation(nil)); err == nil {
		t.Fatal("relation ordering should error")
	}
}

func TestKeyDistinguishesValues(t *testing.T) {
	vals := []Value{
		Value{}, NewBool(true), NewBool(false), NewInt(1), NewInt(2),
		NewFloat(1.5), NewString("a"), NewString("b"), NewString(""),
		NewTuple(NewInt(1)), NewTuple(NewInt(1), NewInt(2)),
		NewRelation([][]Value{{NewInt(1)}}),
		NewRelation([][]Value{{NewInt(1)}, {NewInt(2)}}),
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := v.Key()
		if prev, ok := seen[k]; ok {
			t.Errorf("key collision between %v and %v", prev, v)
		}
		seen[k] = v
	}
	// Equal values share a key.
	if NewInt(2).Key() != NewFloat(2).Key() {
		t.Error("Int 2 and Float 2 should share a key (they are Equal)")
	}
	r1 := NewRelation([][]Value{{NewInt(1)}, {NewInt(2)}})
	r2 := NewRelation([][]Value{{NewInt(2)}, {NewInt(1)}})
	if r1.Key() != r2.Key() {
		t.Error("set-equal relations should share a key")
	}
}

// TestKeyEmbeddingSafety checks that string lengths in keys prevent
// ambiguity: ("ab","c") must differ from ("a","bc").
func TestKeyEmbeddingSafety(t *testing.T) {
	a := NewTuple(NewString("ab"), NewString("c"))
	b := NewTuple(NewString("a"), NewString("bc"))
	if a.Key() == b.Key() {
		t.Fatal("key ambiguity between shifted strings")
	}
}

func TestString(t *testing.T) {
	cases := map[string]Value{
		"null":   {},
		"true":   NewBool(true),
		"-3":     NewInt(-3),
		"2.5":    NewFloat(2.5),
		`"hi"`:   NewString("hi"),
		"(1, 2)": NewTuple(NewInt(1), NewInt(2)),
		"{(1)}":  NewRelation([][]Value{{NewInt(1)}}),
		"{}":     NewRelation(nil),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestArithInt(t *testing.T) {
	type tc struct {
		op   ArithOp
		a, b int64
		want int64
	}
	cases := []tc{
		{Add, 2, 3, 5}, {Sub, 2, 3, -1}, {Mul, 4, 3, 12},
		{Div, 7, 2, 3}, {Mod, 7, 2, 1},
	}
	for _, c := range cases {
		got := Arith(c.op, NewInt(c.a), NewInt(c.b))
		if got.Kind() != Int || got.AsInt() != c.want {
			t.Errorf("%d %s %d = %v, want %d", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestArithFloatPromotion(t *testing.T) {
	if got := Arith(Add, NewInt(1), NewFloat(0.5)); got.Kind() != Float || got.AsFloat() != 1.5 {
		t.Fatalf("1 + 0.5 = %v, want 1.5 float", got)
	}
	if got := Arith(Mod, NewFloat(7.5), NewFloat(2)); got.AsFloat() != 1.5 {
		t.Fatalf("7.5 mod 2 = %v, want 1.5", got)
	}
	if got := Arith(Div, NewFloat(7), NewFloat(2)); got.AsFloat() != 3.5 {
		t.Fatalf("7.0 / 2.0 = %v, want 3.5", got)
	}
}

// TestArithErrors pins the undefined arithmetic: a Null or non-numeric
// operand and a zero divisor give Null, never an error.
func TestArithErrors(t *testing.T) {
	for _, c := range []struct {
		op   ArithOp
		a, b Value
	}{
		{Add, NewString("x"), NewInt(1)},
		{Mul, NewInt(1), True},
		{Sub, Value{}, NewInt(1)},
		{Add, NewFloat(1), Value{}},
		{Div, NewInt(1), NewInt(0)},
		{Mod, NewInt(1), NewInt(0)},
		{Div, NewFloat(1), NewFloat(0)},
		{Mod, NewFloat(1), NewFloat(math.Copysign(0, -1))},
		{Div, NewInt(1), NewFloat(0)},
		{ArithOp(9), NewInt(1), NewInt(1)},
	} {
		if got := Arith(c.op, c.a, c.b); !got.IsNull() {
			t.Errorf("%v %s %v = %v, want null", c.a, c.op, c.b, got)
		}
	}
}

func TestCmpOps(t *testing.T) {
	one, two, null := NewInt(1), NewInt(2), Value{}
	type tc struct {
		op   CmpOp
		a, b Value
		want bool
	}
	cases := []tc{
		{EQ, one, one, true}, {EQ, one, two, false},
		{NE, one, two, true}, {NE, one, one, false},
		{LT, one, two, true}, {LT, two, one, false},
		{LE, one, one, true}, {LE, two, one, false},
		{GT, two, one, true}, {GT, one, two, false},
		{GE, one, one, true}, {GE, one, two, false},
		{EQ, NewString("a"), NewString("a"), true},
		{NE, NewString("a"), NewInt(1), true},
		// Undefined: an ordering across kinds, and any side Null, is false
		// under the operator and under its negation.
		{LT, NewString("a"), one, false}, {GE, NewString("a"), one, false},
		{GT, True, one, false}, {LE, True, one, false},
		{EQ, null, null, false}, {NE, null, null, false},
		{EQ, one, null, false}, {NE, null, one, false},
		{LT, null, one, false}, {GE, null, one, false},
	}
	for _, c := range cases {
		if got := Cmp(c.op, c.a, c.b); got != c.want {
			t.Errorf("Cmp(%s,%v,%v) = %t, want %t", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestCmpOpNegateFlip(t *testing.T) {
	ops := []CmpOp{EQ, NE, LT, LE, GT, GE}
	for _, op := range ops {
		if op.Negate().Negate() != op {
			t.Errorf("%s: Negate is not an involution", op)
		}
		if op.Flip().Flip() != op {
			t.Errorf("%s: Flip is not an involution", op)
		}
	}
	// Semantic checks against random integer pairs.
	f := func(a, b int16) bool {
		va, vb := NewInt(int64(a)), NewInt(int64(b))
		for _, op := range ops {
			r1 := Cmp(op, va, vb)
			if r1 == Cmp(op.Negate(), va, vb) {
				return false
			}
			if r1 != Cmp(op.Flip(), vb, va) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpStrings(t *testing.T) {
	if Add.String() != "+" || Sub.String() != "-" || Mul.String() != "*" ||
		Div.String() != "/" || Mod.String() != "mod" || ArithOp(9).String() != "?" {
		t.Error("arith op strings wrong")
	}
	if EQ.String() != "=" || NE.String() != "!=" || LT.String() != "<" ||
		LE.String() != "<=" || GT.String() != ">" || GE.String() != ">=" || CmpOp(9).String() != "?" {
		t.Error("cmp op strings wrong")
	}
}

// Property: Key agrees with Equal on randomly generated scalar values.
func TestKeyEqualAgreement(t *testing.T) {
	gen := func(i int64, f float64, s string, pick uint8) Value {
		switch pick % 4 {
		case 0:
			return NewInt(i % 16)
		case 1:
			return NewFloat(float64(int(f*4) % 4))
		case 2:
			return NewString(s)
		default:
			return NewBool(i%2 == 0)
		}
	}
	prop := func(i1 int64, f1 float64, s1 string, p1 uint8, i2 int64, f2 float64, s2 string, p2 uint8) bool {
		a := gen(i1, f1, s1, p1)
		b := gen(i2, f2, s2, p2)
		return a.Equal(b) == (a.Key() == b.Key())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestValueSize pins the layout: a Value is copied into every database
// node, binding and encode, so a sixth word costs everywhere at once.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 40 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want <= 40", n)
	}
}

// TestNumericExact: integers compare as integers and against floats
// without rounding, and Key agrees with Equal on every pair — around 2^53,
// where float64 stops telling neighbours apart, at the ends of int64 and at
// the non-finite floats.
func TestNumericExact(t *testing.T) {
	const p53 = int64(1) << 53
	inf, nan := math.Inf(1), math.NaN()
	// Strictly ascending; NaN, which orders equal to everything, is apart.
	asc := [][]Value{
		{NewFloat(-inf)},
		{NewFloat(-math.MaxFloat64)},
		{NewFloat(-(1 << 63) * 2)},
		{NewInt(math.MinInt64), NewFloat(-(1 << 63))},
		{NewInt(math.MinInt64 + 1)},
		{NewInt(-p53 - 1)},
		{NewInt(-p53), NewFloat(-float64(p53))},
		{NewInt(-1), NewFloat(-1)},
		{NewFloat(-0.5)},
		{NewInt(0), NewFloat(0)},
		{NewFloat(0.5)},
		{NewInt(1), NewFloat(1)},
		{NewInt(p53 - 1), NewFloat(float64(p53 - 1))},
		{NewInt(p53), NewFloat(float64(p53))},
		{NewInt(p53 + 1)},
		{NewInt(p53 + 2), NewFloat(float64(p53 + 2))},
		{NewInt(math.MaxInt64 - 1)},
		{NewInt(math.MaxInt64)},
		{NewFloat(1 << 63)},
		{NewFloat(math.MaxFloat64)},
		{NewFloat(inf)},
	}
	for i, ci := range asc {
		for j, cj := range asc {
			for _, a := range ci {
				for _, b := range cj {
					c, err := a.Compare(b)
					if err != nil {
						t.Fatalf("Compare(%s, %s): %v", a, b, err)
					}
					want := 0
					if i < j {
						want = -1
					} else if i > j {
						want = 1
					}
					if c != want {
						t.Errorf("Compare(%s %s, %s %s) = %d, want %d", a.Kind(), a, b.Kind(), b, c, want)
					}
					if a.Equal(b) != (want == 0) {
						t.Errorf("Equal(%s %s, %s %s) = %t", a.Kind(), a, b.Kind(), b, a.Equal(b))
					}
					if (a.Key() == b.Key()) != (want == 0) {
						t.Errorf("Key(%s %s) = %q, Key(%s %s) = %q", a.Kind(), a, a.Key(), b.Kind(), b, b.Key())
					}
				}
			}
		}
		for _, a := range ci {
			if a.Equal(NewFloat(nan)) || NewFloat(nan).Equal(a) {
				t.Errorf("%s equals NaN", a)
			}
		}
	}
	if NewFloat(nan).Equal(NewFloat(nan)) {
		t.Error("NaN equals itself")
	}
	// Keys float64 represents exactly keep their historic bytes.
	for v, want := range map[Value]string{
		NewInt(7): "f7;", NewFloat(7): "f7;", NewFloat(2.5): "f2.5;",
		NewInt(p53): "f9.007199254740992e+15;", NewInt(p53 + 1): "i9007199254740993;",
		NewFloat(inf): "f+Inf;", NewFloat(nan): "fNaN;", NewFloat(1 << 63): "f9.223372036854776e+18;",
	} {
		if got := v.Key(); got != want {
			t.Errorf("Key(%s %s) = %q, want %q", v.Kind(), v, got, want)
		}
	}
	// The nanosecond-clock case: a bound 100 ns away is a different instant.
	ns := int64(1_760_000_000_123_456_789)
	if !Cmp(LT, NewInt(ns), NewInt(ns+100)) {
		t.Errorf("Cmp(LT, %d, %d) = false", ns, ns+100)
	}
	if Cmp(GE, NewInt(ns), NewInt(ns+13-10)) {
		t.Errorf("Cmp(GE, %d, %d) = true", ns, ns+3)
	}
}
