package ptl

import (
	"math/rand"
	"strings"
	"testing"

	"ptlactive/internal/value"
)

func parse(t *testing.T, src string) Formula {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return f
}

func TestParseAtoms(t *testing.T) {
	f := parse(t, `item("a") > 3`)
	cmp, ok := f.(*Cmp)
	if !ok || cmp.Op != value.GT {
		t.Fatalf("got %T %v", f, f)
	}
	call, ok := cmp.L.(*Call)
	if !ok || call.Fn != "item" || len(call.Args) != 1 {
		t.Fatalf("lhs = %v", cmp.L)
	}
	if c, ok := call.Args[0].(*Const); !ok || c.V.AsString() != "a" {
		t.Fatalf("arg = %v", call.Args[0])
	}
	if c, ok := cmp.R.(*Const); !ok || c.V.AsInt() != 3 {
		t.Fatalf("rhs = %v", cmp.R)
	}
}

func TestParsePrecedence(t *testing.T) {
	// and binds tighter than or; since is lowest.
	f := parse(t, `true or false and false since true`)
	s, ok := f.(*Since)
	if !ok {
		t.Fatalf("top should be since, got %T", f)
	}
	or, ok := s.L.(*Or)
	if !ok {
		t.Fatalf("since lhs should be or, got %T", s.L)
	}
	if _, ok := or.R.(*And); !ok {
		t.Fatalf("or rhs should be and, got %T", or.R)
	}
}

func TestParseSinceLeftAssoc(t *testing.T) {
	f := parse(t, `true since false since true`)
	top, ok := f.(*Since)
	if !ok {
		t.Fatal("top not since")
	}
	if _, ok := top.L.(*Since); !ok {
		t.Fatal("since should be left associative")
	}
}

func TestParseTemporalOperators(t *testing.T) {
	cases := map[string]func(Formula) bool{
		"previously true":          func(f Formula) bool { p, ok := f.(*Previously); return ok && p.Bound == Unbounded },
		"previously <= 10 true":    func(f Formula) bool { p, ok := f.(*Previously); return ok && p.Bound == 10 },
		"throughout true":          func(f Formula) bool { p, ok := f.(*Throughout); return ok && p.Bound == Unbounded },
		"throughout <= 5 true":     func(f Formula) bool { p, ok := f.(*Throughout); return ok && p.Bound == 5 },
		"lasttime true":            func(f Formula) bool { _, ok := f.(*Lasttime); return ok },
		"true since <= 7 false":    func(f Formula) bool { s, ok := f.(*Since); return ok && s.Bound == 7 },
		"not true":                 func(f Formula) bool { _, ok := f.(*Not); return ok },
		"previously lasttime true": func(f Formula) bool { p, ok := f.(*Previously); return ok && isLasttime(p.F) },
	}
	for src, check := range cases {
		if !check(parse(t, src)) {
			t.Errorf("%q parsed wrong: %v", src, parse(t, src))
		}
	}
}

func isLasttime(f Formula) bool { _, ok := f.(*Lasttime); return ok }

func TestParseAssignment(t *testing.T) {
	f := parse(t, `[x <- price("IBM")] x > 50`)
	a, ok := f.(*Assign)
	if !ok || a.Var != "x" {
		t.Fatalf("got %T", f)
	}
	if _, ok := a.Q.(*Call); !ok {
		t.Fatalf("q = %v", a.Q)
	}
	// Nested assignments.
	f2 := parse(t, `[t <- time] [x <- item("a")] x > t`)
	a2 := f2.(*Assign)
	if _, ok := a2.Body.(*Assign); !ok {
		t.Fatal("nested assignment lost")
	}
}

func TestParseEvents(t *testing.T) {
	f := parse(t, `@update_stocks`)
	e, ok := f.(*EventAtom)
	if !ok || e.Name != "update_stocks" || len(e.Args) != 0 {
		t.Fatalf("got %v", f)
	}
	f = parse(t, `@login(U, 3)`)
	e = f.(*EventAtom)
	if e.Name != "login" || len(e.Args) != 2 {
		t.Fatalf("got %v", f)
	}
	if _, ok := e.Args[0].(*Var); !ok {
		t.Fatal("first arg should be a variable")
	}
}

func TestParseExecuted(t *testing.T) {
	f := parse(t, `executed(r1, X, T)`)
	e, ok := f.(*Executed)
	if !ok || e.Rule != "r1" || len(e.Args) != 1 {
		t.Fatalf("got %#v", f)
	}
	if v, ok := e.TimeArg.(*Var); !ok || v.Name != "T" {
		t.Fatalf("time arg = %v", e.TimeArg)
	}
	// Time-only form.
	f = parse(t, `executed(r2, T)`)
	e = f.(*Executed)
	if len(e.Args) != 0 || e.TimeArg.(*Var).Name != "T" {
		t.Fatalf("got %#v", e)
	}
	if _, err := Parse(`executed(r1)`); err == nil {
		t.Error("executed without time arg should fail")
	}
}

func TestParseMembership(t *testing.T) {
	f := parse(t, `S in overpriced()`)
	m, ok := f.(*Member)
	if !ok || len(m.Elems) != 1 {
		t.Fatalf("got %v", f)
	}
	f = parse(t, `(A, B) in pairs()`)
	m = f.(*Member)
	if len(m.Elems) != 2 {
		t.Fatalf("tuple membership got %v", f)
	}
	if _, ok := m.Rel.(*Call); !ok {
		t.Fatal("rel should be a call")
	}
}

func TestParseAggregates(t *testing.T) {
	f := parse(t, `sum(price("IBM"); time = 540; @update_stocks) > 70`)
	cmp := f.(*Cmp)
	a, ok := cmp.L.(*Agg)
	if !ok || a.Fn != AggSum || a.Window != Unbounded || a.Start == nil {
		t.Fatalf("got %#v", cmp.L)
	}
	f = parse(t, `avg(price("IBM"); window 60; @update_stocks) > 70`)
	a = f.(*Cmp).L.(*Agg)
	if a.Fn != AggAvg || a.Window != 60 || a.Start != nil {
		t.Fatalf("windowed agg = %#v", a)
	}
	// Aggregate name used as a plain query call still parses.
	f2, err := Parse(`sum(1, 2) > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f2.(*Cmp).L.(*Call); !ok {
		t.Fatal("sum(1,2) should parse as a call")
	}
	// Nested aggregate in the sampling formula.
	f3 := parse(t, `sum(item("a"); time = 0; count(item("b"); time = 0; true) > 2) = 5`)
	a3 := f3.(*Cmp).L.(*Agg)
	if _, ok := a3.Sample.(*Cmp); !ok {
		t.Fatalf("nested agg sample = %v", a3.Sample)
	}
}

func TestParseArithmetic(t *testing.T) {
	f := parse(t, `1 + 2 * 3 - 4 = time mod 7`)
	cmp := f.(*Cmp)
	// 1 + (2*3) - 4: top is Sub.
	sub, ok := cmp.L.(*Arith)
	if !ok || sub.Op != value.Sub {
		t.Fatalf("lhs = %v", cmp.L)
	}
	add := sub.L.(*Arith)
	if add.Op != value.Add {
		t.Fatal("add missing")
	}
	if add.R.(*Arith).Op != value.Mul {
		t.Fatal("mul should bind tighter")
	}
	if cmp.R.(*Arith).Op != value.Mod {
		t.Fatal("mod missing")
	}
	// Unary minus folds into literals.
	f2 := parse(t, `-3 < x`)
	if c, ok := f2.(*Cmp).L.(*Const); !ok || c.V.AsInt() != -3 {
		t.Fatalf("got %v", f2)
	}
	f3 := parse(t, `-time < 0`)
	if _, ok := f3.(*Cmp).L.(*Neg); !ok {
		t.Fatalf("got %v", f3)
	}
	// Parenthesized terms.
	f4 := parse(t, `(1 + 2) * 3 = 9`)
	if f4.(*Cmp).L.(*Arith).Op != value.Mul {
		t.Fatal("parens lost")
	}
}

func TestParseStringsAndFloats(t *testing.T) {
	f := parse(t, `name() = "a\"b\\c\n\t"`)
	c := f.(*Cmp).R.(*Const)
	if c.V.AsString() != "a\"b\\c\n\t" {
		t.Fatalf("escapes wrong: %q", c.V.AsString())
	}
	f2 := parse(t, `x = 2.5`)
	if f2.(*Cmp).R.(*Const).V.AsFloat() != 2.5 {
		t.Fatal("float literal")
	}
	f3 := parse(t, `x = 1e3`)
	if f3.(*Cmp).R.(*Const).V.AsFloat() != 1000 {
		t.Fatal("exponent literal")
	}
}

func TestParseComments(t *testing.T) {
	f := parse(t, "true # trailing comment\nand false")
	if _, ok := f.(*And); !ok {
		t.Fatalf("got %T", f)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "and", "true and", "(true", "true)",
		"[x <- ] true", "[since <- time] true", "@since", "x >",
		"x = \"unterminated", "x ! y", "previously <= -1 true",
		"x = 1 extra", "() in r", "sum(x; true) = 1",
		"x = 3..5", "@e(1,) = 2",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestRoundTrip: Parse(f.String()) is structurally equal to f (DESIGN.md
// §5). The WAL and snapshots store a rule as its printed condition, so
// recovery depends on this.
func TestRoundTrip(t *testing.T) {
	// Hand-picked formulas covering every construct.
	srcs := []string{
		`[t <- time] [x <- price("IBM")] previously (price("IBM") <= 0.5 * x and time >= t - 10)`,
		`(not @logout(U)) since (@login(U) and item("A") > 0)`,
		`avg(price("IBM"); window 60; @update_stocks) > 70 since time = 540`,
		`sum(price("IBM"); time = 540; time mod 60 = 0) / sum(1; time = 540; time mod 60 = 0) > 70`,
		`executed(r1, X, T) and time = T + 10`,
		`throughout <= 5 (item("a") >= 0)`,
		`lasttime lasttime @e0`,
		`(A, B) in pairs() or A in singles()`,
		`true since <= 60 (@a and @b and @c)`,
		// The shapes the crash-recovery tests register.
		"true",
		"@ev0",
		"@pay3(x) and x > 4",
		`item("a") > 10`,
		`item("a") > 10 since @ev1`,
		`lasttime @ev2`,
		`previously <= 5 @ev0`,
		`throughout <= 3 item("b") < 20`,
		`not (item("a") > 50)`,
		`@pay1(x) and (x >= 2 or lasttime @ev0)`,
		`(@ev0 or @ev1) since (item("a") = 0)`,
		`[x <- item("a")] x*2 + 1 > -3`,
		`avg(item("a"); window 60; @ev0) > 5`,
		`sum(item("a"); @start; @ev0) > 5`,
		`count(item("a"); window 10; @ev0) >= 2`,
		`executed(r1, x, t) and t > 3`,
		`(x) in rel("stocks")`,
		`item("a") = 1.5 or item("s") = "hi"`,
	}
	for _, src := range srcs {
		f := parse(t, src)
		back, err := Parse(f.String())
		if err != nil {
			t.Fatalf("reparse %q printed as %q: %v", src, f.String(), err)
		}
		if !Equal(f, back) {
			t.Errorf("round trip changed %q:\n  first:  %s\n  second: %s", src, f, back)
		}
	}
}

// TestRoundTripRandom runs the round-trip property over generated
// formulas. The generator lives in ptlgen but depends on this package, so
// a tiny local generator is used instead.
func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var gen func(depth int, scope []string) Formula
	var genTerm func(scope []string) Term
	genTerm = func(scope []string) Term {
		switch rng.Intn(5) {
		case 0:
			return CInt(int64(rng.Intn(20) - 10))
		case 1:
			return CStr("s" + string(rune('a'+rng.Intn(3))))
		case 2:
			if len(scope) > 0 {
				return V(scope[rng.Intn(len(scope))])
			}
			return Time()
		case 3:
			return &Arith{Op: value.ArithOp(rng.Intn(5)), L: genTerm(scope), R: genTerm(scope)}
		default:
			return Q("item", CStr("a"))
		}
	}
	gen = func(depth int, scope []string) Formula {
		if depth <= 0 {
			switch rng.Intn(4) {
			case 0:
				return TTrue
			case 1:
				return Ev("e1", CInt(int64(rng.Intn(3))))
			default:
				return Compare(value.CmpOp(rng.Intn(6)), genTerm(scope), genTerm(scope))
			}
		}
		switch rng.Intn(8) {
		case 0:
			return &Not{F: gen(depth-1, scope)}
		case 1:
			return &And{L: gen(depth-1, scope), R: gen(depth-1, scope)}
		case 2:
			return &Or{L: gen(depth-1, scope), R: gen(depth-1, scope)}
		case 3:
			return &Since{L: gen(depth-1, scope), R: gen(depth-1, scope), Bound: int64(rng.Intn(5)) - 1}
		case 4:
			return &Previously{F: gen(depth-1, scope), Bound: int64(rng.Intn(5)) - 1}
		case 5:
			return &Throughout{F: gen(depth-1, scope), Bound: int64(rng.Intn(5)) - 1}
		case 6:
			return &Lasttime{F: gen(depth-1, scope)}
		default:
			name := "v" + string(rune('a'+rng.Intn(3)))
			return Let(name, Q("item", CStr("b")), gen(depth-1, append(scope, name)))
		}
	}
	for i := 0; i < 300; i++ {
		f := gen(1+rng.Intn(4), nil)
		back, err := Parse(f.String())
		if err != nil {
			t.Fatalf("iter %d: reparse of %q: %v", i, f.String(), err)
		}
		if !Equal(f, back) {
			t.Fatalf("iter %d: round trip changed\n  first:  %s\n  second: %s", i, f, back)
		}
	}
}

func TestEqualDistinguishes(t *testing.T) {
	pairs := [][2]string{
		{"true", "false"},
		{"x = 1", "x = 2"},
		{"x = 1", "x != 1"},
		{"@a", "@b"},
		{"@a(1)", "@a(2)"},
		{"previously true", "previously <= 3 true"},
		{"true since true", "true since <= 1 true"},
		{"[x <- time] x = 1", "[y <- time] y = 1"},
		{"executed(r1, T)", "executed(r2, T)"},
		{"A in r()", "(A, B) in r()"},
		{"lasttime true", "previously true"},
		{`sum(1; true; true) = 0`, `count(1; true; true) = 0`},
	}
	for _, p := range pairs {
		a, b := parse(t, p[0]), parse(t, p[1])
		if Equal(a, b) {
			t.Errorf("Equal(%q, %q) should be false", p[0], p[1])
		}
	}
}

func TestEventNamesAndHasTemporal(t *testing.T) {
	f := parse(t, `@b or (@a since sum(1; @c; @d) > 0)`)
	got := EventNames(f)
	want := []string{"a", "b", "c", "d"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("EventNames = %v, want %v", got, want)
	}
	if !HasTemporal(f) {
		t.Error("since formula should be temporal")
	}
	if HasTemporal(parse(t, `@a and item("x") > 0`)) {
		t.Error("plain atom formula should not be temporal")
	}
	if !HasTemporal(parse(t, `executed(r1, T)`)) {
		t.Error("executed needs history; it should count as temporal")
	}
	if !HasTemporal(parse(t, `sum(1; true; true) > 0`)) {
		t.Error("aggregate formula should be temporal")
	}
}
