package ptl

import (
	"strings"
	"testing"

	"ptlactive/internal/history"
	"ptlactive/internal/query"
	"ptlactive/internal/value"
)

func testRegistry(t *testing.T) *query.Registry {
	t.Helper()
	reg := query.NewRegistry()
	err := reg.Register("price", 1, func(st history.SystemState, args []value.Value) (value.Value, error) {
		return value.NewFloat(1), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = reg.Register("overpriced", 0, func(st history.SystemState, args []value.Value) (value.Value, error) {
		return value.NewRelation(nil), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestCheckAccepts(t *testing.T) {
	reg := testRegistry(t)
	good := []string{
		`[t <- time] [x <- price("IBM")] previously (price("IBM") <= 0.5 * x and time >= t - 10)`,
		`(not @logout(U)) since (@login(U) and item("A") > 0)`,
		`avg(price("IBM"); window 60; @update_stocks) > 70`,
		`sum(price("IBM"); time = 540; time mod 60 = 0) > 70`,
		`executed(r1, X, T) and time = T + 10`,
		`X = 5 and previously @e(X)`,
		`[r <- overpriced()] previously (S in r)`,
		`S in overpriced()`,
	}
	for _, src := range good {
		f := parse(t, src)
		info, err := Check(f, reg)
		if err != nil {
			t.Errorf("Check(%q) failed: %v", src, err)
			continue
		}
		if info.Normalized == nil {
			t.Errorf("Check(%q): nil normalized", src)
		}
	}
}

func TestCheckRejects(t *testing.T) {
	reg := testRegistry(t)
	bad := map[string]string{
		`nosuch() > 0`:                            "unknown query",
		`price() > 0`:                             "expects 1 arguments",
		`price(X) > 0`:                            "mentions variables",
		`X > 0`:                                   "no binding position",
		`X > 0 and previously @e(Y)`:              "no binding position", // X unbound
		`sum(price(X); true; true) > 0`:           "free variables",
		`avg(item("a"); true; @e(Z)) > 0`:         "free variables",
		`@e(item("a") + X)`:                       "must be a variable or a ground term",
		`executed(r1, X + 1, T)`:                  "must be a variable or a ground term",
		`(X + 1) in overpriced()`:                 "must be a variable or a ground term",
		`sum(sum(1; true; true); true; true) = 0`: "nests an aggregate",
	}
	for src, wantSub := range bad {
		f := parse(t, src)
		_, err := Check(f, reg)
		if err == nil {
			t.Errorf("Check(%q) should fail", src)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("Check(%q) error %q does not mention %q", src, err, wantSub)
		}
	}
}

func TestCheckInfoFields(t *testing.T) {
	reg := testRegistry(t)
	f := parse(t, `[t <- time] ((@b(U) since @a) and time <= t)`)
	info, err := Check(f, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Free) != 1 || info.Free[0] != "U" {
		t.Errorf("Free = %v", info.Free)
	}
	if len(info.Events) != 2 || info.Events[0] != "a" || info.Events[1] != "b" {
		t.Errorf("Events = %v", info.Events)
	}
	if !info.TimeVars["t"] {
		t.Errorf("TimeVars = %v", info.TimeVars)
	}
	if !info.Temporal {
		t.Error("Temporal should be true")
	}
}

func TestCheckTimeVarsIncludeDesugared(t *testing.T) {
	reg := testRegistry(t)
	f := parse(t, `previously <= 10 @a`)
	info, err := Check(f, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.TimeVars) != 1 {
		t.Errorf("desugared bound should introduce one time var, got %v", info.TimeVars)
	}
}

func TestDecomposable(t *testing.T) {
	cases := map[string]bool{
		// No variables crossing temporal operators: decomposable.
		`previously (item("a") > 3)`:          true,
		`@a since @b`:                         true,
		`[x <- item("a")] x > 3`:              true, // assignment with no temporal beneath
		`previously ([x <- item("a")] x > 3)`: true,
		// The IBM formula: x and t cross previously.
		`[t <- time] [x <- price("IBM")] previously (price("IBM") <= 0.5 * x and time >= t - 10)`: false,
		// Free variables force symbolic state.
		`previously @e(X)`: false,
	}
	for src, want := range cases {
		f := parse(t, src)
		if got := Decomposable(f); got != want {
			t.Errorf("Decomposable(%q) = %t, want %t", src, got, want)
		}
	}
}

func TestFastShape(t *testing.T) {
	cases := []struct {
		src, class string
		ok         bool
	}{
		{`previously (item("a") > 3)`, "", true},
		// Bounded operators and captured values on metric registers, and
		// aggregates over formulas of this class.
		{`[t <- time] previously (time >= t - 10)`, "", true},
		{`previously <= 5 (item("a") > 3) and throughout <= 2 @e`, "", true},
		{`[t <- time] [x <- item("a")] previously (item("a") <= 0.5 * x and time >= t - 10)`, "", true},
		{`[x <- item("a")] (@e since (2 * x > item("a")))`, "", true},
		{`sum(item("a"); @s; @w) > 3`, "", true},
		{`count(item("a"); window 4; lasttime @w) > 1 and previously @s`, "", true},
		{`@e(U) and [t <- time] previously (time >= t - 3)`, "", true},
		// What stays general: an equality, two separable atoms, a time
		// variable in an ordering atom other than the bound, two operators
		// crossed, a constant of another kind, a metric atom beside a
		// class parameter or an aggregate.
		{`[x <- item("a")] previously (item("a") = x)`, "", false},
		{`[x <- item("a")] previously (item("a") < x and item("b") > x)`, "", false},
		{`[t <- time] previously (item("a") > t - 3)`, "", false},
		{`[t <- time] previously (time >= t - 2.5)`, "", false},
		{`[t <- time] previously (time = t - 2)`, "", false},
		{`[t <- time] previously lasttime (time >= t - 3)`, "", false},
		{`[x <- item("a")] previously (item("b") < x + "s")`, "", false},
		{`(not @logout(U)) since (@login(U) and [t <- time] previously (time >= t - 3))`, "", false},
		{`previously <= 3 @login(U)`, "", false},
		{`sum(item("a"); window 4; @w) > 1 and previously <= 3 @s`, "", false},
		{`sum(item("a"); window 4; previously <= 3 @w) > 1`, "", false},
		{`[x <- item("a")] previously (sum(item("b"); window 3; @e) < x)`, "", false},
		// An and or an or between an assignment and a read of its variable
		// — a frontier or any atom — in a condition with a metric register
		// or an aggregate: the general evaluator may fold the read away
		// unread, but an undefined read is false, never an error, so the
		// fast path agrees with it.
		{`[x <- item("a")] (previously (item("b") < x) or @e)`, "", true},
		{`[x <- item("a")] (@e and previously (item("b") < x))`, "", true},
		{`[x <- item("a")] not (previously (item("b") < x) and @e)`, "", true},
		{`[x <- item("a")] (item("b") > x or previously <= 3 @e)`, "", true},
		{`[x <- item("a")] (item("b") > x or sum(item("a"); window 3; @e) > 1)`, "", true},
		{`[t <- time] (@e or previously (item("a") > 3 and time >= t - 5))`, "", true},
		{`@e or [x <- item("a")] not previously (item("b") < x)`, "", true},
		{`[x <- item("a")] (item("b") > x or lasttime @e)`, "", true},
		// Parameters off temporal operators may appear anywhere.
		{`@tick(A, B) and A >= -1 and lasttime @go`, "", true},
		{`executed(r1, X, T) and time = T + 10`, "", true},
		{`X in item("rel") and previously @w`, "", true},
		{`[r <- item("rel")] X in r`, "", false},
		// One parameter across temporal operators, in = and ≠ only.
		{`((not @logout(U)) since (@login(U) and item("a") > 90)) and U > 2`, "U", true},
		{`lasttime (U = 2 or 3 != U) and @e(U)`, "U", true},
		{`previously (@e(U) and U > 1)`, "U", false},
		{`previously @e(U, V)`, "U", false},
		{`previously executed(r1, U, 3)`, "U", false},
		// Every parameter needs an atom that offers its values.
		{`@e1(U) or @e2(U, 1)`, "", true},
		{`lasttime @e(U) and item("a") > 1`, "U", true},
		{`@e1(U) or item("a") > 3`, "", false},
		{`@e1(U) or lasttime (5 != U or 3 != U)`, "U", false},
		{`not @e1(U)`, "", false},
		{`@e1(U) and U != 3 and lasttime (not @e1(V))`, "V", false},
	}
	for _, c := range cases {
		f := parse(t, c.src)
		class, _, ok := FastShape(Desugar(RenameApart(f)), FreeVars(f))
		if ok != c.ok || ok && class != c.class {
			t.Errorf("FastShape(%q) = %q, %t, want %q, %t", c.src, class, ok, c.class, c.ok)
		}
	}
}

func TestRenameApart(t *testing.T) {
	// Same variable assigned twice: the inner one must be renamed.
	f := parse(t, `[x <- item("a")] (x > 0 and [x <- item("b")] x < 5)`)
	r := RenameApart(f)
	outer := r.(*Assign)
	inner := outer.Body.(*And).R.(*Assign)
	if outer.Var == inner.Var {
		t.Fatalf("rename failed: both assignments bind %q", outer.Var)
	}
	// The inner body must reference the renamed variable.
	cmp := inner.Body.(*Cmp)
	if cmp.L.(*Var).Name != inner.Var {
		t.Errorf("inner occurrence not renamed: %s", r)
	}
	// The outer occurrence must be untouched.
	ocmp := outer.Body.(*And).L.(*Cmp)
	if ocmp.L.(*Var).Name != outer.Var {
		t.Errorf("outer occurrence damaged: %s", r)
	}
	// Free variables must never be renamed.
	f2 := parse(t, `@e(X) and [x <- time] x > 0 and [x <- time] x > 1`)
	r2 := RenameApart(f2)
	free := FreeVars(r2)
	if len(free) != 1 || free[0] != "X" {
		t.Errorf("free vars after rename = %v", free)
	}
}

func TestFreeAndBoundVars(t *testing.T) {
	f := parse(t, `[t <- time] (@e(X) and previously @g(Y) and t > 0)`)
	free := FreeVars(f)
	if len(free) != 2 || free[0] != "X" || free[1] != "Y" {
		t.Errorf("FreeVars = %v", free)
	}
	bound := BoundVars(f)
	if len(bound) != 1 || bound[0] != "t" {
		t.Errorf("BoundVars = %v", bound)
	}
	// Shadowing: the outer X is free, the inner bound.
	f2 := parse(t, `@e(X) and [X <- time] X > 0`)
	if fv := FreeVars(f2); len(fv) != 1 || fv[0] != "X" {
		t.Errorf("shadowed FreeVars = %v", fv)
	}
	// Variables in aggregate formulas count.
	f3 := parse(t, `sum(1; @a(Z); true) > 0`)
	if fv := FreeVars(f3); len(fv) != 1 || fv[0] != "Z" {
		t.Errorf("aggregate FreeVars = %v", fv)
	}
}

func TestSubstitute(t *testing.T) {
	f := parse(t, `X > 0 and [X <- time] X < 5 and @e(X, Y)`)
	got := Substitute(f, map[string]Term{"X": CInt(7), "Y": CInt(9)})
	want := parse(t, `7 > 0 and [X <- time] X < 5 and @e(7, 9)`)
	if !Equal(got, want) {
		t.Errorf("Substitute = %s, want %s", got, want)
	}
	// Substitution into assignment queries but not shadowed bodies.
	f2 := parse(t, `[q <- item("a")] (q = X)`)
	got2 := Substitute(f2, map[string]Term{"q": CInt(1), "X": CInt(2)})
	want2 := parse(t, `[q <- item("a")] (q = 2)`)
	if !Equal(got2, want2) {
		t.Errorf("Substitute = %s, want %s", got2, want2)
	}
}

func TestDesugarShapes(t *testing.T) {
	// previously f -> true since f
	d := Desugar(parse(t, `previously @a`))
	s, ok := d.(*Since)
	if !ok || s.Bound != Unbounded {
		t.Fatalf("got %s", d)
	}
	if _, ok := s.L.(*BoolConst); !ok {
		t.Fatalf("since lhs = %v", s.L)
	}
	// throughout f -> not (true since not f)
	d = Desugar(parse(t, `throughout @a`))
	n, ok := d.(*Not)
	if !ok {
		t.Fatalf("got %s", d)
	}
	if _, ok := n.F.(*Since); !ok {
		t.Fatalf("inner = %v", n.F)
	}
	// Bounded forms introduce a time assignment.
	d = Desugar(parse(t, `previously <= 10 @a`))
	a, ok := d.(*Assign)
	if !ok {
		t.Fatalf("got %s", d)
	}
	if call, ok := a.Q.(*Call); !ok || call.Fn != "time" {
		t.Fatalf("assign q = %v", a.Q)
	}
	// The generated variable must not clash with existing ones.
	d2 := Desugar(parse(t, `[$b0 <- time] previously <= 5 ($b0 > 0)`))
	vars := BoundVars(d2)
	if len(vars) != 2 || vars[0] == vars[1] {
		t.Errorf("fresh variable clash: %v in %s", vars, d2)
	}
	// Desugared output contains no derived operators.
	for _, src := range []string{
		`throughout <= 3 (previously @a since <= 5 @b)`,
		`previously previously <= 2 throughout @c`,
	} {
		d := Desugar(parse(t, src))
		Walk(d, func(g Formula) {
			switch g.(type) {
			case *Previously, *Throughout:
				t.Errorf("derived operator survived in %s", d)
			case *Since:
				if g.(*Since).Bound >= 0 {
					t.Errorf("bounded since survived in %s", d)
				}
			}
		})
	}
}

// TestFutureOperatorsSurface: the future operators (Section 11's future
// work) are not part of the language. Their words stay reserved, so the
// parser refuses every condition that writes one, and none may name a
// variable or an event.
func TestFutureOperatorsSurface(t *testing.T) {
	srcs := []string{
		`eventually (price("IBM") > 100)`,
		`always <= 60 (price("IBM") > 0)`,
		`nexttime @tick`,
		`@a until <= 5 @b`,
		`(@a until @b) or eventually @c`,
	}
	for _, kw := range []string{"until", "nexttime", "eventually", "always"} {
		srcs = append(srcs, "@"+kw, "["+kw+" <- time] "+kw+" > 0", kw+" = 1")
	}
	for _, src := range srcs {
		if f, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) = %s, want an error", src, f)
		}
	}
}
