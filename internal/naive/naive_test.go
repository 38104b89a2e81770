package naive

import (
	"math/rand"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/history"
	"ptlactive/internal/ptl"
	"ptlactive/internal/ptlgen"
	"ptlactive/internal/query"
	"ptlactive/internal/value"
)

func mustParse(t *testing.T, src string) ptl.Formula {
	t.Helper()
	f, err := ptl.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return f
}

// histA builds a small history over item "a": values with timestamps, each
// a commit, plus an event stream.
func histA(t *testing.T, vals []int64, events map[int][]event.Event) *history.History {
	t.Helper()
	db := history.EmptyDB().With("a", value.NewInt(vals[0]))
	b := history.NewBuilder(db, 0)
	for i, v := range vals[1:] {
		var extra []event.Event
		if events != nil {
			extra = events[i+1]
		}
		if err := b.Commit(int64(i+1), int64(i+1), map[string]value.Value{"a": value.NewInt(v)}, extra...); err != nil {
			t.Fatal(err)
		}
	}
	return b.History()
}

func TestBasicOperators(t *testing.T) {
	// a: 1, 5, 2 at times 0, 1, 2.
	h := histA(t, []int64{1, 5, 2}, nil)
	reg := query.NewRegistry()
	ev := New(reg, h, nil)

	type tc struct {
		src  string
		want []bool // per state
	}
	cases := []tc{
		{`item("a") > 3`, []bool{false, true, false}},
		{`previously (item("a") > 3)`, []bool{false, true, true}},
		{`throughout (item("a") > 0)`, []bool{true, true, true}},
		{`throughout (item("a") > 2)`, []bool{false, false, false}},
		{`lasttime (item("a") = 5)`, []bool{false, false, true}},
		{`lasttime lasttime (item("a") = 1)`, []bool{false, false, true}},
		{`(item("a") > 0) since (item("a") = 5)`, []bool{false, true, true}},
		{`(item("a") > 4) since (item("a") = 1)`, []bool{true, true, false}},
		{`previously <= 1 (item("a") = 5)`, []bool{false, true, true}},
		// At time 2, state with a=5 is at time 1, within bound 1; a=1 at time 0 is outside bound 1... wait: 2-1=1 >= cutoff.
		{`previously <= 0 (item("a") = 5)`, []bool{false, true, false}},
		{`[x <- item("a")] previously (item("a") = x + 4)`, []bool{false, false, false}},
		{`[x <- item("a")] previously (item("a") = x - 1)`, []bool{false, false, true}},
		{`[x <- item("a")] previously (item("a") = x + 3)`, []bool{false, false, true}},
	}
	for _, c := range cases {
		f := mustParse(t, c.src)
		for i, want := range c.want {
			got, err := ev.Sat(i, f, nil)
			if err != nil {
				t.Fatalf("%q state %d: %v", c.src, i, err)
			}
			if got != want {
				t.Errorf("%q state %d = %t, want %t", c.src, i, got, want)
			}
		}
	}
}

func TestDesugarEquivalence(t *testing.T) {
	// The naive evaluator implements surface operators directly; evaluating
	// the desugared form must agree, validating Desugar independently of
	// the incremental algorithm.
	reg := ptlgen.Registry()
	iters := 300
	if testing.Short() {
		iters = 50
	}
	for it := 0; it < iters; it++ {
		rng := rand.New(rand.NewSource(int64(9000 + it)))
		f := ptlgen.Formula(rng, 1+rng.Intn(4))
		g := ptl.Desugar(ptl.RenameApart(f))
		h := ptlgen.History(rng, 10)
		ev := New(reg, h, nil)
		for i := 0; i < h.Len(); i++ {
			a, err := ev.Sat(i, f, nil)
			if err != nil {
				t.Fatalf("seed %d: surface: %v\n%s", it, err, f)
			}
			b, err := ev.Sat(i, g, nil)
			if err != nil {
				t.Fatalf("seed %d: desugared: %v\n%s", it, err, g)
			}
			if a != b {
				t.Fatalf("seed %d state %d: surface=%t desugared=%t\nsurface: %s\ndesugared: %s", it, i, a, b, f, g)
			}
		}
	}
}

func TestEventsAndEnv(t *testing.T) {
	h := histA(t, []int64{1, 2}, map[int][]event.Event{
		1: {event.New("login", value.NewString("alice"))},
	})
	reg := query.NewRegistry()
	ev := New(reg, h, nil)
	f := mustParse(t, `@login(U)`)
	got, err := ev.Sat(1, f, Env{"U": value.NewString("alice")})
	if err != nil || !got {
		t.Fatalf("alice: %t %v", got, err)
	}
	got, err = ev.Sat(1, f, Env{"U": value.NewString("bob")})
	if err != nil || got {
		t.Fatalf("bob: %t %v", got, err)
	}
	// Unbound variable errors.
	if _, err := ev.Sat(1, f, nil); err == nil {
		t.Error("unbound variable should error")
	}
	// Out-of-range index errors.
	if _, err := ev.Sat(99, f, nil); err == nil {
		t.Error("out of range index should error")
	}
	// SatLast uses the last state.
	got, err = ev.SatLast(mustParse(t, `item("a") = 2`), nil)
	if err != nil || !got {
		t.Fatalf("SatLast: %t %v", got, err)
	}
}

func TestPaperHourlyAverage(t *testing.T) {
	// sum(price; time = 540; time mod 60 = 0) / sum(1; ...) — the paper's
	// hourly average since 9AM (minute 540).
	db := history.EmptyDB().With("price", value.NewFloat(60))
	b := history.NewBuilder(db, 540)
	prices := []float64{80, 70, 90} // at minutes 600, 660, 665
	times := []int64{600, 660, 665}
	for i := range prices {
		if err := b.Commit(times[i], int64(i+1), map[string]value.Value{"price": value.NewFloat(prices[i])}); err != nil {
			t.Fatal(err)
		}
	}
	h := b.History()
	reg := query.NewRegistry()
	ev := New(reg, h, nil)
	f := mustParse(t, `sum(item("price"); time = 540; time mod 60 = 0) / sum(1; time = 540; time mod 60 = 0) > 70`)
	// At state 3 (time 665): sampling points are 540 (60), 600 (80), 660 (70);
	// the start state 540 is also a sampling point (540 mod 60 == 0).
	// avg = 210/3 = 70 -> not > 70.
	got, err := ev.SatLast(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("avg 70 must not satisfy > 70")
	}
	f2 := mustParse(t, `sum(item("price"); time = 540; time mod 60 = 0) / sum(1; time = 540; time mod 60 = 0) >= 70`)
	got, err = ev.SatLast(f2, nil)
	if err != nil || !got {
		t.Errorf("avg 70 should satisfy >= 70: %t %v", got, err)
	}
}

func TestAggregateUndefined(t *testing.T) {
	h := histA(t, []int64{1, 2}, nil)
	reg := query.NewRegistry()
	ev := New(reg, h, nil)
	// Start formula never satisfied: undefined aggregate, atoms false.
	f := mustParse(t, `sum(item("a"); time = 999; true) >= 0`)
	got, err := ev.SatLast(f, nil)
	if err != nil || got {
		t.Errorf("undefined aggregate atom should be false: %t %v", got, err)
	}
	// Negation of an undefined-aggregate atom is true.
	f2 := mustParse(t, `not (sum(item("a"); time = 999; true) >= 0)`)
	got, err = ev.SatLast(f2, nil)
	if err != nil || !got {
		t.Errorf("negated undefined atom should be true: %t %v", got, err)
	}
	// Defined start, empty samples: sum = 0.
	f3 := mustParse(t, `sum(item("a"); time = 0; false) = 0`)
	got, err = ev.SatLast(f3, nil)
	if err != nil || !got {
		t.Errorf("empty-sample sum should be 0: %t %v", got, err)
	}
	// avg of zero samples is undefined.
	f4 := mustParse(t, `avg(item("a"); time = 0; false) = 0`)
	got, err = ev.SatLast(f4, nil)
	if err != nil || got {
		t.Errorf("empty-sample avg should be undefined: %t %v", got, err)
	}
}

func TestAggregateFns(t *testing.T) {
	// a: 4, 1, 3 at times 0,1,2; samples at every state (true).
	h := histA(t, []int64{4, 1, 3}, nil)
	reg := query.NewRegistry()
	ev := New(reg, h, nil)
	cases := map[string]bool{
		`sum(item("a"); time = 0; true) = 8`:   true,
		`count(item("a"); time = 0; true) = 3`: true,
		`min(item("a"); time = 0; true) = 1`:   true,
		`max(item("a"); time = 0; true) = 4`:   true,
		`avg(item("a"); time = 0; true) > 2.6`: true,
		`avg(item("a"); time = 0; true) < 2.7`: true,
		// Window 1 at time 2 keeps times 1..2: values 1, 3.
		`sum(item("a"); window 1; true) = 4`: true,
		`min(item("a"); window 0; true) = 3`: true,
	}
	for src, want := range cases {
		got, err := ev.SatLast(mustParse(t, src), nil)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got != want {
			t.Errorf("%q = %t, want %t", src, got, want)
		}
	}
}

func TestAggregateFold(t *testing.T) {
	vals := []value.Value{value.NewInt(3), value.NewInt(1), value.NewInt(2)}
	type tc struct {
		fn   ptl.AggFn
		want value.Value
	}
	for _, c := range []tc{
		{ptl.AggSum, value.NewInt(6)},
		{ptl.AggCount, value.NewInt(3)},
		{ptl.AggAvg, value.NewFloat(2)},
		{ptl.AggMin, value.NewInt(1)},
		{ptl.AggMax, value.NewInt(3)},
	} {
		got, err := Aggregate(c.fn, vals)
		if err != nil {
			t.Fatalf("%s: %v", c.fn, err)
		}
		if !got.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.fn, got, c.want)
		}
	}
	if _, err := Aggregate("median", vals); err == nil {
		t.Error("unknown aggregate should error")
	}
	if v, err := Aggregate(ptl.AggAvg, nil); err != nil || !v.IsNull() {
		t.Error("avg of none should be Null")
	}
	if v, err := Aggregate(ptl.AggSum, nil); err != nil || v.AsInt() != 0 {
		t.Error("sum of none should be 0")
	}
}

func TestExecutedNaive(t *testing.T) {
	h := histA(t, []int64{1, 2, 3}, nil)
	reg := query.NewRegistry()
	log := execList{
		{Rule: "r1", Params: []value.Value{value.NewInt(9)}, Time: 1},
	}
	ev := New(reg, h, log)
	f := mustParse(t, `executed(r1, X, T)`)
	env := Env{"X": value.NewInt(9), "T": value.NewInt(1)}
	// At state 1 (time 1): execution time 1 is not strictly before 1.
	got, err := ev.Sat(1, f, env)
	if err != nil || got {
		t.Errorf("state 1: %t %v", got, err)
	}
	got, err = ev.Sat(2, f, env)
	if err != nil || !got {
		t.Errorf("state 2: %t %v", got, err)
	}
	// Wrong params do not match.
	got, _ = ev.Sat(2, f, Env{"X": value.NewInt(8), "T": value.NewInt(1)})
	if got {
		t.Error("wrong param matched")
	}
}

type execList []ptl.Execution

func (l execList) Executions(rule string, before int64) []ptl.Execution {
	var out []ptl.Execution
	for _, e := range l {
		if e.Rule == rule && e.Time < before {
			out = append(out, e)
		}
	}
	return out
}

func TestMembershipNaive(t *testing.T) {
	rel := value.NewRelation([][]value.Value{
		{value.NewString("x"), value.NewInt(1)},
	})
	db := history.EmptyDB().With("r", rel)
	b := history.NewBuilder(db, 0)
	h := b.History()
	reg := query.NewRegistry()
	ev := New(reg, h, nil)
	f := mustParse(t, `("x", 1) in item("r")`)
	got, err := ev.SatLast(f, nil)
	if err != nil || !got {
		t.Fatalf("membership: %t %v", got, err)
	}
	f2 := mustParse(t, `("x", 2) in item("r")`)
	got, err = ev.SatLast(f2, nil)
	if err != nil || got {
		t.Fatalf("non-membership: %t %v", got, err)
	}
	// Membership in a scalar is false, and its negation true.
	for src, want := range map[string]bool{`1 in time`: false, `not (1 in time)`: true} {
		if got, err := ev.SatLast(mustParse(t, src), nil); err != nil || got != want {
			t.Errorf("%s: %t %v, want %t", src, got, err, want)
		}
	}
}
