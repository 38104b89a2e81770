package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/history"
	"ptlactive/internal/naive"
	"ptlactive/internal/ptl"
	"ptlactive/internal/ptlgen"
	"ptlactive/internal/query"
	"ptlactive/internal/value"
)

// mustParse parses or fails the test.
func mustParse(t testing.TB, src string) ptl.Formula {
	t.Helper()
	f, err := ptl.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return f
}

// ibmHistory builds the paper's worked example history: states are
// (price(IBM), time) pairs; prices posted by committing transactions.
func ibmHistory(pairs [][2]int64) *history.History {
	db := history.EmptyDB().With("ibm", value.NewFloat(float64(pairs[0][0])))
	b := history.NewBuilder(db, pairs[0][1])
	for i, p := range pairs[1:] {
		if err := b.Commit(p[1], int64(i+1), map[string]value.Value{"ibm": value.NewFloat(float64(p[0]))}); err != nil {
			panic(err)
		}
	}
	return b.History()
}

func ibmRegistry(t testing.TB) *query.Registry {
	t.Helper()
	reg := query.NewRegistry()
	err := reg.Register("price", 1, func(st history.SystemState, args []value.Value) (value.Value, error) {
		v, _ := st.GetItem("ibm")
		return v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestPaperIBMExample reproduces the worked example of Section 5: the
// trigger "the price of IBM stock doubled (from some past value) within 10
// time units" over the history (10,1) (15,2) (18,5) (25,8) fires exactly
// at the fourth state.
func TestPaperIBMExample(t *testing.T) {
	f := mustParse(t, `[t <- time] [x <- price("IBM")]
	    previously (price("IBM") <= 0.5 * x and time >= t - 10)`)
	reg := ibmRegistry(t)
	ev, err := Compile(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := ibmHistory([][2]int64{{10, 1}, {15, 2}, {18, 5}, {25, 8}})
	want := []bool{false, false, false, true}
	for i := 0; i < h.Len(); i++ {
		res, err := ev.Step(h.At(i))
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if res.Fired != want[i] {
			t.Errorf("state %d: fired = %t, want %t", i, res.Fired, want[i])
		}
	}
}

// TestPaperIBMOptimization reproduces the second worked history
// (10,1) (15,2) (18,5) (11,20): the time-bound optimization must fold all
// dead clauses, leaving only the clause from the last state.
func TestPaperIBMOptimization(t *testing.T) {
	f := mustParse(t, `[t <- time] [x <- price("IBM")]
	    previously (price("IBM") <= 0.5 * x and time >= t - 10)`)
	reg := ibmRegistry(t)
	opt, err := Compile(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	noopt, err := Compile(f, reg, nil, WithoutStateBounding())
	if err != nil {
		t.Fatal(err)
	}
	h := ibmHistory([][2]int64{{10, 1}, {15, 2}, {18, 5}, {11, 20}})
	for i := 0; i < h.Len(); i++ {
		r1, err := opt.Step(h.At(i))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := noopt.Step(h.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if r1.Fired != r2.Fired {
			t.Fatalf("state %d: optimized fired=%t, unoptimized fired=%t", i, r1.Fired, r2.Fired)
		}
		if r1.Fired {
			t.Errorf("state %d: trigger should not fire in this history", i)
		}
	}
	// After the jump to time 20, the clauses from times 1, 2 and 5 are dead
	// (their windows t <= 11, t <= 12, t <= 15 all precede now=20); the
	// optimized evaluator must retain strictly less state.
	so, sn := opt.StateSize(), noopt.StateSize()
	if so >= sn {
		t.Errorf("optimized state %d not smaller than unoptimized %d", so, sn)
	}
}

// TestLoginSessionCondition exercises the introduction's example: "the
// value of attribute A remains positive while user X is logged in",
// phrased as its violation trigger A <= 0 since login, with the login user
// as a rule parameter.
func TestLoginSessionCondition(t *testing.T) {
	f := mustParse(t, `(not @logout(U)) since (@login(U) and item("A") > 0)`)
	reg := query.NewRegistry()
	info, err := ptl.Check(f, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Free) != 1 || info.Free[0] != "U" {
		t.Fatalf("free vars = %v", info.Free)
	}
	ev, err := New(info, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := history.EmptyDB().With("A", value.NewInt(5))
	b := history.NewBuilder(db, 0)
	alice := value.NewString("alice")
	bob := value.NewString("bob")
	_ = b.Event(1, event.New("login", alice))
	_ = b.Event(2, event.New("login", bob))
	_ = b.Event(3, event.New("logout", bob))
	_ = b.Event(4, event.New("tick"))
	h := b.History()

	fired := make([]map[string]bool, h.Len())
	for i := 0; i < h.Len(); i++ {
		res, err := ev.Step(h.At(i))
		if err != nil {
			t.Fatal(err)
		}
		fired[i] = map[string]bool{}
		for _, bnd := range res.Bindings {
			fired[i][bnd["U"].AsString()] = true
		}
	}
	if !fired[1]["alice"] || fired[1]["bob"] {
		t.Errorf("state 1 bindings = %v", fired[1])
	}
	if !fired[2]["alice"] || !fired[2]["bob"] {
		t.Errorf("state 2 bindings = %v", fired[2])
	}
	// bob logged out at state 3: only alice's session is still open.
	if !fired[3]["alice"] || fired[3]["bob"] {
		t.Errorf("state 3 bindings = %v", fired[3])
	}
	if !fired[4]["alice"] || fired[4]["bob"] {
		t.Errorf("state 4 bindings = %v", fired[4])
	}
}

// TestTheorem1RandomEquivalence is the Theorem-1 property test: for random
// closed formulas and random histories, the incremental evaluator fires at
// state i iff the naive whole-history semantics satisfies the formula at
// state i.
func TestTheorem1RandomEquivalence(t *testing.T) {
	reg := ptlgen.Registry()
	iters := 400
	if testing.Short() {
		iters = 60
	}
	for it := 0; it < iters; it++ {
		rng := rand.New(rand.NewSource(int64(it)))
		f := ptlgen.Formula(rng, 1+rng.Intn(4))
		info, err := ptl.Check(f, reg)
		if err != nil {
			t.Fatalf("seed %d: check %s: %v", it, f, err)
		}
		h := ptlgen.History(rng, 12)
		inc, err := New(info, reg, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", it, err)
		}
		direct := naive.New(reg, h, nil)
		for i := 0; i < h.Len(); i++ {
			res, err := inc.Step(h.At(i))
			if err != nil {
				t.Fatalf("seed %d state %d: incremental: %v\nformula: %s", it, i, err, f)
			}
			want, err := direct.Sat(i, f, nil)
			if err != nil {
				t.Fatalf("seed %d state %d: naive: %v\nformula: %s", it, i, err, f)
			}
			if res.Fired != want {
				t.Fatalf("seed %d state %d: incremental=%t naive=%t\nformula: %s\nnormalized: %s",
					it, i, res.Fired, want, f, info.Normalized)
			}
		}
	}
}

// TestTheorem1WithAggregates extends the property test to formulas
// containing temporal aggregates.
func TestTheorem1WithAggregates(t *testing.T) {
	reg := ptlgen.Registry()
	iters := 150
	if testing.Short() {
		iters = 25
	}
	for it := 0; it < iters; it++ {
		rng := rand.New(rand.NewSource(int64(1000 + it)))
		f := ptlgen.FormulaWithAggregates(rng, 1+rng.Intn(3))
		info, err := ptl.Check(f, reg)
		if err != nil {
			t.Fatalf("seed %d: check %s: %v", it, f, err)
		}
		h := ptlgen.History(rng, 10)
		inc, err := New(info, reg, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", it, err)
		}
		direct := naive.New(reg, h, nil)
		for i := 0; i < h.Len(); i++ {
			res, err := inc.Step(h.At(i))
			if err != nil {
				t.Fatalf("seed %d state %d: incremental: %v\nformula: %s", it, i, err, f)
			}
			want, err := direct.Sat(i, f, nil)
			if err != nil {
				t.Fatalf("seed %d state %d: naive: %v\nformula: %s", it, i, err, f)
			}
			if res.Fired != want {
				t.Fatalf("seed %d state %d: incremental=%t naive=%t\nformula: %s", it, i, res.Fired, want, f)
			}
		}
	}
}

// TestTheorem1LinearFamily: the family whose since-chains retain clauses of
// one shape fires as the naive semantics says, with the state bounding on
// and off, and the bounding keeps less state on a good share of it.
func TestTheorem1LinearFamily(t *testing.T) {
	reg := ptlgen.Registry()
	iters := 300
	if testing.Short() {
		iters = 60
	}
	smaller := 0
	for it := 0; it < iters; it++ {
		rng := rand.New(rand.NewSource(int64(7000 + it)))
		f := ptlgen.LinearFormula(rng, 1+rng.Intn(3))
		info, err := ptl.Check(f, reg)
		if err != nil {
			t.Fatalf("seed %d: check %s: %v", it, f, err)
		}
		h := ptlgen.History(rng, 20)
		direct := naive.New(reg, h, nil)
		evs := [2]*Evaluator{}
		for k, opts := range [][]Option{nil, {WithoutStateBounding()}} {
			if evs[k], err = New(info, reg, nil, opts...); err != nil {
				t.Fatalf("seed %d: %v", it, err)
			}
		}
		for i := 0; i < h.Len(); i++ {
			want, err := direct.Sat(i, f, nil)
			if err != nil {
				t.Fatalf("seed %d state %d: naive: %v\nformula: %s", it, i, err, f)
			}
			for k, ev := range evs {
				res, err := ev.Step(h.At(i))
				if err != nil || res.Fired != want {
					t.Fatalf("seed %d state %d, bounding %t: incremental=%t (%v) naive=%t\nformula: %s",
						it, i, k == 0, res.Fired, err, want, f)
				}
			}
		}
		if evs[0].StateSize() < evs[1].StateSize() {
			smaller++
		}
	}
	if smaller < iters/4 {
		t.Fatalf("the bounding kept less state on %d of %d formulas", smaller, iters)
	}
}

// TestOptimizationPreservesSemantics re-runs random formulas with the
// time-bound optimization disabled and checks both evaluators agree.
func TestOptimizationPreservesSemantics(t *testing.T) {
	reg := ptlgen.Registry()
	iters := 200
	if testing.Short() {
		iters = 40
	}
	for it := 0; it < iters; it++ {
		rng := rand.New(rand.NewSource(int64(5000 + it)))
		f := ptlgen.Formula(rng, 1+rng.Intn(4))
		h := ptlgen.History(rng, 12)
		a, err := Compile(f, reg, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", it, err)
		}
		b, err := Compile(f, reg, nil, WithoutStateBounding())
		if err != nil {
			t.Fatalf("seed %d: %v", it, err)
		}
		for i := 0; i < h.Len(); i++ {
			ra, err := a.Step(h.At(i))
			if err != nil {
				t.Fatalf("seed %d: %v", it, err)
			}
			rb, err := b.Step(h.At(i))
			if err != nil {
				t.Fatalf("seed %d: %v", it, err)
			}
			if ra.Fired != rb.Fired {
				t.Fatalf("seed %d state %d: optimized=%t plain=%t\nformula: %s", it, i, ra.Fired, rb.Fired, f)
			}
		}
	}
}

// TestBoundedStateStaysBounded checks the paper's claim that bounded
// operators with the optimization keep only bounded information: state
// size must not grow linearly with history length.
func TestBoundedStateStaysBounded(t *testing.T) {
	f := mustParse(t, `[x <- price("IBM")] previously <= 10 (price("IBM") <= 0.5 * x)`)
	reg := ibmRegistry(t)
	ev, err := Compile(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := history.EmptyDB().With("ibm", value.NewFloat(100))
	b := history.NewBuilder(db, 0)
	rng := rand.New(rand.NewSource(7))
	maxState := 0
	for i := 1; i <= 500; i++ {
		price := 50 + rng.Float64()*100
		if err := b.Commit(int64(i), int64(i), map[string]value.Value{"ibm": value.NewFloat(price)}); err != nil {
			t.Fatal(err)
		}
		if _, err := ev.Step(b.History().At(b.History().Len() - 1)); err != nil {
			t.Fatal(err)
		}
		if s := ev.StateSize(); s > maxState {
			maxState = s
		}
	}
	// The window holds at most 10 states; each contributes a small constant
	// number of nodes. 200 is a generous cap that a linear-growth bug blows
	// through immediately (500 states would give thousands of nodes).
	if maxState > 200 {
		t.Errorf("bounded formula state grew to %d nodes; optimization not bounding state", maxState)
	}
}

// TestUnboundedStateGrowsWithoutOptimization is the negative control for
// the previous test: with the optimization off, the same formula's state
// grows with the history.
func TestUnboundedStateGrowsWithoutOptimization(t *testing.T) {
	f := mustParse(t, `[x <- price("IBM")] previously <= 10 (price("IBM") <= 0.5 * x)`)
	reg := ibmRegistry(t)
	ev, err := Compile(f, reg, nil, WithoutStateBounding())
	if err != nil {
		t.Fatal(err)
	}
	db := history.EmptyDB().With("ibm", value.NewFloat(100))
	b := history.NewBuilder(db, 0)
	rng := rand.New(rand.NewSource(7))
	for i := 1; i <= 200; i++ {
		price := 50 + rng.Float64()*100
		_ = b.Commit(int64(i), int64(i), map[string]value.Value{"ibm": value.NewFloat(price)})
		if _, err := ev.Step(b.History().At(b.History().Len() - 1)); err != nil {
			t.Fatal(err)
		}
	}
	if s := ev.StateSize(); s < 200 {
		t.Errorf("unoptimized state = %d nodes; expected linear growth past 200", s)
	}
}

// TestExecutedPredicate drives the executed predicate through a small log.
func TestExecutedPredicate(t *testing.T) {
	f := mustParse(t, `executed(r1, X, T) and time = T + 10`)
	reg := query.NewRegistry()
	log := &fakeLog{}
	ev, err := Compile(f, reg, log)
	if err != nil {
		t.Fatal(err)
	}
	b := history.NewBuilder(history.EmptyDB(), 0)
	_ = b.Event(5, event.New("tick"))
	log.add(ptl.Execution{Rule: "r1", Params: []value.Value{value.NewInt(42)}, Time: 5})
	_ = b.Event(10, event.New("tick"))
	_ = b.Event(15, event.New("tick"))
	h := b.History()
	// state times: 0, 5, 10, 15. Execution at 5 with param 42; condition
	// holds when time = 15.
	wantFired := []bool{false, false, false, true}
	for i := 0; i < h.Len(); i++ {
		res, err := ev.Step(h.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Fired != wantFired[i] {
			t.Errorf("state %d fired=%t want %t", i, res.Fired, wantFired[i])
		}
		if res.Fired {
			if len(res.Bindings) != 1 || res.Bindings[0]["X"].AsInt() != 42 || res.Bindings[0]["T"].AsInt() != 5 {
				t.Errorf("bindings = %v", res.Bindings)
			}
		}
	}
}

type fakeLog struct {
	execs []ptl.Execution
}

func (l *fakeLog) add(e ptl.Execution) { l.execs = append(l.execs, e) }

func (l *fakeLog) Executions(rule string, before int64) []ptl.Execution {
	var out []ptl.Execution
	for _, e := range l.execs {
		if e.Rule == rule && e.Time < before {
			out = append(out, e)
		}
	}
	return out
}

// TestMembershipBinding exercises relation-valued bindings: a parameterized
// rule whose parameter ranges over a relation captured by an assignment
// under a temporal operator (the paper's auxiliary relation R_x).
func TestMembershipBinding(t *testing.T) {
	reg := query.NewRegistry()
	schema := [][]value.Value{
		{value.NewString("XYZ")},
		{value.NewString("OIL")},
	}
	_ = schema
	err := reg.Register("overpriced", 0, func(st history.SystemState, args []value.Value) (value.Value, error) {
		v, _ := st.GetItem("overpriced")
		return v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fires for stock S that was overpriced at some past instant.
	f := mustParse(t, `[r <- overpriced()] previously (S in r)`)
	// Careful: the assignment is outside previously, so r is the CURRENT
	// overpriced set; the membership is tested against it at past states —
	// it stays the current set (r is bound at evaluation time). For the
	// intended "was overpriced in the past" the assignment goes inside:
	f2 := mustParse(t, `previously ([r <- overpriced()] S in r)`)
	db := history.EmptyDB().With("overpriced", value.NewRelation([][]value.Value{{value.NewString("XYZ")}}))
	b := history.NewBuilder(db, 0)
	_ = b.Commit(1, 1, map[string]value.Value{"overpriced": value.NewRelation([][]value.Value{{value.NewString("OIL")}})})
	h := b.History()

	ev1, err := Compile(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := Compile(f2, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var last1, last2 Result
	for i := 0; i < h.Len(); i++ {
		last1, err = ev1.Step(h.At(i))
		if err != nil {
			t.Fatal(err)
		}
		last2, err = ev2.Step(h.At(i))
		if err != nil {
			t.Fatal(err)
		}
	}
	// f: r = current set {OIL}; membership at any past state is against
	// {OIL}: binding S=OIL only.
	if len(last1.Bindings) != 1 || last1.Bindings[0]["S"].AsString() != "OIL" {
		t.Errorf("f bindings = %v", last1.Bindings)
	}
	// f2: r bound per past state: S in {XYZ} at state 0 or S in {OIL} at
	// state 1: both bindings fire.
	got := map[string]bool{}
	for _, bnd := range last2.Bindings {
		got[bnd["S"].AsString()] = true
	}
	if !got["XYZ"] || !got["OIL"] || len(got) != 2 {
		t.Errorf("f2 bindings = %v", last2.Bindings)
	}
}

// TestWindowedAggregate checks the moving-average condition end to end:
// hourly (60-unit) moving average of the price sampled at update events.
func TestWindowedAggregate(t *testing.T) {
	f := mustParse(t, `avg(price("IBM"); window 60; @update_stocks) > 70`)
	reg := ibmRegistry(t)
	ev, err := Compile(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := history.EmptyDB().With("ibm", value.NewFloat(80))
	b := history.NewBuilder(db, 0)
	step := func(ts int64, price float64) Result {
		t.Helper()
		err := b.Commit(ts, ts, map[string]value.Value{"ibm": value.NewFloat(price)}, event.New("update_stocks"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := ev.Step(b.History().At(b.History().Len() - 1))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if _, err := ev.Step(b.History().At(0)); err != nil {
		t.Fatal(err)
	}
	if r := step(10, 80); !r.Fired { // avg {80} = 80
		t.Error("avg 80 should fire")
	}
	if r := step(20, 50); r.Fired { // avg {80, 50} = 65
		t.Error("avg 65 should not fire")
	}
	if r := step(85, 72); !r.Fired { // window drops 80(t=10) and 50(t=20): avg {72}
		t.Error("avg 72 after eviction should fire")
	}
}

// TestClosedNonTemporalCondition: conditions without temporal operators
// reduce to the current state only.
func TestClosedNonTemporalCondition(t *testing.T) {
	f := mustParse(t, `item("a") > 3 and not @e0`)
	reg := query.NewRegistry()
	info, err := ptl.Check(f, reg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Temporal {
		t.Error("condition should be classified non-temporal")
	}
	ev, err := New(info, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := history.EmptyDB().With("a", value.NewInt(5))
	st := history.SystemState{DB: db, Events: event.NewSet(), TS: 1}
	res, err := ev.Step(st)
	if err != nil || !res.Fired {
		t.Fatalf("res=%v err=%v", res, err)
	}
	st2 := history.SystemState{DB: db, Events: event.NewSet(event.New("e0")), TS: 2}
	res, err = ev.Step(st2)
	if err != nil || res.Fired {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

// TestStepCountAndInfo covers small accessors.
func TestStepCountAndInfo(t *testing.T) {
	f := mustParse(t, `true since @e0`)
	reg := query.NewRegistry()
	ev, err := Compile(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Info() == nil || ev.Steps() != 0 {
		t.Fatal("accessors wrong before stepping")
	}
	st := history.SystemState{DB: history.EmptyDB(), Events: event.NewSet(), TS: 1}
	if _, err := ev.Step(st); err != nil {
		t.Fatal(err)
	}
	if ev.Steps() != 1 {
		t.Fatal("Steps should count")
	}
	if _, err := New(nil, reg, nil); err == nil {
		t.Error("New(nil) should error")
	}
}

// TestEnumerationLimit: parameter combinations beyond the cap surface an
// error instead of unbounded work.
func TestEnumerationLimit(t *testing.T) {
	f := mustParse(t, `@pair(X, Y)`)
	reg := query.NewRegistry()
	ev, err := Compile(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 350 x 350 candidate pairs = 122500 > enumerationLimit.
	evs := make([]event.Event, 0, 350)
	for i := 0; i < 350; i++ {
		evs = append(evs, event.New("pair", value.NewInt(int64(i)), value.NewInt(int64(i))))
	}
	st := history.SystemState{DB: history.EmptyDB(), Events: event.NewSet(evs...), TS: 1}
	if _, err := ev.Step(st); err == nil {
		t.Fatal("enumeration beyond the limit should error")
	}
	// A modest number of bindings still enumerates fine.
	ev2, _ := Compile(f, reg, nil)
	st2 := history.SystemState{DB: history.EmptyDB(),
		Events: event.NewSet(evs[:20]...), TS: 1}
	res, err := ev2.Step(st2)
	if err != nil {
		t.Fatal(err)
	}
	// Candidates form a 20x20 product but only the diagonal satisfies.
	if len(res.Bindings) != 20 {
		t.Fatalf("bindings = %d, want 20", len(res.Bindings))
	}
}

// TestStateSizeAndRegistersAccessors exercises the diagnostics used by the
// experiments.
func TestStateSizeAndRegistersAccessors(t *testing.T) {
	f := mustParse(t, `(@a since @b) and lasttime @c and sum(item("x"); @s; @m) > 0`)
	reg := query.NewRegistry()
	ev, err := Compile(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// since + lasttime at top, plus registers inside the aggregate's
	// start/sample sub-evaluators (none here: atoms only).
	if ev.Registers() != 2 {
		t.Fatalf("Registers = %d, want 2", ev.Registers())
	}
	if ev.StateSize() != 2 { // two nodeFalse slots, shared node counted per slot walk
		// StateSize counts distinct nodes; both slots hold the shared
		// nodeFalse constant, so the count is 1.
		if ev.StateSize() != 1 {
			t.Fatalf("StateSize = %d", ev.StateSize())
		}
	}
}

// TestNanosecondTimeBounds: the paper's `time >= t - 10` clauses on a
// nanosecond clock, where neighbouring instants share a float64. The event
// is remembered for exactly 10 ns on the general evaluator — through its
// time-bound pruning — and a plain bound against the state's own clock
// holds on both.
func TestNanosecondTimeBounds(t *testing.T) {
	const t0 = int64(1_760_000_000_123_456_789)
	reg := ptlgen.Registry()
	db := history.EmptyDB()
	state := func(off int64, events ...event.Event) history.SystemState {
		return history.SystemState{DB: db, Events: event.NewSet(events...), TS: t0 + off}
	}
	within := mustParse(t, `[t <- time] previously (@e0 and time >= t - 10)`)
	ev, err := Compile(within, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		st   history.SystemState
		want bool
	}{
		{state(0, event.New("tick")), false},
		{state(100, event.New("e0")), true},
		{state(107, event.New("tick")), true}, // float64(t0+107) > float64(t0+100)+10
		{state(110, event.New("tick")), true},
		{state(111, event.New("tick")), false},
		{state(400, event.New("tick")), false},
	} {
		res, err := ev.Step(c.st)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fired != c.want {
			t.Errorf("within-10ns at +%d: fired = %t, want %t", c.st.TS-t0, res.Fired, c.want)
		}
	}
	bound := mustParse(t, fmt.Sprintf(`[t <- time] (t >= %d - 10 and t < %d + 100)`, t0+50, t0+50))
	for _, general := range []bool{false, true} {
		info, err := ptl.Check(bound, reg)
		if err != nil {
			t.Fatal(err)
		}
		var ev ConditionEvaluator
		if general {
			ev, err = New(info, reg, nil)
		} else {
			ev, err = NewFast(info, reg, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			off  int64
			want bool
		}{{39, false}, {40, true}, {149, true}, {150, false}} {
			res, err := ev.StepResult(state(c.off, event.New("tick")))
			if err != nil {
				t.Fatal(err)
			}
			if res.Fired != c.want {
				t.Errorf("%T: bound at +%d: fired = %t, want %t", ev, c.off, res.Fired, c.want)
			}
		}
	}
}
