package adb

import (
	"errors"
	"reflect"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/value"
)

func newTestEngine(t *testing.T, initial map[string]value.Value) *Engine {
	t.Helper()
	return NewEngine(Config{Initial: initial, Start: 0})
}

func TestTriggerFiresOnCondition(t *testing.T) {
	e := newTestEngine(t, map[string]value.Value{"a": value.NewInt(0)})
	if err := e.AddTrigger("r", `item("a") > 5`, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(1, map[string]value.Value{"a": value.NewInt(3)}); err != nil {
		t.Fatal(err)
	}
	if len(e.Firings()) != 0 {
		t.Fatal("should not fire at a=3")
	}
	if err := e.Exec(2, map[string]value.Value{"a": value.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	fs := e.Firings()
	if len(fs) != 1 || fs[0].Rule != "r" || fs[0].Time != 2 {
		t.Fatalf("firings = %v", fs)
	}
}

func TestTemporalTrigger(t *testing.T) {
	// "a doubled within 10 time units", the paper's running example shape.
	e := newTestEngine(t, map[string]value.Value{"a": value.NewFloat(10)})
	err := e.AddTrigger("doubled",
		`[t <- time] [x <- item("a")] previously (item("a") <= 0.5 * x and time >= t - 10)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = e.Exec(1, map[string]value.Value{"a": value.NewFloat(10)})
	_ = e.Exec(2, map[string]value.Value{"a": value.NewFloat(15)})
	_ = e.Exec(5, map[string]value.Value{"a": value.NewFloat(18)})
	if len(e.Firings()) != 0 {
		t.Fatalf("premature firing: %v", e.Firings())
	}
	_ = e.Exec(8, map[string]value.Value{"a": value.NewFloat(25)})
	if len(e.Firings()) != 1 || e.Firings()[0].Time != 8 {
		t.Fatalf("firings = %v", e.Firings())
	}
}

func TestRuleRegistrationErrors(t *testing.T) {
	e := newTestEngine(t, nil)
	if err := e.AddTrigger("", `true`, nil); err == nil {
		t.Error("empty name should fail")
	}
	if err := e.AddTrigger("r", `true`, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.AddTrigger("r", `true`, nil); err == nil {
		t.Error("duplicate name should fail")
	}
	if err := e.AddTrigger("bad", `nosuch() > 0`, nil); err == nil {
		t.Error("unknown query should fail")
	}
	if err := e.AddTrigger("badsyntax", `and and`, nil); err == nil {
		t.Error("syntax error should fail")
	}
	if err := e.AddConstraint("c", `@e(X)`); err == nil {
		t.Error("constraint with free variables should fail")
	}
	if names := e.RuleNames(); len(names) != 1 || names[0] != "r" {
		t.Errorf("RuleNames = %v", names)
	}
}

func TestIntegrityConstraintAbortsTransaction(t *testing.T) {
	// Constraint: "a never decreases" — phrased temporally: there is no
	// past value x of a exceeding the current value.
	e := newTestEngine(t, map[string]value.Value{"a": value.NewInt(5)})
	err := e.AddConstraint("monotone",
		`[x <- item("a")] not previously (item("a") > x)`)
	if err != nil {
		t.Fatal(err)
	}
	// Increase: fine.
	if err := e.Exec(1, map[string]value.Value{"a": value.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	// Decrease: must abort.
	err = e.Exec(2, map[string]value.Value{"a": value.NewInt(6)})
	if err == nil {
		t.Fatal("decreasing commit should abort")
	}
	var ce *ConstraintError
	if !errors.As(err, &ce) || ce.Constraint != "monotone" {
		t.Fatalf("error = %v", err)
	}
	if !errors.Is(err, ErrConstraintViolation) {
		t.Fatal("errors.Is(ErrConstraintViolation) should hold")
	}
	// Database unchanged after abort.
	v, _ := e.DB().Get("a")
	if v.AsInt() != 7 {
		t.Fatalf("db corrupted by aborted txn: a = %v", v)
	}
	// The abort state is recorded in the history with a transaction_abort
	// event.
	last, _ := e.History().Last()
	if len(last.Events.ByName(event.TransactionAbort)) != 1 {
		t.Fatalf("last state events = %v", last.Events)
	}
	// A later valid commit still works and the constraint state was not
	// polluted by the aborted attempt.
	if err := e.Exec(3, map[string]value.Value{"a": value.NewInt(8)}); err != nil {
		t.Fatalf("post-abort commit failed: %v", err)
	}
}

func TestConstraintSeesHistoryBeforeTxn(t *testing.T) {
	// Constraint referencing an event history: "u2 only after u1"
	// (the paper's online-satisfaction example, transaction-time model).
	e := newTestEngine(t, nil)
	if err := e.AddConstraint("ordered", `not @u2 or previously @u1`); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	tx.Emit(event.New("u2"))
	if err := tx.Commit(1); err == nil {
		t.Fatal("u2 before u1 should abort")
	}
	tx = e.Begin()
	tx.Emit(event.New("u1"))
	if err := tx.Commit(2); err != nil {
		t.Fatal(err)
	}
	tx = e.Begin()
	tx.Emit(event.New("u2"))
	if err := tx.Commit(3); err != nil {
		t.Fatalf("u2 after u1 should commit: %v", err)
	}
}

func TestActionsAndExecutedPredicate(t *testing.T) {
	// Section 7's schema: r1 fires on C, then r2 executes 10 ticks after
	// r1 executed.
	e := newTestEngine(t, map[string]value.Value{"c": value.NewInt(0), "acted": value.NewInt(0)})
	err := e.AddTrigger("r1", `item("c") = 1`, func(ctx *ActionContext) error {
		// Consume the condition in the same transaction so this
		// level-triggered rule does not refire on its own commit.
		return ctx.Exec(map[string]value.Value{"acted": value.NewInt(1), "c": value.NewInt(0)})
	})
	if err != nil {
		t.Fatal(err)
	}
	var r2Fired []int64
	err = e.AddTrigger("r2", `executed(r1, T) and time = T + 10`, func(ctx *ActionContext) error {
		r2Fired = append(r2Fired, ctx.FiredAt)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(5, map[string]value.Value{"c": value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	// r1 fired at 5; its action committed at 6 -> executed(r1, 6).
	v, _ := e.DB().Get("acted")
	if v.AsInt() != 1 {
		t.Fatal("r1 action did not run")
	}
	// Advance the clock to 16 = 6 + 10.
	if err := e.Emit(16, event.New("tick")); err != nil {
		t.Fatal(err)
	}
	if len(r2Fired) != 1 || r2Fired[0] != 16 {
		t.Fatalf("r2 firings = %v (executions: %v)", r2Fired, e.Executions("r1", 100))
	}
}

func TestTemporalActionEveryTenMinutes(t *testing.T) {
	// Section 7's temporal action: when price < 60, buy 50 stocks every 10
	// minutes for the next hour. r1 buys once; r2 repeats.
	e := newTestEngine(t, map[string]value.Value{"price": value.NewFloat(100), "bought": value.NewInt(0)})
	buy := func(ctx *ActionContext) error {
		v, _ := ctx.DB().Get("bought")
		return ctx.Exec(map[string]value.Value{"bought": value.NewInt(v.AsInt() + 50)})
	}
	// r1: the condition edge (price drops below 60 having been above).
	err := e.AddTrigger("buy_start", `item("price") < 60 and lasttime (item("price") >= 60)`, buy)
	if err != nil {
		t.Fatal(err)
	}
	err = e.AddTrigger("buy_repeat",
		`executed(buy_start, T) and time - T <= 60 and (time - T) mod 10 = 0`, buy)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(100, map[string]value.Value{"price": value.NewFloat(55)}); err != nil {
		t.Fatal(err)
	}
	// buy_start fires at 100, action commits at 101: executed(buy_start,101).
	// Ticks at 111, 121, ... 161 satisfy (time-101) mod 10 = 0 and <= 60.
	for e.Now() < 175 {
		if err := e.Emit(e.Now()+1, event.New("tick")); err != nil {
			t.Fatal(err)
		}
	}
	v, _ := e.DB().Get("bought")
	// 1 initial + ticks at 111..161 = 6 repeats -> 7 * 50 = 350.
	if v.AsInt() != 350 {
		t.Fatalf("bought = %v, want 350", v)
	}
}

func TestParameterizedTriggerBindings(t *testing.T) {
	e := newTestEngine(t, nil)
	var seen []string
	err := e.AddTrigger("login_watch", `@login(U)`, func(ctx *ActionContext) error {
		u, _ := ctx.Param("U")
		seen = append(seen, u.AsString())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = e.Emit(1, event.New("login", value.NewString("alice")))
	_ = e.Emit(2, event.New("login", value.NewString("bob")), event.New("login", value.NewString("carol")))
	if len(seen) != 3 {
		t.Fatalf("seen = %v", seen)
	}
	// Executions record parameters.
	ex := e.Executions("login_watch", 100)
	if len(ex) != 3 || len(ex[0].Params) != 1 {
		t.Fatalf("executions = %v", ex)
	}
}

func TestSchedulingRelevantDelaysButNeverLoses(t *testing.T) {
	e := newTestEngine(t, map[string]value.Value{"a": value.NewInt(0)})
	// Condition pairs an event with database history.
	err := e.AddTrigger("r", `@ping and previously (item("a") > 5)`, nil, WithScheduling(Relevant))
	if err != nil {
		t.Fatal(err)
	}
	_ = e.Exec(1, map[string]value.Value{"a": value.NewInt(7)})
	_ = e.Exec(2, map[string]value.Value{"a": value.NewInt(1)})
	for ts := int64(3); ts < 10; ts++ {
		_ = e.Emit(ts, event.New("noise"))
	}
	if len(e.Firings()) != 0 {
		t.Fatal("no ping yet")
	}
	_ = e.Emit(10, event.New("ping"))
	if len(e.Firings()) != 1 || e.Firings()[0].Time != 10 {
		t.Fatalf("firings = %v", e.Firings())
	}
}

func TestSchedulingManualFlush(t *testing.T) {
	e := newTestEngine(t, map[string]value.Value{"a": value.NewInt(0)})
	if err := e.AddTrigger("r", `item("a") > 5`, nil, WithScheduling(Manual)); err != nil {
		t.Fatal(err)
	}
	_ = e.Exec(1, map[string]value.Value{"a": value.NewInt(9)})
	_ = e.Exec(2, map[string]value.Value{"a": value.NewInt(1)})
	if len(e.Firings()) != 0 {
		t.Fatal("manual rule should not fire before flush")
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// The batched invocation recognizes the firing at state time 1 even
	// though the condition no longer holds now: delayed, not lost.
	if len(e.Firings()) != 1 || e.Firings()[0].Time != 1 {
		t.Fatalf("firings = %v", e.Firings())
	}
}

func TestRelevanceSkipsEvaluations(t *testing.T) {
	mk := func(s Scheduling) int64 {
		e := newTestEngine(t, map[string]value.Value{"a": value.NewInt(0)})
		if err := e.AddTrigger("r", `@rare and item("a") > 0`, nil, WithScheduling(s)); err != nil {
			t.Fatal(err)
		}
		for ts := int64(1); ts <= 100; ts++ {
			_ = e.Emit(ts, event.New("noise"))
		}
		_ = e.Emit(101, event.New("rare"))
		return e.EvalSteps()
	}
	eager := mk(Eager)
	relevant := mk(Relevant)
	if relevant >= eager {
		t.Fatalf("relevant scheduling (%d steps) should evaluate less than eager (%d)", relevant, eager)
	}
}

func TestCascadeLimit(t *testing.T) {
	e := NewEngine(Config{
		Initial:      map[string]value.Value{"n": value.NewInt(0)},
		CascadeLimit: 10,
	})
	// Self-perpetuating rule: every update of n fires and updates n again.
	err := e.AddTrigger("loop", `item("n") >= 0`, func(ctx *ActionContext) error {
		v, _ := ctx.DB().Get("n")
		return ctx.Exec(map[string]value.Value{"n": value.NewInt(v.AsInt() + 1)})
	})
	if err != nil {
		t.Fatal(err)
	}
	err = e.Exec(1, map[string]value.Value{"n": value.NewInt(1)})
	if err == nil {
		t.Fatal("infinite cascade should hit the limit")
	}
}

func TestTxnMisuse(t *testing.T) {
	e := newTestEngine(t, nil)
	tx := e.Begin()
	if err := tx.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(2); err == nil {
		t.Error("double commit should fail")
	}
	if err := tx.Abort(2); err == nil {
		t.Error("abort after commit should fail")
	}
	tx2 := e.Begin()
	if err := tx2.Commit(1); err == nil {
		t.Error("non-increasing timestamp should fail")
	}
	tx3 := e.Begin()
	if err := tx3.Abort(5); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 5 {
		t.Errorf("Now = %d", e.Now())
	}
	if err := e.Emit(6); err == nil {
		t.Error("Emit with no events should fail")
	}
}

func TestOnFiringCallback(t *testing.T) {
	var got []Firing
	e := NewEngine(Config{
		Initial:  map[string]value.Value{"a": value.NewInt(1)},
		OnFiring: func(f Firing) { got = append(got, f) },
	})
	if err := e.AddTrigger("r", `item("a") > 5`, nil); err != nil {
		t.Fatal(err)
	}
	_ = e.Exec(1, map[string]value.Value{"a": value.NewInt(10)})
	if len(got) != 1 || got[0].Rule != "r" {
		t.Fatalf("callback got %v", got)
	}
}

func TestRuleEntryStateSemantics(t *testing.T) {
	// A rule entered mid-history observes the state current at entry (the
	// paper initializes auxiliary relations from the database "at that
	// time") but nothing earlier.
	e := newTestEngine(t, map[string]value.Value{"a": value.NewInt(9)})
	_ = e.Exec(1, map[string]value.Value{"a": value.NewInt(10)})
	if err := e.AddTrigger("r", `previously (item("a") = 10)`, nil); err != nil {
		t.Fatal(err)
	}
	_ = e.Exec(2, map[string]value.Value{"a": value.NewInt(3)})
	// The entry state (a=10 at time 1) is visible: one firing at time 1
	// (recognized during the sweep of state 2) and one at time 2 via
	// previously.
	if len(e.Firings()) != 2 || e.Firings()[0].Time != 1 || e.Firings()[1].Time != 2 {
		t.Fatalf("firings = %v", e.Firings())
	}
	// States before entry stay invisible: a was 9 only at state 0.
	e2 := newTestEngine(t, map[string]value.Value{"a": value.NewInt(9)})
	_ = e2.Exec(1, map[string]value.Value{"a": value.NewInt(10)})
	if err := e2.AddTrigger("r", `previously (item("a") = 9)`, nil); err != nil {
		t.Fatal(err)
	}
	_ = e2.Exec(2, map[string]value.Value{"a": value.NewInt(3)})
	if len(e2.Firings()) != 0 {
		t.Fatalf("rule saw pre-entry history: %v", e2.Firings())
	}
}

// TestMembershipRuleThroughEngine: a parameterized rule whose parameter
// ranges over a relation-valued item (the paper's OVERPRICED pattern),
// driven end to end through the engine.
func TestMembershipRuleThroughEngine(t *testing.T) {
	over := func(names ...string) value.Value {
		rows := make([][]value.Value, len(names))
		for i, n := range names {
			rows[i] = []value.Value{value.NewString(n)}
		}
		return value.NewRelation(rows)
	}
	e := newTestEngine(t, map[string]value.Value{"overpriced": over()})
	var seen []string
	err := e.AddTrigger("alert",
		`S in item("overpriced") and not lasttime (S in item("overpriced"))`,
		func(ctx *ActionContext) error {
			s, _ := ctx.Param("S")
			seen = append(seen, s.AsString())
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	_ = e.Exec(1, map[string]value.Value{"overpriced": over("XYZ")})
	_ = e.Exec(2, map[string]value.Value{"overpriced": over("XYZ", "OIL")})
	_ = e.Exec(3, map[string]value.Value{"overpriced": over("OIL")})
	// Edge-triggered: XYZ enters at 1, OIL at 2; no re-alerts.
	if len(seen) != 2 || seen[0] != "XYZ" || seen[1] != "OIL" {
		t.Fatalf("seen = %v", seen)
	}
}

func TestRuleInfo(t *testing.T) {
	e := newTestEngine(t, map[string]value.Value{"a": value.NewInt(0)})
	if err := e.AddTrigger("r", `@login(U) and previously item("a") > 0`, nil, WithScheduling(Manual)); err != nil {
		t.Fatal(err)
	}
	if err := e.AddConstraint("c", `item("a") >= 0`); err != nil {
		t.Fatal(err)
	}
	_ = e.Exec(1, map[string]value.Value{"a": value.NewInt(1)})
	info, ok := e.Rule("r")
	if !ok || !info.Temporal || info.Constraint || info.Scheduling != Manual {
		t.Fatalf("info = %+v", info)
	}
	if len(info.Parameters) != 1 || info.Parameters[0] != "U" {
		t.Fatalf("params = %v", info.Parameters)
	}
	if len(info.Events) != 1 || info.Events[0] != "login" {
		t.Fatalf("events = %v", info.Events)
	}
	if info.PendingStates == 0 {
		t.Fatal("manual rule should have pending states")
	}
	ci, ok := e.Rule("c")
	if !ok || !ci.Constraint {
		t.Fatalf("constraint info = %+v", ci)
	}
	if _, ok := e.Rule("zzz"); ok {
		t.Fatal("unknown rule should miss")
	}
}

// TestEventAtomsUnderAggregateConnective: event atoms nested under a
// connective inside an aggregate's sampling formula are part of the
// condition's footprint and of the relevance filter's event index. The old
// ptl.Walk offered the sampling formula without descending into it, so
// @u and @w below were invisible: the footprint listed s alone (the
// cluster registered no relay for u/w) and a Relevant rule slept through
// `emit @u`, catching up only at the next state that concerned it.
func TestEventAtomsUnderAggregateConnective(t *testing.T) {
	const cond = `sum(item("a"); @s; (@u or @w)) > 1`
	fp, err := ConditionFootprint(cond, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []EventUse{{Name: "s"}, {Name: "u"}, {Name: "w"}}
	if !reflect.DeepEqual(fp.Events, want) {
		t.Fatalf("footprint events = %v, want %v", fp.Events, want)
	}

	e := newTestEngine(t, map[string]value.Value{"a": value.NewInt(2)})
	if err := e.AddTrigger("r", cond, nil, WithScheduling(Relevant)); err != nil {
		t.Fatal(err)
	}
	pending := func() int {
		info, ok := e.Rule("r")
		if !ok {
			t.Fatal("rule r vanished")
		}
		return info.PendingStates
	}
	if err := e.Emit(1, event.New("s")); err != nil {
		t.Fatal(err)
	}
	if err := e.Emit(2, event.New("noise")); err != nil {
		t.Fatal(err)
	}
	if got := pending(); got != 1 {
		t.Fatalf("after an unrelated event the rule has %d pending states, want 1 (not woken)", got)
	}
	if err := e.Emit(3, event.New("u")); err != nil {
		t.Fatal(err)
	}
	if got := pending(); got != 0 {
		t.Fatalf("after emit @u the rule has %d pending states, want 0 (woken by a sampling event)", got)
	}
	if fs := e.Firings(); len(fs) != 1 || fs[0].Time != 3 {
		t.Fatalf("firings = %v, want one at 3 (sum 2 > 1 once @u samples)", fs)
	}
}
