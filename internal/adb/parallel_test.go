package adb

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/value"
)

// condPool is a mix of condition shapes exercising the fast path, the
// general constraint-graph path, temporal operators, free parameters and
// database reads; %d is the rule index, keeping event gates distinct.
var condPool = []string{
	`@ev%d and item("a") > 2`,
	`@ev%d since item("a") > 4`,
	`lasttime @ev%d`,
	`previously (@ev%d and item("b") > 1)`,
	`@pay%d(U) and U > 3`,
	`[x <- item("a")] (@ev%d and x >= 0 and item("b") < 100)`,
	`item("a") + item("b") > 6 and @ev%d`,
}

// engineParams is a deterministically generated engine setup: the initial
// database plus rule conditions and schedulings. Deriving it from the seed
// separately from engine construction lets the recovery tests register the
// identical rule set on a memory reference and on a durable engine.
type engineParams struct {
	a, b            int64
	conds           []string
	scheds          []Scheduling
	withConstraints bool
	// lastGate, when set, is a third constraint: a pure temporal one, which
	// rests at a false fixpoint between the commits that write its item.
	// clockGate, when set, is a fourth, which reads the clock through a time
	// bound: it replays until its deadline, and rests once it has none.
	lastGate, clockGate string
}

// randomEngineParams consumes the seed's randomness in the exact order the
// historical buildRandomEngine did, so the rule set for a given seed is
// stable across the refactor.
func randomEngineParams(seed int64, rules int, withConstraints bool) engineParams {
	rng := rand.New(rand.NewSource(seed))
	p := engineParams{
		a:               int64(rng.Intn(5)),
		b:               int64(rng.Intn(5)),
		withConstraints: withConstraints,
	}
	scheds := []Scheduling{Eager, Relevant, Manual}
	for i := 0; i < rules; i++ {
		p.conds = append(p.conds, fmt.Sprintf(condPool[rng.Intn(len(condPool))], i))
		p.scheds = append(p.scheds, scheds[rng.Intn(len(scheds))])
	}
	return p
}

// config builds the engine configuration for this parameter set.
func (p engineParams) config() Config {
	return Config{
		Initial: map[string]value.Value{
			"a": value.NewInt(p.a),
			"b": value.NewInt(p.b),
		},
	}
}

// register adds the parameter set's rules and constraints to an engine.
func (p engineParams) register(t *testing.T, e *Engine) {
	t.Helper()
	for i, cond := range p.conds {
		if err := e.AddTrigger(fmt.Sprintf("r%03d", i), cond, nil, WithScheduling(p.scheds[i])); err != nil {
			t.Fatalf("AddTrigger: %v", err)
		}
	}
	if p.withConstraints {
		if err := e.AddConstraint("c_a_low", `not (item("a") > 50)`); err != nil {
			t.Fatalf("AddConstraint: %v", err)
		}
		if err := e.AddConstraint("c_b_low", `not (item("b") > 50)`); err != nil {
			t.Fatalf("AddConstraint: %v", err)
		}
		if p.lastGate != "" {
			if err := e.AddConstraint("c_b_drop", p.lastGate); err != nil {
				t.Fatalf("AddConstraint: %v", err)
			}
		}
		if p.clockGate != "" {
			if err := e.AddConstraint("c_b_clock", p.clockGate); err != nil {
				t.Fatalf("AddConstraint: %v", err)
			}
		}
	}
}

// buildRandomEngine registers R random rules (and optionally constraints)
// on a fresh engine; the rule set depends only on seed, so two calls get
// identical rule sets.
func buildRandomEngine(t *testing.T, seed int64, rules int, withConstraints bool) *Engine {
	t.Helper()
	p := randomEngineParams(seed, rules, withConstraints)
	e := NewEngine(p.config())
	p.register(t, e)
	return e
}

// engineOp is one pre-generated external operation; materializing the
// random mix as a list lets the crash tests cut it at every boundary.
type engineOp struct {
	kind   int
	ts     int64
	events []event.Event
	upd    map[string]value.Value
}

const (
	opEmit = iota
	opExec
	opAbort
	opFlush
)

// randomOps generates the operation mix, consuming the seed's randomness
// in the exact order the historical driveRandomHistory did.
func randomOps(seed int64, rules, states int, start int64) []engineOp {
	rng := rand.New(rand.NewSource(seed))
	ts := start
	var ops []engineOp
	for s := 0; s < states; s++ {
		ts += int64(1 + rng.Intn(3))
		switch rng.Intn(10) {
		case 0, 1, 2: // event-only state hitting some rule's gate
			i := rng.Intn(rules)
			var ev event.Event
			if rng.Intn(2) == 0 {
				ev = event.New(fmt.Sprintf("ev%d", i))
			} else {
				ev = event.New(fmt.Sprintf("pay%d", i), value.NewInt(int64(rng.Intn(8))))
			}
			ops = append(ops, engineOp{kind: opEmit, ts: ts, events: []event.Event{ev}})
		case 3: // noise event no rule listens to
			ops = append(ops, engineOp{kind: opEmit, ts: ts, events: []event.Event{event.New("noise")}})
		case 4, 5, 6, 7: // transaction updating the database
			upd := map[string]value.Value{}
			if rng.Intn(2) == 0 {
				upd["a"] = value.NewInt(int64(rng.Intn(60)))
			}
			if rng.Intn(2) == 0 {
				upd["b"] = value.NewInt(int64(rng.Intn(60)))
			}
			ops = append(ops, engineOp{
				kind:   opExec,
				ts:     ts,
				upd:    upd,
				events: []event.Event{event.New(fmt.Sprintf("ev%d", rng.Intn(rules)))},
			})
		case 8: // explicit abort
			ops = append(ops, engineOp{kind: opAbort, ts: ts})
		case 9: // batched invocation of the temporal component
			ops = append(ops, engineOp{kind: opFlush})
		}
	}
	ops = append(ops, engineOp{kind: opFlush})
	return ops
}

// applyOp runs one operation, returning the violated constraint's name
// when the operation was a constraint-aborted commit ("" otherwise).
func applyOp(t *testing.T, e *Engine, op engineOp) string {
	t.Helper()
	switch op.kind {
	case opEmit:
		if err := e.Emit(op.ts, op.events...); err != nil {
			t.Fatalf("Emit: %v", err)
		}
	case opExec:
		err := e.Exec(op.ts, op.upd, op.events...)
		var ce *ConstraintError
		if errors.As(err, &ce) {
			return ce.Constraint
		}
		if err != nil {
			t.Fatalf("Exec: %v", err)
		}
	case opAbort:
		tx := e.Begin()
		tx.Set("a", value.NewInt(99))
		if err := tx.Abort(op.ts); err != nil {
			t.Fatalf("Abort: %v", err)
		}
	case opFlush:
		if err := e.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	return ""
}

// driveRandomHistory runs an identical random operation mix (emits,
// commits, aborts, flushes) against the engine; identical seeds produce
// identical histories.
func driveRandomHistory(t *testing.T, e *Engine, seed int64, rules, states int) {
	t.Helper()
	for _, op := range randomOps(seed, rules, states, e.Now()) {
		applyOp(t, e, op)
	}
}

// startReaders calls every reader accessor from n goroutines in a loop
// until the returned stop function is called; stop waits for them.
func startReaders(e *Engine, n int) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				_ = e.Firings()
				_, _ = e.ItemAsOf("a", e.Now())
				_ = e.EvalSteps()
				_ = e.DB()
				// Triggers and constraints alike: a resting one's Rule reads
				// its pending states through the shared cursor.
				if names := e.RuleNames(); len(names) > 0 {
					name := names[i%len(names)]
					_, _ = e.Rule(name)
					_ = e.Executions(name, e.Now())
				}
				_ = e.BaseIndex()
				runtime.Gosched()
			}
		}(g)
	}
	return func() {
		close(done)
		wg.Wait()
	}
}

// TestParallelFiringEquivalence: readers running beside the mutator change
// nothing it computes. Over random rule sets and random histories, an engine
// driven while four goroutines call the reader accessors produces the
// identical firing sequence (names, bindings, timestamps, state indices,
// order), the same step counts and the same final database as one driven
// alone.
func TestParallelFiringEquivalence(t *testing.T) {
	trials := 12
	states := 120
	if testing.Short() {
		trials, states = 4, 60
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(1000 + trial)
		rules := 3 + trial%9
		withConstraints := trial%2 == 0
		alone := buildRandomEngine(t, seed, rules, withConstraints)
		read := buildRandomEngine(t, seed, rules, withConstraints)
		driveRandomHistory(t, alone, seed*31, rules, states)
		stop := startReaders(read, 4)
		driveRandomHistory(t, read, seed*31, rules, states)
		stop()

		af, rf := alone.Firings(), read.Firings()
		if !reflect.DeepEqual(af, rf) {
			t.Fatalf("trial %d: firing sequences diverge:\n  alone (%d): %v\n  read  (%d): %v",
				trial, len(af), af, len(rf), rf)
		}
		if an, rn := alone.Now(), read.Now(); an != rn {
			t.Fatalf("trial %d: clocks diverge: %d vs %d", trial, an, rn)
		}
		if as, rs := alone.EvalSteps(), read.EvalSteps(); as != rs {
			t.Fatalf("trial %d: eval step counts diverge: %d vs %d", trial, as, rs)
		}
		if !alone.DB().Equal(read.DB()) {
			t.Fatalf("trial %d: final databases diverge: %v vs %v", trial, alone.DB(), read.DB())
		}
	}
}

// TestParallelConstraintAbortOrder checks that when several constraints
// reject the same commit, the reported violation is the first one in rule
// registration order.
func TestParallelConstraintAbortOrder(t *testing.T) {
	e := NewEngine(Config{Initial: map[string]value.Value{"a": value.NewInt(0)}})
	// c0 holds; c1..c7 are all violated by the same update.
	if err := e.AddConstraint("c0", `not (item("a") < 0)`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 8; i++ {
		if err := e.AddConstraint(fmt.Sprintf("c%d", i), `not (item("a") > 10)`); err != nil {
			t.Fatal(err)
		}
	}
	err := e.Exec(1, map[string]value.Value{"a": value.NewInt(50)})
	var ce *ConstraintError
	if !errors.As(err, &ce) {
		t.Fatalf("want constraint violation, got %v", err)
	}
	if ce.Constraint != "c1" {
		t.Fatalf("violation attributed to %s, want c1 (first in rule order)", ce.Constraint)
	}
}

// TestRejectedCommitChargesEveryConstraint: a rejected commit steps every
// constraint once, the ones after the violator included, so the persisted
// step counter does not depend on which constraint rejected. Constraint ci
// forbids a = i: a commit of a = 0 is rejected by the first of six, a = 5 by
// the last, and each costs 2n steps — n in the check, n on the abort state
// the rejection appends.
func TestRejectedCommitChargesEveryConstraint(t *testing.T) {
	const n = 6
	e := NewEngine(Config{Initial: map[string]value.Value{"a": value.NewInt(9)}})
	for i := 0; i < n; i++ {
		if err := e.AddConstraint(fmt.Sprintf("c%d", i), fmt.Sprintf(`not (item("a") = %d)`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Exec(1, map[string]value.Value{"a": value.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	for ts, a := range []int64{0, n - 1} {
		before := e.EvalSteps()
		var ce *ConstraintError
		if err := e.Exec(int64(ts+2), map[string]value.Value{"a": value.NewInt(a)}); !errors.As(err, &ce) || ce.Constraint != fmt.Sprintf("c%d", a) {
			t.Fatalf("a = %d: want rejection by c%d, got %v", a, a, err)
		}
		if got := e.EvalSteps() - before; got != 2*n {
			t.Fatalf("a = %d: the rejected commit cost %d steps, want %d", a, got, 2*n)
		}
	}
}

// TestConcurrentReaderStress hammers the reader accessors from several
// goroutines while a single mutator runs emits, transactions and flushes;
// run under -race this is the regression test for the engine's
// concurrency model (readers may overlap one mutator).
func TestConcurrentReaderStress(t *testing.T) {
	e := NewEngine(Config{
		Initial: map[string]value.Value{"a": value.NewInt(1), "b": value.NewInt(2)},
	})
	for i := 0; i < 12; i++ {
		cond := fmt.Sprintf(condPool[i%len(condPool)], i)
		if err := e.AddTrigger(fmt.Sprintf("r%d", i), cond, nil, WithScheduling(Scheduling(i%3))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddConstraint("cap", `not (item("a") > 1000)`); err != nil {
		t.Fatal(err)
	}

	states := 120
	if testing.Short() {
		states = 40
	}
	stop := startReaders(e, 4)
	defer stop()
	rng := rand.New(rand.NewSource(99))
	ts := e.Now()
	for s := 0; s < states; s++ {
		ts += 2
		switch s % 4 {
		case 0:
			if err := e.Emit(ts, event.New(fmt.Sprintf("ev%d", rng.Intn(12)))); err != nil {
				t.Fatal(err)
			}
		case 1, 2:
			err := e.Exec(ts, map[string]value.Value{"a": value.NewInt(int64(rng.Intn(50)))})
			if err != nil && !errors.Is(err, ErrConstraintViolation) {
				t.Fatal(err)
			}
		case 3:
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestParallelPanicIsolationEquivalence composes the sandbox with the
// concurrency model: a rule whose action alternately panics and errors (and
// is eventually quarantined) rides along with the random rule set,
// constraints included, while readers call the accessors beside the
// mutator. The faulting rule must not perturb anything — with the chaos
// rule's own firings filtered out, the run is byte-identical to an engine
// that never had the rule — and the breaker trips and revives at the
// expected point.
func TestParallelPanicIsolationEquivalence(t *testing.T) {
	const seed, rules, states = 4242, 4, 40
	p := randomEngineParams(seed, rules, true)
	ops := randomOps(seed*31, rules, states, 0)

	// Baseline: the same random run without the chaos rule.
	base := NewEngine(p.config())
	p.register(t, base)
	var baseAborts []string
	for _, op := range ops {
		if name := applyOp(t, base, op); name != "" {
			baseAborts = append(baseAborts, name)
		}
	}

	cfg := p.config()
	cfg.MaxRuleFailures = 3
	e := NewEngine(cfg)
	p.register(t, e)
	// Registered after the random set, so the existing rules keep their
	// registration order. Gated on ev0, which the op mix emits routinely.
	calls := 0
	if err := e.AddTrigger("chaos", `@ev0`, func(ctx *ActionContext) error {
		calls++
		if calls%2 == 1 {
			panic(fmt.Sprintf("chaos %d", calls))
		}
		return fmt.Errorf("chaos %d", calls)
	}); err != nil {
		t.Fatal(err)
	}
	var aborts []string
	stop := startReaders(e, 4)
	for _, op := range ops {
		if name := applyOp(t, e, op); name != "" {
			aborts = append(aborts, name)
		}
	}
	stop()
	if calls == 0 {
		t.Fatal("chaos rule never fired; the property was not exercised")
	}

	// Isolation: dropping the chaos firings reproduces the baseline.
	var others []Firing
	for _, f := range e.Firings() {
		if f.Rule != "chaos" {
			others = append(others, f)
		}
	}
	if !firingsEqual(others, base.Firings()) {
		t.Fatalf("chaos rule perturbed other rules' firings:\n got %v\nwant %v", others, base.Firings())
	}
	if !e.DB().Equal(base.DB()) || e.Now() != base.Now() {
		t.Fatal("chaos rule perturbed the database or clock")
	}
	if !reflect.DeepEqual(aborts, baseAborts) {
		t.Fatalf("chaos rule perturbed constraint aborts: %v vs %v", aborts, baseAborts)
	}

	// The breaker trips after MaxRuleFailures and can be revived.
	h, ok := e.RuleHealth("chaos")
	if !ok || !h.Quarantined {
		t.Fatalf("chaos not quarantined: %+v", h)
	}
	if h.TotalFailures != 3 {
		t.Fatalf("chaos failed %d times, want exactly MaxRuleFailures=3 then suppression", h.TotalFailures)
	}
	// Failure 3 (odd) was a panic, so the recorded cause is the sandbox's.
	if !errors.Is(h.LastError, ErrActionPanic) {
		t.Fatalf("LastError = %v, want the recovered panic", h.LastError)
	}
	before := calls
	if err := e.ReviveRule("chaos"); err != nil {
		t.Fatal(err)
	}
	if err := e.Emit(e.Now()+1, event.New("ev0")); err != nil {
		t.Fatalf("Emit after revive: %v", err)
	}
	if calls != before+1 {
		t.Fatalf("revived action invoked %d times, want %d", calls, before+1)
	}
}
