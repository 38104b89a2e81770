package adb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ptlactive/internal/core"
	"ptlactive/internal/value"
)

// indexCondPool extends parallel_test.go's condition mix with event-free
// database readers — the shapes the read-set index actually refines
// (quiescent memo replay) — alongside gated and exact ones.
var indexCondPool = []string{
	`item("a") > %d`,
	`item("a") + item("b") > %d`,
	`[x <- item("a")] (x > %d and item("b") < 55)`,
	`@ev%d and item("a") > 2`,
	`@ev%d and (item("a") > 3 or item("b") > 3)`,
	`not @ev%d and item("a") > 1`,
	`@ev%d or item("b") > 4`,
	`previously item("a") > %d`,
	`@ev%d since item("b") > 2`,
	`@pay%d(U) and U > 3`,
}

// randomIndexParams mirrors randomEngineParams but draws from
// indexCondPool, so runs are reproducible per seed across the
// index-enabled and index-disabled engines. With fixpoint it adds, after
// those draws, two pure temporal triggers on item a, Eager or Relevant:
// an edge (a rose above c), false at every fixpoint, and a level (a stayed
// above c), which fires at every state of a true fixpoint. Both take the
// wake loop's fixpoint step whenever a state leaves a alone.
func randomIndexParams(seed int64, rules int, withConstraints, fixpoint bool) engineParams {
	rng := rand.New(rand.NewSource(seed))
	p := engineParams{
		a:               int64(rng.Intn(5)),
		b:               int64(rng.Intn(5)),
		withConstraints: withConstraints,
	}
	scheds := []Scheduling{Eager, Relevant, Relevant, Relevant, Manual}
	for i := 0; i < rules; i++ {
		p.conds = append(p.conds, fmt.Sprintf(indexCondPool[rng.Intn(len(indexCondPool))], i))
		p.scheds = append(p.scheds, scheds[rng.Intn(len(scheds))])
	}
	if fixpoint {
		c := 10 + rng.Intn(40)
		for _, cond := range []string{`item("a") > %d and lasttime item("a") <= %d`, `item("a") > %d and lasttime item("a") > %d`} {
			p.conds = append(p.conds, fmt.Sprintf(cond, c, c))
			p.scheds = append(p.scheds, []Scheduling{Eager, Relevant}[rng.Intn(2)])
		}
	}
	return p
}

// evaluatorStates reads Steps() and the encoded state of the evaluator of
// every rule the indexed engine idx steps at every commit (its standing
// list and its resting triggers) from e, after settling the steps the wake
// loop credited and those counted while a rule rested.
func evaluatorStates(t *testing.T, idx, e *Engine) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, s := range idx.rules {
		if s.wake != wakeAlways && s.wake != wakeCommit && s.wake != wakeConstraint {
			continue
		}
		r := e.index[s.name]
		e.settle(r)
		enc, err := core.EncodeEvaluatorState(r.ev)
		if err != nil {
			t.Fatal(err)
		}
		out[r.name] = fmt.Sprintf("%d steps: %s", r.ev.(interface{ Steps() int }).Steps(), enc)
	}
	return out
}

// newEngine builds the indexed engine or, for the reference arm, the coarse
// one.
func newEngine(cfg Config, coarse bool) *Engine {
	if coarse {
		return NewCoarseEngine(cfg)
	}
	return NewEngine(cfg)
}

// ruleCursors snapshots every rule's evaluator position.
func ruleCursors(e *Engine) map[string]int {
	out := map[string]int{}
	for _, r := range e.rules {
		out[r.name] = e.cursorOf(r)
	}
	return out
}

// pendingStates reads every rule's PendingStates through the public
// accessor, the way a client sees cursors.
func pendingStates(t *testing.T, e *Engine) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, name := range e.RuleNames() {
		info, ok := e.Rule(name)
		if !ok {
			t.Fatalf("rule %s vanished", name)
		}
		out[name] = info.PendingStates
	}
	return out
}

// TestIndexedSweepEquivalence is the scheduling-index determinism
// property: over random rule sets and histories, the read-set indexed
// engine produces the identical firing sequence, final database, clock,
// cursors and execution log as the coarse Section-8 filter. EvalSteps is
// intentionally NOT compared between the two filters — skipping evaluations
// is the point of the index — but it is between the indexed engine and its
// durable twin.
//
// The histories are parkTraces (see parktrace_test.go), so they cross every
// way a rule enters or leaves the parked set — mid-trace registration,
// event-only and abort states between commits, a re-entrant action commit,
// Compact, a quiescent rule that fires, replays and stops — and on odd
// trials an observer that reads the firing log at every firing. On every
// trial a durable twin, checkpointed and restored mid-trace, must agree
// with the memory engine too.
func TestIndexedSweepEquivalence(t *testing.T) {
	trials := 12
	states := 150
	if testing.Short() {
		trials, states = 4, 60
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(7000 + trial)
		rules := 4 + trial%8
		withConstraints := trial%2 == 0
		tr := newParkTrace(seed, rules, states, withConstraints, trial%2 == 1, true)
		ref := tr.run(t, newEngine(tr.config(), true), nil)
		idx := tr.run(t, newEngine(tr.config(), false), nil)
		if sf, pf := ref.Firings(), idx.Firings(); !reflect.DeepEqual(sf, pf) {
			t.Fatalf("trial %d: firings diverge:\n coarse (%d): %v\n indexed (%d): %v",
				trial, len(sf), sf, len(pf), pf)
		}
		if ref.Now() != idx.Now() {
			t.Fatalf("trial %d: clocks diverge", trial)
		}
		if !ref.DB().Equal(idx.DB()) {
			t.Fatalf("trial %d: databases diverge", trial)
		}
		if rc, ic := ruleCursors(ref), ruleCursors(idx); !reflect.DeepEqual(rc, ic) {
			t.Fatalf("trial %d: cursors diverge: %v vs %v", trial, rc, ic)
		}
		want := evaluatorStates(t, idx, ref)
		if got := evaluatorStates(t, idx, idx); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: evaluators diverge:\n coarse:  %v\n indexed: %v", trial, want, got)
		}
		if rp, ip := pendingStates(t, ref), pendingStates(t, idx); !reflect.DeepEqual(rp, ip) {
			t.Fatalf("trial %d: pending states diverge: %v vs %v", trial, rp, ip)
		}
		for _, name := range ref.RuleNames() {
			if re, ie := ref.Executions(name, ref.Now()+1), idx.Executions(name, idx.Now()+1); !reflect.DeepEqual(re, ie) {
				t.Fatalf("trial %d: executions diverge for %s", trial, name)
			}
		}
		steps := idx.EvalSteps()
		dur, _, _ := tr.runDurable(t, t.TempDir())
		if !firingsEqual(ref.Firings(), dur.Firings()) {
			t.Fatalf("trial %d: restored durable twin's firings diverge (%d vs %d)", trial, len(ref.Firings()), len(dur.Firings()))
		}
		if got := dur.EvalSteps(); got != steps {
			t.Fatalf("trial %d: durable twin spent %d eval steps, memory engine %d", trial, got, steps)
		}
		if rp, dp := pendingStates(t, ref), pendingStates(t, dur); !reflect.DeepEqual(rp, dp) {
			t.Fatalf("trial %d: durable twin's pending states diverge: %v vs %v", trial, rp, dp)
		}
		if got := evaluatorStates(t, idx, dur); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: restored durable twin's evaluators diverge:\n coarse:  %v\n durable: %v", trial, want, got)
		}
		if ref.Now() != dur.Now() || !ref.DB().Equal(dur.DB()) {
			t.Fatalf("trial %d: durable twin's clock or database diverges", trial)
		}
		if err := dur.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIndexedSweepSkipsSteps pins the perf claim behind the equivalence
// property: on a sparse-touch workload the indexed engine spends strictly
// fewer evaluator steps than the coarse filter.
func TestIndexedSweepSkipsSteps(t *testing.T) {
	run := func(noIndex bool) (int64, []Firing) {
		initial := map[string]value.Value{}
		for i := 0; i < 40; i++ {
			initial[fmt.Sprintf("i%d", i)] = value.NewInt(0)
		}
		e := newEngine(Config{Initial: initial}, noIndex)
		for i := 0; i < 40; i++ {
			cond := fmt.Sprintf(`item("i%d") > 10`, i)
			if err := e.AddTrigger(fmt.Sprintf("r%d", i), cond, nil, WithScheduling(Relevant)); err != nil {
				t.Fatal(err)
			}
		}
		for c := 0; c < 30; c++ {
			upd := map[string]value.Value{
				fmt.Sprintf("i%d", c%40): value.NewInt(int64(5 + 10*(c%2))),
			}
			if err := e.Exec(int64(c+1), upd); err != nil {
				t.Fatal(err)
			}
		}
		return e.EvalSteps(), e.Firings()
	}
	idxSteps, idxF := run(false)
	coarseSteps, coarseF := run(true)
	if !reflect.DeepEqual(idxF, coarseF) {
		t.Fatalf("firings diverge: %v vs %v", idxF, coarseF)
	}
	if idxSteps >= coarseSteps {
		t.Fatalf("index did not skip work: %d steps vs coarse %d", idxSteps, coarseSteps)
	}
}

// TestQuiescentMemoReplayFirings checks the memo actually replays firing
// outcomes: a quiescent rule that fired keeps firing (with the new
// timestamps) across commits that never touch its read set, identically
// to re-evaluation.
func TestQuiescentMemoReplayFirings(t *testing.T) {
	mk := func(noIndex bool) *Engine {
		e := newEngine(Config{Initial: map[string]value.Value{
			"a": value.NewInt(0), "other": value.NewInt(0),
		}}, noIndex)
		if err := e.AddTrigger("watch", `item("a") > 10`, nil, WithScheduling(Relevant)); err != nil {
			t.Fatal(err)
		}
		// Fire the condition once, then commit only to the unrelated item.
		if err := e.Exec(1, map[string]value.Value{"a": value.NewInt(20)}); err != nil {
			t.Fatal(err)
		}
		for ts := int64(2); ts <= 6; ts++ {
			if err := e.Exec(ts, map[string]value.Value{"other": value.NewInt(ts)}); err != nil {
				t.Fatal(err)
			}
		}
		// Drop it back below threshold; replay must stop after this commit.
		if err := e.Exec(7, map[string]value.Value{"a": value.NewInt(0)}); err != nil {
			t.Fatal(err)
		}
		for ts := int64(8); ts <= 10; ts++ {
			if err := e.Exec(ts, map[string]value.Value{"other": value.NewInt(ts)}); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	idx, coarse := mk(false), mk(true)
	if !reflect.DeepEqual(idx.Firings(), coarse.Firings()) {
		t.Fatalf("firings diverge:\n indexed: %v\n coarse:  %v", idx.Firings(), coarse.Firings())
	}
	// One firing per commit while a > 10: states 1..6.
	if got := len(idx.Firings()); got != 6 {
		t.Fatalf("want 6 firings (states 1..6), got %d: %v", got, idx.Firings())
	}
	if idx.EvalSteps() >= coarse.EvalSteps() {
		t.Fatalf("memo replay did not save steps: %d vs %d", idx.EvalSteps(), coarse.EvalSteps())
	}
}
