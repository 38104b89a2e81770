package adb

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/value"
)

// commitAllocs measures allocations per commit on BenchmarkCommit's
// workload — a two-item transaction against eight triggers and one
// constraint — over a database of the given size.
func commitAllocs(t *testing.T, items int) float64 {
	t.Helper()
	initial := make(map[string]value.Value, items+3)
	for _, name := range []string{"a", "b", "c"} {
		initial[name] = value.NewInt(0)
	}
	for i := 0; i < items; i++ {
		initial[fmt.Sprintf("pad%06d", i)] = value.NewInt(int64(i))
	}
	e := NewEngine(Config{Initial: initial})
	names := []string{"a", "b", "c"}
	for i := 0; i < 8; i++ {
		if err := e.AddTrigger(fmt.Sprintf("watch%d", i), fmt.Sprintf("item(%q) > 1000000", names[i%3]), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddConstraint("cap", `item("a") < 1000000`); err != nil {
		t.Fatal(err)
	}
	ts := int64(0)
	var failed error
	got := testing.AllocsPerRun(500, func() {
		ts++
		if err := e.Exec(ts, map[string]value.Value{
			"a": value.NewInt(ts % 1000),
			"b": value.NewInt(ts % 777),
		}); err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	return got
}

// TestCommitAllocs is the allocation-regression gate for the commit hot
// path: BenchmarkCommit's workload sat at 44 allocs/op when the gate landed
// (pooled key scratch, owned event sets, structurally-shared DBState) and
// sits at 10 since the commit's events slice their arguments from one
// array; the ceiling keeps those wins from rotting silently.
func TestCommitAllocs(t *testing.T) {
	if got := commitAllocs(t, 0); got > 12 {
		t.Fatalf("commit path: %.1f allocs/op, ceiling 12", got)
	}
}

// TestCommitAllocsNoLinearTerm is the same gate without a magic number: a
// commit over 100k items may allocate only the persistent map's few extra
// path nodes over a commit over 1k items (depth grows with log n). An
// accidental return to whole-map copying in history.DBState, or any other
// per-item work on the commit path, costs thousands of allocations and
// fails here on every toolchain and core count.
func TestCommitAllocsNoLinearTerm(t *testing.T) {
	small, big := commitAllocs(t, 1000), commitAllocs(t, 100000)
	if big > small+32 {
		t.Fatalf("commit allocations grow with the database: %.1f at 1k items, %.1f at 100k", small, big)
	}
}

// sweepCost measures allocations and bytes per commit of a stream that
// touches one rule's item per commit, with the given number of rules
// registered over a database of fixed size. shape selects quiescent rules
// (`item(k) > c`, never firing), event-gated ones (a commit without their
// event only moves their cursor), exact temporal ones (every rule steps at
// every commit, all but one in the wake loop, at a fixpoint), general
// ones (the same, on the constraint-graph evaluator: an assignment crosses
// the temporal operator) or clock-only ones (Eager "more than doubled
// within 10", false at 0, which reads the clock through its time bound
// alone: every rule but the one the commit writes and the one whose
// deadline it reaches replays its rest record in the standing list).
func sweepCost(t *testing.T, rules int, shape string) (allocs, bytes float64) {
	t.Helper()
	const items = 2000
	initial := make(map[string]value.Value, items)
	for i := 0; i < items; i++ {
		initial[fmt.Sprintf("k%04d", i)] = value.NewInt(0)
	}
	e := NewEngine(Config{Initial: initial})
	for i := 0; i < rules; i++ {
		cond, sched := fmt.Sprintf(`item("k%04d") > 1000000`, i), Relevant
		switch shape {
		case "gated":
			cond = fmt.Sprintf(`@ev%d and item("k%04d") > 1000000`, i, i)
		case "temporal":
			cond = fmt.Sprintf(`item("k%04d") > 1000000 and lasttime item("k%04d") <= 1000000`, i, i)
		case "general":
			cond = fmt.Sprintf(`[x <- item("k%04d")] lasttime item("k%04d") < x`, i, i)
		case "clock":
			cond = fmt.Sprintf(`[t <- time] [x <- item("k%04d")] previously (item("k%04d") < 0.5 * x and time >= t - 10)`, i, i)
			sched = Eager
		}
		if err := e.AddTrigger(fmt.Sprintf("r%04d", i), cond, nil, WithScheduling(sched)); err != nil {
			t.Fatal(err)
		}
	}
	ts := int64(0)
	commit := func() {
		ts++
		// Items 0..19 carry a rule at either table size.
		if err := e.Exec(ts, map[string]value.Value{fmt.Sprintf("k%04d", ts%20): value.NewInt(ts % 1000)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		commit() // every rule parked, scratch at its working size
	}
	const n = 400
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		commit()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestSweepNoRuleTerm is the gate on the sweep's bookkeeping: what a commit
// allocates may not depend on how many rules are registered, only on how
// many it concerns. With the rule-table scan, 2,000 untouched rules cost
// ~47 KB of throwaway slices per commit; with wake lists and the parked
// cursor they cost nothing, so the 2,000-rule stream must stay within a
// small constant of the 20-rule one — for quiescent rules and for gated
// rules woken by the commit alone. Exact temporal rules do step, all 2,000
// of them, but a step over a state that left the rule's item alone is a few
// booleans and cached values: it must allocate nothing at all. Nor may a
// general rule's: its interner finds every term and node it builds. Nor a
// clock-only rule's replay, before its deadline, of a step that would only
// re-stamp its newest sample.
func TestSweepNoRuleTerm(t *testing.T) {
	for _, shape := range []string{"quiescent", "gated", "temporal", "general", "clock"} {
		smallA, smallB := sweepCost(t, 20, shape)
		bigA, bigB := sweepCost(t, 2000, shape)
		t.Logf("%s: %.1f allocs, %.0f B per commit at 20 rules; %.1f allocs, %.0f B at 2000", shape, smallA, smallB, bigA, bigB)
		if bigA > smallA+8 || bigB > smallB+1024 || shape != "quiescent" && shape != "gated" && bigA > smallA+0.5 {
			t.Fatalf("%s: commit cost grows with the rule table: %.1f allocs/%.0f B at 20 rules, %.1f allocs/%.0f B at 2000",
				shape, smallA, smallB, bigA, bigB)
		}
	}
}

// constraintCheckAllocs measures allocations per commit of a stream of
// one-item transactions against the given number of fast-path temporal
// constraints, one per item (the constraint-gate shape). Every commit
// touches one constrained item among the first twenty, which carry a
// constraint at either table size.
func constraintCheckAllocs(t *testing.T, constraints int) float64 {
	t.Helper()
	const items = 300
	key := func(i int64) string { return fmt.Sprintf("k%04d", i) }
	initial := make(map[string]value.Value, items)
	for i := int64(0); i < items; i++ {
		initial[key(i)] = value.NewInt(500)
	}
	e := NewEngine(Config{Initial: initial})
	for i := int64(0); i < int64(constraints); i++ {
		cond := fmt.Sprintf(`not (item(%q) < 100 and lasttime item(%q) > 900)`, key(i), key(i))
		if err := e.AddConstraint(fmt.Sprintf("nocrash_%03d", i), cond); err != nil {
			t.Fatal(err)
		}
	}
	ts := int64(0)
	var failed error
	got := testing.AllocsPerRun(400, func() {
		ts++
		if err := e.Exec(ts, map[string]value.Value{key(ts % 20): value.NewInt(200 + ts%500)}); err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	return got
}

// TestConstraintCheckAllocs is the gate that keeps the clone from coming
// back: constraints step in place over the tentative state, under the
// dbUnchanged hint wherever the transaction left their items alone, so a
// commit allocates for the constraint it touched and nothing for the other
// 299. Cloning an evaluator per constraint per commit cost nine
// allocations each.
func TestConstraintCheckAllocs(t *testing.T) {
	none, few, many := constraintCheckAllocs(t, 0), constraintCheckAllocs(t, 30), constraintCheckAllocs(t, 300)
	t.Logf("allocs per commit: %.1f without constraints, %.1f with 30, %.1f with 300", none, few, many)
	// Exactly as many — except under the race detector (raceSlack), where
	// sync.Pool drops items at random and AllocsPerRun truncates the mean, so
	// equal costs can land either side of an integer.
	if math.Abs(many-few) > raceSlack {
		t.Fatalf("commit allocations grow with the constraint table: %.1f at 30 constraints, %.1f at 300", few, many)
	}
	if many > none+8 {
		t.Fatalf("the constraint check allocates %.1f objects per commit over the %.1f of a commit without constraints (allowed: 8)", many-none, none)
	}
}

// TestNewEngineAllocsPerItem is the gate on construction: NewEngine
// allocates one treap node per initial item plus a constant, at 1k items as
// at 100k. The init record a log or a snapshot needs is encoded from that
// state when it is needed; a JSON copy of every item kept alongside it made
// two allocations per item.
func TestNewEngineAllocsPerItem(t *testing.T) {
	for _, items := range []int{1000, 100_000} {
		initial := make(map[string]value.Value, items)
		for i := 0; i < items; i++ {
			initial[fmt.Sprintf("item%06d", i)] = value.NewInt(int64(i))
		}
		runs := 200_000 / items
		got := testing.AllocsPerRun(runs, func() {
			NewEngine(Config{Initial: initial})
		}) / float64(items)
		t.Logf("%d items: %.3f allocations per item", items, got)
		if got > 1.05 {
			t.Fatalf("NewEngine over %d items: %.3f allocations per item, ceiling 1.05", items, got)
		}
	}
}

// TestActionlessFiringAllocs is the gate on firings of rules without an
// action, in the firing-stream workload's shape: four triggers
// `@tick(A, B) and A >= -i` fire on every Emit of a two-parameter tick.
// Such a firing is appended to the firing log and nothing else; queuing it
// as a pending action and copying it into an execution log cost 27
// allocations per Emit, and an Emit now makes at most 20.
func TestActionlessFiringAllocs(t *testing.T) {
	e := NewEngine(Config{})
	for i := 0; i < 4; i++ {
		if err := e.AddTrigger(fmt.Sprintf("stream%d", i), fmt.Sprintf("@tick(A, B) and A >= %d", -i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// The events are built beforehand: the gate counts the engine's
	// allocations, not the caller's. AllocsPerRun makes one warm-up call.
	const runs = 500
	ticks := make([]event.Event, runs+1)
	for i := range ticks {
		ticks[i] = event.New("tick", value.NewInt(int64(i)), value.NewInt(int64(i%7)))
	}
	ts := int64(0)
	var failed error
	got := testing.AllocsPerRun(runs, func() {
		if err := e.Emit(ts+1, ticks[ts]); err != nil {
			failed = err
		}
		ts++
	})
	if failed != nil {
		t.Fatal(failed)
	}
	if n := len(e.Firings()); n != 4*(runs+1) {
		t.Fatalf("%d firings, want 4 per Emit", n)
	}
	t.Logf("four action-less firings: %.1f allocs per Emit", got)
	if got > 20 {
		t.Fatalf("four action-less firings: %.1f allocs per Emit, ceiling 20", got)
	}
}

// TestFiringLogBytesPerFiring is the gate on the firing log's size: on
// firing-stream's shape — four action-less two-parameter triggers — the
// engine's live heap grows by at most 160 B per firing once the history
// the rules consumed is compacted away. A log keeping each binding as a
// Go map costs about 570 B per firing; as a row of values 112 B.
func TestFiringLogBytesPerFiring(t *testing.T) {
	e := NewEngine(Config{})
	for i := 0; i < 4; i++ {
		if err := e.AddTrigger(fmt.Sprintf("stream%d", i), fmt.Sprintf("@tick(A, B) and A >= %d", -i), nil); err != nil {
			t.Fatal(err)
		}
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const emits = 5000
	before := live()
	for i := 1; i <= emits; i++ {
		if err := e.Emit(int64(i), event.New("tick", value.NewInt(int64(i)), value.NewInt(int64(i%7)))); err != nil {
			t.Fatal(err)
		}
	}
	e.Compact()
	after := live()
	n := e.FiringCount()
	if n != 4*emits {
		t.Fatalf("%d firings, want %d", n, 4*emits)
	}
	per := (float64(after) - float64(before)) / float64(n)
	runtime.KeepAlive(e)
	t.Logf("%d firings: %.0f B of live heap per firing", n, per)
	if per > 160 {
		t.Fatalf("%d firings: %.0f B of live heap per firing, ceiling 160", n, per)
	}
}
