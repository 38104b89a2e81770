package adb

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"ptlactive/internal/value"
)

// commitAllocs measures allocations per commit on BenchmarkCommit's
// workload — a two-item transaction against eight triggers and one
// constraint — over a database of the given size. Workers is pinned to 1:
// with more, every sweep and constraint check spawns its pool goroutines
// (about three allocations per commit at GOMAXPROCS 2, five at 4), which is
// the pool's cost and not the commit path's.
func commitAllocs(t *testing.T, items int) float64 {
	t.Helper()
	initial := make(map[string]value.Value, items+3)
	for _, name := range []string{"a", "b", "c"} {
		initial[name] = value.NewInt(0)
	}
	for i := 0; i < items; i++ {
		initial[fmt.Sprintf("pad%06d", i)] = value.NewInt(int64(i))
	}
	e := NewEngine(Config{Initial: initial, Workers: 1})
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
// (pooled key scratch, owned event sets, structurally-shared DBState), and
// the ceiling keeps those wins from rotting silently.
func TestCommitAllocs(t *testing.T) {
	if got := commitAllocs(t, 0); got > 44 {
		t.Fatalf("commit path: %.1f allocs/op, ceiling 44", got)
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

// sweepCost measures allocations and bytes per commit, at Workers: 1, of a
// stream that touches one rule's item per commit, with the given number of
// rules registered over a database of fixed size. shape selects quiescent
// rules (`item(k) > c`, never firing), event-gated ones (a commit without
// their event only moves their cursor), exact temporal ones (every rule
// steps at every commit, all but one from its query cache) or general ones
// (the same, on the constraint-graph evaluator: an assignment crosses the
// temporal operator).
func sweepCost(t *testing.T, rules int, shape string) (allocs, bytes float64) {
	t.Helper()
	const items = 2000
	initial := make(map[string]value.Value, items)
	for i := 0; i < items; i++ {
		initial[fmt.Sprintf("k%04d", i)] = value.NewInt(0)
	}
	e := NewEngine(Config{Initial: initial, Workers: 1})
	for i := 0; i < rules; i++ {
		cond := fmt.Sprintf(`item("k%04d") > 1000000`, i)
		switch shape {
		case "gated":
			cond = fmt.Sprintf(`@ev%d and item("k%04d") > 1000000`, i, i)
		case "temporal":
			cond = fmt.Sprintf(`item("k%04d") > 1000000 and lasttime item("k%04d") <= 1000000`, i, i)
		case "general":
			cond = fmt.Sprintf(`[x <- item("k%04d")] lasttime item("k%04d") < x`, i, i)
		}
		if err := e.AddTrigger(fmt.Sprintf("r%04d", i), cond, nil, WithScheduling(Relevant)); err != nil {
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
// general rule's: its interner finds every term and node it builds.
func TestSweepNoRuleTerm(t *testing.T) {
	for _, shape := range []string{"quiescent", "gated", "temporal", "general"} {
		smallA, smallB := sweepCost(t, 20, shape)
		bigA, bigB := sweepCost(t, 2000, shape)
		t.Logf("%s: %.1f allocs, %.0f B per commit at 20 rules; %.1f allocs, %.0f B at 2000", shape, smallA, smallB, bigA, bigB)
		if bigA > smallA+8 || bigB > smallB+1024 || (shape == "temporal" || shape == "general") && bigA > smallA+0.5 {
			t.Fatalf("%s: commit cost grows with the rule table: %.1f allocs/%.0f B at 20 rules, %.1f allocs/%.0f B at 2000",
				shape, smallA, smallB, bigA, bigB)
		}
	}
}

// constraintCheckAllocs measures allocations per commit, at Workers: 1, of
// a stream of one-item transactions against the given number of fast-path
// temporal constraints, one per item (the constraint-gate shape). Every
// commit touches one constrained item among the first twenty, which carry a
// constraint at either table size.
func constraintCheckAllocs(t *testing.T, constraints int) float64 {
	t.Helper()
	const items = 300
	key := func(i int64) string { return fmt.Sprintf("k%04d", i) }
	initial := make(map[string]value.Value, items)
	for i := int64(0); i < items; i++ {
		initial[key(i)] = value.NewInt(500)
	}
	e := NewEngine(Config{Initial: initial, Workers: 1})
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
