package adb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ptlactive/internal/core"
	"ptlactive/internal/event"
	"ptlactive/internal/ptlgen"
	"ptlactive/internal/value"
)

// firingSet canonicalizes firings as "rule@time" strings, ignoring
// recognition order (scheduling modes may delay recognition).
func firingSet(fs []Firing) map[string]int {
	out := map[string]int{}
	for _, f := range fs {
		out[fmt.Sprintf("%s@%d", f.Rule, f.Time)]++
	}
	return out
}

// TestSchedulingEquivalenceTemporal: for temporal rules, Eager, Relevant
// and Manual+Flush recognize exactly the same firing set — delayed, never
// lost (Section 8's guarantee): the flushed Manual backlog matches the
// eager run.
func TestSchedulingEquivalenceTemporal(t *testing.T) {
	conds := []string{
		`@e0 since @e1(1)`,
		`previously <= 5 (@e2(1, 2) and item("a") > 3)`,
		`(not @e0) since (@e1(0) and lasttime item("b") >= 0)`,
	}
	for seed := 0; seed < 30; seed++ {
		rng := rand.New(rand.NewSource(int64(4000 + seed)))
		h := ptlgen.History(rng, 40)
		results := make([]map[string]int, 0, 3)
		for _, sched := range []Scheduling{Eager, Relevant, Manual} {
			e := NewEngine(Config{Initial: map[string]value.Value{
				"a": value.NewInt(5), "b": value.NewInt(0), "c": value.NewInt(0),
			}})
			for i, c := range conds {
				if err := e.AddTrigger(fmt.Sprintf("r%d", i), c, nil, WithScheduling(sched)); err != nil {
					t.Fatal(err)
				}
			}
			// Replay the generated history through the engine.
			for i := 1; i < h.Len(); i++ {
				st := h.At(i)
				evs := st.Events.Events()
				if st.Events.CommitCount() > 0 {
					tx := e.Begin()
					for _, name := range st.DB.Items() {
						v, _ := st.DB.Get(name)
						tx.Set(name, v)
					}
					for _, ev := range evs {
						if ev.Name != event.TransactionCommit {
							tx.Emit(ev)
						}
					}
					if err := tx.Commit(st.TS); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := e.Emit(st.TS, evs...); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			results = append(results, firingSet(e.Firings()))
		}
		for m := 1; m < len(results); m++ {
			if len(results[m]) != len(results[0]) {
				t.Fatalf("seed %d: scheduling %d firing set size differs: %v vs %v",
					seed, m, results[0], results[m])
			}
			for k, v := range results[0] {
				if results[m][k] != v {
					t.Fatalf("seed %d: scheduling %d differs at %s: %d vs %d",
						seed, m, k, v, results[m][k])
				}
			}
		}
	}
}

// TestCompact: compaction drops fully-processed states, preserves firing
// indices as absolute values, and does not disturb subsequent evaluation.
func TestCompact(t *testing.T) {
	e := NewEngine(Config{Initial: map[string]value.Value{"a": value.NewInt(0)}})
	if err := e.AddTrigger("r", `previously <= 3 (item("a") > 8)`, nil); err != nil {
		t.Fatal(err)
	}
	for ts := int64(1); ts <= 20; ts++ {
		v := int64(ts % 10)
		if err := e.Exec(ts, map[string]value.Value{"a": value.NewInt(v)}); err != nil {
			t.Fatal(err)
		}
	}
	before := e.History().Len()
	dropped := e.Compact()
	if dropped == 0 {
		t.Fatal("nothing compacted")
	}
	if e.History().Len() != before-dropped {
		t.Fatalf("history len %d after dropping %d from %d", e.History().Len(), dropped, before)
	}
	if e.BaseIndex() != dropped {
		t.Fatalf("BaseIndex = %d, want %d", e.BaseIndex(), dropped)
	}
	preFirings := len(e.Firings())
	// Continue running; firings must keep absolute indices and the rule
	// must still fire on the bounded condition.
	for ts := int64(21); ts <= 40; ts++ {
		v := int64(ts % 10)
		if err := e.Exec(ts, map[string]value.Value{"a": value.NewInt(v)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.Firings()) <= preFirings {
		t.Fatal("no firings after compaction")
	}
	last := e.Firings()[len(e.Firings())-1]
	if last.StateIndex < e.BaseIndex() {
		t.Fatalf("firing index %d below base %d", last.StateIndex, e.BaseIndex())
	}
	// Second compaction also works.
	if e.Compact() == 0 {
		t.Fatal("second compaction dropped nothing")
	}
	// An equivalent engine without compaction fires at the same times.
	ref := NewEngine(Config{Initial: map[string]value.Value{"a": value.NewInt(0)}})
	_ = ref.AddTrigger("r", `previously <= 3 (item("a") > 8)`, nil)
	for ts := int64(1); ts <= 40; ts++ {
		v := int64(ts % 10)
		if err := ref.Exec(ts, map[string]value.Value{"a": value.NewInt(v)}); err != nil {
			t.Fatal(err)
		}
	}
	a, b := firingSet(e.Firings()), firingSet(ref.Firings())
	if len(a) != len(b) {
		t.Fatalf("compacted engine diverged: %v vs %v", a, b)
	}
	for k, v := range b {
		if a[k] != v {
			t.Fatalf("compacted engine diverged at %s", k)
		}
	}
}

// TestCompactWithLaggingRule: a Manual rule pins the compaction horizon.
func TestCompactWithLaggingRule(t *testing.T) {
	e := NewEngine(Config{Initial: map[string]value.Value{"a": value.NewInt(0)}})
	if err := e.AddTrigger("lag", `previously item("a") = 7`, nil, WithScheduling(Manual)); err != nil {
		t.Fatal(err)
	}
	for ts := int64(1); ts <= 10; ts++ {
		if err := e.Exec(ts, map[string]value.Value{"a": value.NewInt(ts % 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if d := e.Compact(); d != 0 {
		t.Fatalf("compaction dropped %d states a manual rule still needs", d)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.Compact() == 0 {
		t.Fatal("after flush the prefix should be reclaimable")
	}
	// The lagging rule recognized a=7 (at ts 7) despite never being
	// evaluated before the flush.
	if len(e.Firings()) == 0 {
		t.Fatal("manual rule lost its firing")
	}
}

// TestFastPathMatchesGeneralInEngine: the engine's automatic fast-path
// selection for decomposable rules never changes observable behavior.
func TestFastPathMatchesGeneralInEngine(t *testing.T) {
	run := func(general bool) []Firing {
		e := NewEngine(Config{Initial: map[string]value.Value{"a": value.NewInt(0)}})
		conds := []string{
			`@e0 since @e1(1)`,
			`previously <= 4 (item("a") > 6)`,
			`item("a") > 3 and lasttime item("a") <= 3`,
			// Parameters: off temporal operators, then across them in = and ≠.
			`@e1(U) and lasttime @e0`,
			`@e2(U, V) and U >= V and item("a") > 2`,
			`(not @e2(U, U)) since (@e1(U) and item("a") > 1)`,
			`lasttime (@e1(U) or U = 2) and not @e2(0, U)`,
			// No atom binds U in the right disjunct: the general evaluator's.
			`@e1(U) or item("a") > 3`,
		}
		for i, c := range conds {
			if err := e.AddTrigger(fmt.Sprintf("r%d", i), c, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.AddConstraint("cap", `item("a") <= 9`); err != nil {
			t.Fatal(err)
		}
		for _, r := range e.rules {
			if _, fast := r.ev.(*core.FastEvaluator); !r.constraint && fast == (r.name == "r7") {
				t.Fatalf("rule %s compiled to %T", r.name, r.ev)
			}
		}
		if general {
			// Swap every rule onto the general constraint-graph evaluator,
			// before any state has been stepped.
			for _, r := range e.rules {
				ev, err := core.New(r.info, e.reg, e)
				if err != nil {
					t.Fatal(err)
				}
				r.ev = ev
			}
		}
		rng := rand.New(rand.NewSource(77))
		arg := func() value.Value { return value.NewInt(int64(rng.Intn(3))) }
		for ts := int64(1); ts <= 200; ts++ {
			if rng.Intn(2) == 0 {
				var evs []event.Event
				switch rng.Intn(3) {
				case 0:
					evs = append(evs, event.New("e0"))
				case 1:
					evs = append(evs, event.New("e1", arg()))
				default:
					evs = append(evs, event.New("e2", arg(), arg()), event.New("e1", arg()))
				}
				if err := e.Emit(ts, evs...); err != nil {
					t.Fatal(err)
				}
				continue
			}
			// Some commits violate the constraint and abort; both engines
			// must agree on which.
			_ = e.Exec(ts, map[string]value.Value{"a": value.NewInt(int64(rng.Intn(12)))})
		}
		return e.Firings()
	}
	want := run(true)
	if len(want) == 0 {
		t.Fatal("no firings")
	}
	fired := map[string]bool{}
	for _, f := range want {
		fired[f.Rule] = true
	}
	if len(fired) != 8 {
		t.Fatalf("only %v fired", fired)
	}
	if got := run(false); !reflect.DeepEqual(got, want) {
		t.Fatalf("fast path diverged from the general evaluator:\n got %v\nwant %v", got, want)
	}
}
