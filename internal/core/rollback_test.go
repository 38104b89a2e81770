package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/history"
	"ptlactive/internal/ptl"
	"ptlactive/internal/ptlgen"
	"ptlactive/internal/value"
)

// rollbackConditions are hand-written shapes the generator rarely or never
// produces: free variables (bindings), a variable crossing a temporal
// operator under a time bound (the paper's worked example), an aggregate
// beside plain registers.
var rollbackConditions = []string{
	`@e1(X) and previously @e2(X, Y)`,
	`[t <- time] [x <- item("a")] previously (item("a") <= x - 2 and time >= t - 5)`,
	`(@e0 since @e1(1)) and lasttime (item("b") > 3) and sum(item("a"); @e0; @e1(0)) > 4`,
	`not (item("a") < 3 and lasttime item("a") > 6)`,
}

// TestRollbackLeavesNoTrace is the property the engine's constraint check
// rests on: Mark, a step over any state, Rollback — and the evaluator's
// encoded state is byte-equal to what it was, also when the discarded step
// failed half-way through its recurrences. From there it tracks a twin that
// never took a tentative step, result for result and error for error, with
// the subject stepping under the dbUnchanged hint wherever the real stream
// allows it (so a query value cached from the discarded state would show).
func TestRollbackLeavesNoTrace(t *testing.T) {
	reg := ptlgen.Registry()
	iters := 240
	if testing.Short() {
		iters = 60
	}
	for it := 0; it < iters; it++ {
		rng := rand.New(rand.NewSource(int64(4100 + it)))
		var f ptl.Formula
		switch {
		case it < len(rollbackConditions):
			f = mustParse(t, rollbackConditions[it])
		case it%3 == 0:
			f = ptlgen.FormulaWithAggregates(rng, 1+rng.Intn(3))
		default:
			f = ptlgen.Formula(rng, 1+rng.Intn(4))
		}
		info, err := ptl.Check(f, reg)
		if err != nil {
			t.Fatalf("seed %d: %v", it, err)
		}
		// Every other seed forces the general evaluator onto conditions the
		// fast path would take.
		compile := func() HintedEvaluator {
			var ev ConditionEvaluator
			if it%2 == 0 {
				ev, err = CompileAuto(info, reg, nil)
			} else {
				ev, err = New(info, reg, nil)
			}
			if err != nil {
				t.Fatalf("seed %d: compile %s: %v", it, f, err)
			}
			return ev.(HintedEvaluator)
		}
		subject, twin := compile(), compile()
		h, junk := ptlgen.History(rng, 12), ptlgen.History(rng, 12)
		for i := 0; i < h.Len(); i++ {
			st := h.At(i)
			for n := rng.Intn(3); n > 0; n-- {
				before, err := EncodeEvaluatorState(subject)
				if err != nil {
					t.Fatalf("seed %d: %v", it, err)
				}
				discard := junk.At(rng.Intn(junk.Len()))
				discard.TS = st.TS
				if rng.Intn(3) == 0 {
					// Strings where the conditions compare and add numbers:
					// most steps over this state fail part-way.
					discard.DB = discard.DB.With(ptlgen.Items[rng.Intn(len(ptlgen.Items))], value.NewString("poison"))
				}
				subject.Mark()
				_, _ = subject.StepResultHinted(discard, rng.Intn(2) == 0 && i > 0 && discard.DB.Equal(h.At(i-1).DB))
				subject.Rollback()
				after, err := EncodeEvaluatorState(subject)
				if err != nil {
					t.Fatalf("seed %d: %v", it, err)
				}
				if !bytes.Equal(before, after) {
					t.Fatalf("seed %d state %d: rollback left a trace\nformula: %s\nbefore: %s\nafter:  %s", it, i, f, before, after)
				}
			}
			want, werr := twin.StepResult(st)
			got, gerr := subject.StepResultHinted(st, i > 0 && st.DB.Equal(h.At(i-1).DB))
			if fmt.Sprint(werr) != fmt.Sprint(gerr) || !resultsEqual(want, got) {
				t.Fatalf("seed %d state %d: diverged from the undisturbed twin: want %+v (%v), got %+v (%v)\nformula: %s",
					it, i, want, werr, got, gerr, f)
			}
		}
	}
}

// TestRollbackClearsQueryCache pins the one thing Rollback does beyond
// restoring registers: the tentative step filled the query cache from a
// database that never was, and the next step arrives hinted.
func TestRollbackClearsQueryCache(t *testing.T) {
	reg := ptlgen.Registry()
	info, err := ptl.Check(mustParse(t, `item("a") > 5`), reg)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewFast(info, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	general, err := New(info, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	low := history.EmptyDB().With("a", value.NewInt(1))
	for _, ev := range []HintedEvaluator{fast, general} {
		if res, err := ev.StepResultHinted(history.SystemState{DB: low, Events: event.NewSet(), TS: 1}, false); err != nil || res.Fired {
			t.Fatalf("%T: state 1: fired=%t err=%v", ev, res.Fired, err)
		}
		ev.Mark()
		if res, err := ev.StepResultHinted(history.SystemState{DB: low.With("a", value.NewInt(9)), Events: event.NewSet(), TS: 2}, false); err != nil || !res.Fired {
			t.Fatalf("%T: tentative state: fired=%t err=%v", ev, res.Fired, err)
		}
		ev.Rollback()
		if res, err := ev.StepResultHinted(history.SystemState{DB: low, Events: event.NewSet(event.New("tick")), TS: 2}, true); err != nil || res.Fired {
			t.Fatalf("%T: hinted step after rollback served the discarded state's value: fired=%t err=%v", ev, res.Fired, err)
		}
	}
}
