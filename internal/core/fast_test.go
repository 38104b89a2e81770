package core

import (
	"math/rand"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/history"
	"ptlactive/internal/ptl"
	"ptlactive/internal/ptlgen"
	"ptlactive/internal/value"
)

// TestFastMatchesGeneral: on random decomposable formulas the fast
// evaluator and the general constraint-graph evaluator agree at every
// state — and so do two twins of the fast one: one stepped under the
// dbUnchanged hint wherever consecutive states really share a database (so
// some steps read the query cache and some refill it), one that takes every
// step twice, the first time marked and rolled back.
func TestFastMatchesGeneral(t *testing.T) {
	reg := ptlgen.Registry()
	checked, hintedSteps := 0, 0
	for seed := 0; checked < 150 && seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(int64(20000 + seed)))
		f := ptlgen.Formula(rng, 1+rng.Intn(4))
		if !ptl.Decomposable(f) {
			continue
		}
		checked++
		info, err := ptl.Check(f, reg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		gen, err := New(info, reg, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fast, err := NewFast(info, reg, nil)
		if err != nil {
			t.Fatalf("seed %d: NewFast rejected decomposable formula: %v\n%s", seed, err, f)
		}
		hinted, _ := NewFast(info, reg, nil)
		undone, _ := NewFast(info, reg, nil)
		h := ptlgen.History(rng, 12)
		for i := 0; i < h.Len(); i++ {
			rg, err := gen.Step(h.At(i))
			if err != nil {
				t.Fatalf("seed %d: general: %v", seed, err)
			}
			rf, err := fast.Step(h.At(i))
			if err != nil {
				t.Fatalf("seed %d: fast: %v", seed, err)
			}
			if rg.Fired != rf {
				t.Fatalf("seed %d state %d: general=%t fast=%t\nformula: %s",
					seed, i, rg.Fired, rf, f)
			}
			same := i > 0 && h.At(i).DB.Equal(h.At(i-1).DB)
			if same {
				hintedSteps++
			}
			rh, err := hinted.StepResultHinted(h.At(i), same)
			if err != nil || rh.Fired != rf {
				t.Fatalf("seed %d state %d (hint %t): hinted twin fired=%t err=%v, want %t\nformula: %s",
					seed, i, same, rh.Fired, err, rf, f)
			}
			undone.Mark()
			if _, err := undone.Step(h.At(i)); err != nil {
				t.Fatalf("seed %d: marked step: %v", seed, err)
			}
			undone.Rollback()
			ru, err := undone.StepResultHinted(h.At(i), same)
			if err != nil || ru.Fired != rf || undone.Steps() != fast.Steps() {
				t.Fatalf("seed %d state %d: rolled-back twin fired=%t steps=%d err=%v, want %t after %d\nformula: %s",
					seed, i, ru.Fired, undone.Steps(), err, rf, fast.Steps(), f)
			}
		}
	}
	if checked < 50 || hintedSteps < checked {
		t.Fatalf("generator produced too few decomposable formulas (%d) or database-preserving steps (%d)", checked, hintedSteps)
	}
}

// TestFastErrorsPinned pins the text of the errors the fast path reports
// at step time; callers see them wrapped, users read them.
func TestFastErrorsPinned(t *testing.T) {
	reg := ptlgen.Registry()
	st := history.SystemState{DB: history.EmptyDB().With("a", value.NewInt(1)), Events: event.NewSet(), TS: 1}
	one := &ptl.Const{V: value.NewInt(1)}
	for _, tc := range []struct {
		name string
		cond ptl.Formula // stepped as the normalized form, unchecked
		want string
	}{
		{"unbound variable", &ptl.Cmp{Op: value.GT, L: &ptl.Var{Name: "x"}, R: one}, `core: fast evaluator: unbound variable x`},
		{"unknown query", &ptl.Cmp{Op: value.GT, L: &ptl.Call{Fn: "nosuch"}, R: one}, `query: unknown function "nosuch"`},
		{"membership in a non-relation", &ptl.Member{Elems: []ptl.Term{one}, Rel: mustTerm(t, `item("a")`)}, `core: membership in int`},
		{"failing comparison", &ptl.Cmp{Op: value.LT, L: mustTerm(t, `item("a")`), R: &ptl.Const{V: value.NewString("s")}}, `value: cannot compare int with string`},
	} {
		fast, err := NewFast(&ptl.Info{Source: &ptl.BoolConst{V: true}, Normalized: tc.cond}, reg, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := 0; i < 2; i++ { // the same text on a repeated step
			if _, err := fast.Step(st); err == nil || err.Error() != tc.want {
				t.Errorf("%s: got %v, want %s", tc.name, err, tc.want)
			}
		}
		if fast.Steps() != 0 {
			t.Errorf("%s: a failed step was counted", tc.name)
		}
	}
}

// mustTerm parses src as the left side of a comparison.
func mustTerm(t *testing.T, src string) ptl.Term {
	t.Helper()
	f, err := ptl.Parse(src + " = 0")
	if err != nil {
		t.Fatal(err)
	}
	return f.(*ptl.Cmp).L
}

func TestFastRejectsNonDecomposable(t *testing.T) {
	reg := ptlgen.Registry()
	bad := []string{
		// Variable crossing a temporal operator.
		`[x <- item("a")] previously (item("a") = x)`,
		// Free variable.
		`previously @e1(X)`,
	}
	for _, src := range bad {
		f, err := ptl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CompileFast(f, reg, nil); err == nil {
			t.Errorf("CompileFast(%q) should fail", src)
		}
	}
	// Aggregates are rejected even though they are "decomposable".
	f, err := ptl.Parse(`sum(item("a"); time = 0; true) > 3`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileFast(f, reg, nil); err == nil {
		t.Error("aggregate condition should be rejected by the fast path")
	}
	if _, err := NewFast(nil, reg, nil); err == nil {
		t.Error("nil info should be rejected")
	}
}

func TestFastRegistersAndSteps(t *testing.T) {
	reg := ptlgen.Registry()
	f, err := ptl.Parse(`(@e0 since @e1(1)) and lasttime @e0`)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := CompileFast(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Registers() != 2 {
		t.Fatalf("Registers = %d, want 2", fast.Registers())
	}
	h := ptlgen.History(rand.New(rand.NewSource(1)), 5)
	for i := 0; i < h.Len(); i++ {
		if _, err := fast.Step(h.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	if fast.Steps() != h.Len() {
		t.Fatalf("Steps = %d", fast.Steps())
	}
}

func TestFastExecutedPredicate(t *testing.T) {
	reg := ptlgen.Registry()
	log := &fakeLog{}
	log.add(ptl.Execution{Rule: "r1", Params: nil, Time: 2})
	f, err := ptl.Parse(`executed(r1, 2)`)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := CompileFast(f, reg, log)
	if err != nil {
		t.Fatal(err)
	}
	h := ptlgen.History(rand.New(rand.NewSource(2)), 6)
	anyFired := false
	for i := 0; i < h.Len(); i++ {
		ok, err := fast.Step(h.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			anyFired = true
			if h.At(i).TS <= 2 {
				t.Fatalf("executed matched at time %d, not after 2", h.At(i).TS)
			}
		}
	}
	if !anyFired {
		t.Fatal("executed predicate never matched")
	}
}
