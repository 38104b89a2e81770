package core

import (
	"bytes"
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
			if err != nil || ru.Fired != rf {
				t.Fatalf("seed %d state %d: rolled-back twin fired=%t err=%v, want %t\nformula: %s",
					seed, i, ru.Fired, err, rf, f)
			}
			if a, b := mustEncode(t, undone), mustEncode(t, fast); !bytes.Equal(a, b) {
				t.Fatalf("seed %d state %d: rolled-back twin's state %s, want %s\nformula: %s", seed, i, a, b, f)
			}
		}
	}
	if checked < 50 || hintedSteps < checked {
		t.Fatalf("generator produced too few decomposable formulas (%d) or database-preserving steps (%d)", checked, hintedSteps)
	}
}

// TestFastErrorsPinned pins the text of the errors the fast path reports
// at step time; callers see them wrapped, users read them. A membership in
// a non-relation and an ordering across kinds are no errors: they are
// false, and their negations true.
func TestFastErrorsPinned(t *testing.T) {
	reg := ptlgen.Registry()
	st := history.SystemState{DB: history.EmptyDB().With("a", value.NewInt(1)), Events: event.NewSet(), TS: 1}
	one := &ptl.Const{V: value.NewInt(1)}
	member := &ptl.Member{Elems: []ptl.Term{one}, Rel: mustTerm(t, `item("a")`)}
	ordering := &ptl.Cmp{Op: value.LT, L: mustTerm(t, `item("a")`), R: &ptl.Const{V: value.NewString("s")}}
	for _, tc := range []struct {
		name  string
		cond  ptl.Formula // stepped as the normalized form, unchecked
		want  string      // the error, or "" for a verdict
		fired bool
	}{
		{"unbound variable", &ptl.Cmp{Op: value.GT, L: &ptl.Var{Name: "x"}, R: one}, `core: fast evaluator: unbound variable x`, false},
		{"unknown query", &ptl.Cmp{Op: value.GT, L: &ptl.Call{Fn: "nosuch"}, R: one}, `query: unknown function "nosuch"`, false},
		{"membership in a non-relation", member, "", false},
		{"negated membership in a non-relation", &ptl.Not{F: member}, "", true},
		{"ordering across kinds", ordering, "", false},
		{"negated ordering across kinds", &ptl.Not{F: ordering}, "", true},
	} {
		fast, err := NewFast(&ptl.Info{Source: &ptl.BoolConst{V: true}, Normalized: tc.cond}, reg, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := 0; i < 2; i++ { // the same outcome on a repeated step
			fired, err := fast.Step(st)
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != tc.want || fired != tc.fired {
				t.Errorf("%s: got %t, %q; want %t, %q", tc.name, fired, got, tc.fired, tc.want)
			}
		}
	}
}

// mustEncode is ev's encoded state.
func mustEncode(t testing.TB, ev ConditionEvaluator) []byte {
	t.Helper()
	b, err := EncodeEvaluatorState(ev)
	if err != nil {
		t.Fatal(err)
	}
	return b
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
		// A parameter crossing a temporal operator outside = and ≠.
		`previously (@e1(X) and X > 1)`,
		// Two parameters crossing temporal operators.
		`previously @e2(X, Y)`,
		// A parameter's candidates in an assigned relation.
		`[r <- item("a")] X in r`,
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
	// An aggregate is rejected when its formulas are.
	f, err := ptl.Parse(`sum(item("a"); time = 0; [x <- item("b")] lasttime (item("b") < x)) > 3`)
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

// TestParamFormulaMatchesGeneralAndNaive is Theorem 1 for rule parameters:
// on ptlgen's parameter family, the evaluator CompileAuto picks fires with
// the general evaluator's bindings, in its order, at every state, and a
// binding is returned exactly when the whole-history semantics holds under
// it, over every combination of the values the history can offer.
func TestParamFormulaMatchesGeneralAndNaive(t *testing.T) {
	reg := ptlgen.Registry()
	iters := 600
	if testing.Short() {
		iters = 150
	}
	kinds := map[string]int{}
	for seed := 0; seed < iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		f := ptlgen.ParamFormula(rng, 1+rng.Intn(3))
		h := ptlgen.ParamHistory(rng, 20)
		log := ptlgen.ParamLog(rng, h)
		info, err := ptl.Check(f, reg)
		if err != nil {
			t.Fatalf("seed %d: check: %v\n%s", seed, err, f)
		}
		auto, err := CompileAuto(info, reg, log)
		if err != nil {
			t.Fatal(err)
		}
		general, err := New(info, reg, log)
		if err != nil {
			t.Fatal(err)
		}
		kind := "general"
		if fast, ok := auto.(*FastEvaluator); ok {
			kind = "fast"
			if fast.class >= 0 {
				kind = "class"
			}
		}
		kinds[kind]++
		// A disjunction whose body leaves U unbound holds for infinitely
		// many values: only the general evaluator is its reference.
		_, disjunction := f.(*ptl.Or)
		if disjunction {
			kinds["or "+kind]++
		}
		universe := map[string][]value.Value{"U": ints(10), "V": ints(3)}
		for _, ex := range log {
			universe["T"] = append(universe["T"], value.NewInt(ex.Time))
		}
		oracle := naive.New(reg, h, log)
		// At the cut, each evaluator's state is restored onto a fresh one
		// CompileAuto built, which goes on beside it: the general
		// evaluator's, as a snapshot written before the fast path took
		// parameters would hold it, and the fast one's own.
		cut, fromGeneral, fromAuto := 1+seed%(h.Len()-1), ConditionEvaluator(nil), ConditionEvaluator(nil)
		undone, _ := CompileAuto(info, reg, log) // takes every step twice, the first marked and rolled back
		for i := 0; i < h.Len(); i++ {
			undone.Mark()
			_, _ = undone.StepResult(h.At(i))
			undone.Rollback()
			if i == cut {
				fromGeneral, fromAuto = restoreCopy(t, general, info, reg, log), restoreCopy(t, auto, info, reg, log)
			}
			want, werr := general.StepResult(h.At(i))
			got, gerr := auto.StepResult(h.At(i))
			for _, ev := range []ConditionEvaluator{undone, fromGeneral, fromAuto} {
				if ev == nil {
					continue
				}
				if res, err := ev.StepResult(h.At(i)); (err == nil) != (werr == nil) || err == nil && !resultsEqual(want, res) {
					t.Fatalf("seed %d state %d (%s): restored %T at %d: %v %v, general %v\n%s", seed, i, kind, ev, cut, res.Bindings, err, want.Bindings, f)
				}
			}
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("seed %d state %d (%s): general error %v, %T error %v\n%s", seed, i, kind, werr, auto, gerr, f)
			}
			if werr != nil {
				break
			}
			if !resultsEqual(want, got) {
				t.Fatalf("seed %d state %d (%s): general %v, got %v\n%s", seed, i, kind, want.Bindings, got.Bindings, f)
			}
			kinds[kind+" bindings"] += len(got.Bindings)
			if disjunction {
				continue
			}
			returned := map[string]bool{}
			for _, b := range got.Bindings {
				returned[fmt.Sprint(b)] = true
			}
			env := naive.Env{}
			var walk func(k int)
			walk = func(k int) {
				if k == len(info.Free) {
					holds, err := oracle.Sat(i, f, env)
					if err != nil {
						t.Fatalf("seed %d state %d: naive: %v", seed, i, err)
					}
					if b := fmt.Sprint(Binding(env)); holds != returned[b] {
						t.Fatalf("seed %d state %d (%s): naive says %t under %s, evaluator %v\n%s", seed, i, kind, holds, b, got.Bindings, f)
					}
					return
				}
				for _, v := range universe[info.Free[k]] {
					env[info.Free[k]] = v
					walk(k + 1)
				}
			}
			walk(0)
		}
	}
	if kinds["fast"] < iters/5 || kinds["class"] < iters/5 || kinds["general"] == 0 ||
		kinds["fast bindings"] < iters || kinds["class bindings"] < iters/2 ||
		kinds["or general"] == 0 || kinds["or fast"]+kinds["or class"] == 0 {
		t.Fatalf("family too narrow: %v", kinds)
	}
	t.Logf("%v", kinds)
}

// restoreCopy restores ev's encoded state onto a fresh evaluator
// CompileAuto builds, and returns the evaluator the encoded kind picked.
func restoreCopy(t *testing.T, ev ConditionEvaluator, info *ptl.Info, reg *query.Registry, log ptl.ExecLog) ConditionEvaluator {
	t.Helper()
	blob, err := EncodeEvaluatorState(ev)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := CompileAuto(info, reg, log)
	if err != nil {
		t.Fatal(err)
	}
	out, err := RestoreEvaluatorState(fresh, blob)
	if err != nil {
		t.Fatalf("restore %s: %v", blob, err)
	}
	return out
}

func ints(n int) []value.Value {
	out := make([]value.Value, n)
	for i := range out {
		out[i] = value.NewInt(int64(i))
	}
	return out
}

// TestParamStepAllocs: a step of a rule whose parameters cross no temporal
// operator (firing-stream's tick rules) allocates the Binding maps it
// returns and a small constant besides — the candidates, their keys and
// the enumeration live in the evaluator's scratch — alike at one and at
// four candidates per parameter.
func TestParamStepAllocs(t *testing.T) {
	reg := ptlgen.Registry()
	fast, err := CompileFast(mustParse(t, `@tick(A, B) and A >= -1 and lasttime @go`), reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sink Binding
	perMap := testing.AllocsPerRun(100, func() {
		sink = make(Binding, 2)
		sink["A"], sink["B"] = value.NewInt(1), value.NewInt(2)
	})
	for _, n := range []int{1, 4} {
		states := make([]history.SystemState, 64)
		for i := range states {
			evs := []event.Event{event.New("go")}
			for k := 0; k < n; k++ {
				evs = append(evs, event.New("tick", value.NewInt(int64(i+k)), value.NewInt(int64(10*k))))
			}
			states[i] = history.SystemState{DB: history.EmptyDB(), Events: event.NewSet(evs...), TS: int64(i + 1)}
		}
		i := 0
		step := func() {
			res, err := fast.StepResult(states[i%len(states)])
			if err != nil || len(res.Bindings) != n && i > 0 {
				t.Fatalf("step %d: %d bindings, %v", i, len(res.Bindings), err)
			}
			i++
		}
		step()
		got := testing.AllocsPerRun(200, step)
		if limit := float64(n)*perMap + 4; got > limit {
			t.Errorf("%d candidates: a step allocates %.1f times, want at most %.1f (%.0f per binding)", n, got, limit, perMap)
		}
		t.Logf("%d candidates: %.1f allocations per step, %.0f per binding", n, got, perMap)
	}
}

// TestSessionRuleStateBounded: temporal-dense's session rule keeps one
// register vector per user whose session is open — a logout returns the
// user's vector to the default, which forgets it — so over 10^5 states its
// state never exceeds the open sessions plus the default. The general
// evaluator's graph for the same rule grows with the history; over the
// first states the two fire alike.
func TestSessionRuleStateBounded(t *testing.T) {
	const states, lockstep, users = 100000, 3000, 8
	reg := ptlgen.Registry()
	info, err := ptl.Check(mustParse(t, `((not @logout(U)) since (@login(U) and item("px") > 90)) and @update("DJ")`), reg)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := CompileAuto(info, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fast, ok := auto.(*FastEvaluator)
	if !ok || fast.class < 0 {
		t.Fatalf("session rule compiled to %T, want the fast evaluator with a class parameter", auto)
	}
	general, err := New(info, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	open := map[int]bool{}
	px := 100
	for i := 0; i < states; i++ {
		px += rng.Intn(5) - 2
		var evs []event.Event
		switch u := rng.Intn(users); rng.Intn(3) {
		case 0:
			evs, open[u] = append(evs, event.New("login", value.NewString(fmt.Sprintf("u%d", u)))), true
		case 1:
			evs = append(evs, event.New("logout", value.NewString(fmt.Sprintf("u%d", u))))
			delete(open, u)
		default:
			evs = append(evs, event.New("update", value.NewString("DJ")))
		}
		st := history.SystemState{DB: history.EmptyDB().With("px", value.NewInt(int64(px))), Events: event.NewSet(evs...), TS: int64(i + 1)}
		got, err := fast.StepResult(st)
		if err != nil {
			t.Fatal(err)
		}
		if i < lockstep {
			want, err := general.StepResult(st)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(want, got) {
				t.Fatalf("state %d: general %v, fast %v", i, want.Bindings, got.Bindings)
			}
		}
		if size := fast.StateSize(); size > len(open)+1 {
			t.Fatalf("state %d: %d register vectors for %d open sessions", i, size, len(open))
		}
	}
	t.Logf("general evaluator after %d states: %d nodes", lockstep, general.StateSize())
}
