package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"

	"ptlactive/internal/history"
	"ptlactive/internal/naive"
	"ptlactive/internal/ptl"
	"ptlactive/internal/ptlgen"
	"ptlactive/internal/value"
)

// TestMetricFormulaMatchesGeneralAndNaive is Theorem 1 for the metric
// registers: on ptlgen.MetricFormula over ptlgen.MetricHistory, the
// evaluator CompileAuto builds fires as the general evaluator does and as
// naive says, at every state: a comparison, an arithmetic or a sample over
// mixed kinds is undefined alike under all three, never an error. Beside
// it go a twin that takes a marked step over the next state and rolls it
// back before every step, and from a cut on two copies restored from the
// encoded state of each. The family must feed a good share of steps a
// non-numeric value of an item the formula reads. PTL_METRIC_SEEDS sets
// the number of seeds.
func TestMetricFormulaMatchesGeneralAndNaive(t *testing.T) {
	reg := ptlgen.Registry()
	iters := 4000
	if testing.Short() {
		iters = 500
	}
	if n, err := strconv.Atoi(os.Getenv("PTL_METRIC_SEEDS")); err == nil {
		iters = n
	}
	kinds := map[string]int{}
	for seed := 0; seed < iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		f := ptlgen.MetricFormula(rng)
		h := ptlgen.MetricHistory(rng, 20)
		info, err := ptl.Check(f, reg)
		if err != nil {
			t.Fatalf("seed %d: check: %v\n%s", seed, err, f)
		}
		auto, err := CompileAuto(info, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		general, err := New(info, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		kind := "general"
		if fast, ok := auto.(*FastEvaluator); ok {
			kind = "fast"
			for _, m := range fast.metrics {
				switch {
				case m == nil:
				case m.front == nil:
					kinds["timestamp"]++
				case m.bound == 0:
					kinds["unbounded frontier"]++
				default:
					kinds["frontier"]++
				}
			}
			kinds["window"] += len(fast.aggs)
		}
		kinds[kind]++
		if fast, ok := auto.(*FastEvaluator); ok && fast.params != nil && len(fast.metrics) > 0 {
			kinds["param"]++
		}
		reads := itemsRead(f)
		oracle := naive.New(reg, h, nil)
		cut := 1 + seed%(h.Len()-1)
		var fromGeneral, fromAuto ConditionEvaluator
		undone, _ := CompileAuto(info, reg, nil)
		for i := 0; i < h.Len(); i++ {
			undone.Mark() // a discarded step over the next state, as a rejected commit's
			_, _ = undone.StepResult(h.At(min(i+1, h.Len()-1)))
			undone.Rollback()
			if i == cut {
				fromGeneral, fromAuto = restoreCopy(t, general, info, reg, nil), restoreCopy(t, auto, info, reg, nil)
			}
			want, werr := general.StepResult(h.At(i))
			for _, ev := range []ConditionEvaluator{auto, undone, fromGeneral, fromAuto} {
				if ev == nil {
					continue
				}
				got, err := ev.StepResult(h.At(i))
				if err != nil || werr != nil || !resultsEqual(want, got) {
					t.Fatalf("seed %d state %d (%s): %T fired %t err %v, general fired %t err %v\n%s", seed, i, kind, ev, got.Fired, err, want.Fired, werr, f)
				}
			}
			if slices.ContainsFunc(reads, func(item string) bool { v, _ := h.At(i).GetItem(item); return !v.IsNumeric() }) {
				kinds["non-numeric"]++
			}
			envs := []naive.Env{{}}
			if len(info.Free) > 0 {
				envs = []naive.Env{{"U": value.NewInt(0)}, {"U": value.NewInt(1)}, {"U": value.NewInt(2)}}
			}
			for _, env := range envs {
				holds, err := oracle.Sat(i, f, env)
				if err != nil || holds != slices.ContainsFunc(want.Bindings, func(b Binding) bool { return fmt.Sprint(b) == fmt.Sprint(Binding(env)) }) {
					t.Fatalf("seed %d state %d (%s): naive %t (%v) under %v, evaluators %v\n%s", seed, i, kind, holds, err, env, want.Bindings, f)
				}
				if holds {
					kinds["fired"]++
				}
			}
		}
	}
	if kinds["fast"] < iters/2 || kinds["general"] == 0 || kinds["timestamp"] < iters/4 || kinds["frontier"] < iters/4 ||
		kinds["unbounded frontier"] < iters/20 || kinds["window"] < iters/20 || kinds["param"] < iters/20 || kinds["non-numeric"] < iters/50 || kinds["fired"] < iters {
		t.Fatalf("family too narrow: %v", kinds)
	}
	t.Logf("%v", kinds)
}

// itemsRead lists the items f reads by name.
func itemsRead(f ptl.Formula) []string {
	var out []string
	ptl.WalkTerms(f, func(t ptl.Term) {
		if c, ok := t.(*ptl.Call); ok && c.Fn == "item" && len(c.Args) == 1 {
			if k, ok := c.Args[0].(*ptl.Const); ok && k.V.Kind() == value.String {
				out = append(out, k.V.AsString())
			}
		}
	})
	return out
}

// TestFrontierWithinGeneralClauses: on each of doubledArms, stepped side by
// side, the fast path's doubled-within-d register holds at every state as
// many frontier samples as the general evaluator retains clauses: the
// instants no later instant undercuts, inside the window.
func TestFrontierWithinGeneralClauses(t *testing.T) {
	reg := ibmRegistry(t)
	for _, arm := range doubledArms {
		info, err := ptl.Check(mustParse(t, doubledWithin(arm.d)), reg)
		if err != nil {
			t.Fatal(err)
		}
		general, _ := New(info, reg, nil)
		fast, err := NewFast(info, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		peak := 0
		for _, st := range priceStates(0, 1500, arm.price) {
			a, _ := general.Step(st)
			b, _ := fast.StepResult(st)
			clauses := 0
			for _, n := range general.sincePrev {
				switch {
				case n.kind == nkOr:
					clauses = len(n.kids)
				case n != nodeFalse:
					clauses = 1
				}
			}
			if samples := fast.StateSize() - 1; samples != clauses || a.Fired != b.Fired {
				t.Fatalf("%s at %d: %d samples, %d clauses; fired %t, general %t", arm.name, st.TS, samples, clauses, b.Fired, a.Fired)
			}
			peak = max(peak, clauses)
		}
		t.Logf("%s: peak %d", arm.name, peak)
	}
}

// TestAutoMatchesGeneralOnEveryFamily: whatever CompileAuto picks for
// ptlgen's closed families — Formula, FormulaWithAggregates and
// LinearFormula, most of whose bounded operators and captured values now
// step on metric registers — fires as the general evaluator does at every
// state of a history of integers, and so do a twin that rolls back a
// marked step over the next state before each step and a copy restored
// mid-trace. Every formula is run over a MetricHistory too, where values
// of mixed kinds meet: an atom over them is false under both evaluators,
// so the fast path, which evaluates an atom the general evaluator's graph
// folds away unread, still agrees with it.
func TestAutoMatchesGeneralOnEveryFamily(t *testing.T) {
	reg := ptlgen.Registry()
	fams := []func(*rand.Rand) ptl.Formula{
		func(r *rand.Rand) ptl.Formula { return ptlgen.Formula(r, 1+r.Intn(4)) },
		func(r *rand.Rand) ptl.Formula { return ptlgen.FormulaWithAggregates(r, 1+r.Intn(3)) },
		func(r *rand.Rand) ptl.Formula { return ptlgen.LinearFormula(r, 1+r.Intn(4)) },
	}
	iters := 4000
	if testing.Short() {
		iters = 500
	}
	fast, mixed := 0, 0
	for seed := 0; seed < iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		f := fams[seed%len(fams)](rng)
		hs := []*history.History{ptlgen.History(rng, 16), ptlgen.MetricHistory(rng, 16)}
		info, err := ptl.Check(f, reg)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, f)
		}
		auto, _ := CompileAuto(info, reg, nil)
		if fe, isFast := auto.(*FastEvaluator); isFast {
			fast++
			if len(fe.metrics)+len(fe.aggs) > 0 {
				mixed++
			}
		}
		for _, h := range hs {
			auto, _ := CompileAuto(info, reg, nil)
			undone, _ := CompileAuto(info, reg, nil)
			general, _ := New(info, reg, nil)
			var restored ConditionEvaluator
			for i := 0; i < h.Len(); i++ {
				if i == h.Len()/2 {
					restored = restoreCopy(t, auto, info, reg, nil)
				}
				undone.Mark()
				_, _ = undone.StepResult(h.At(min(i+1, h.Len()-1)))
				undone.Rollback()
				want, werr := general.StepResult(h.At(i))
				for _, ev := range []ConditionEvaluator{auto, undone, restored} {
					if ev == nil {
						continue
					}
					got, err := ev.StepResult(h.At(i))
					if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() || got.Fired != want.Fired {
						t.Fatalf("seed %d state %d: %T fired %t err %v, general fired %t err %v\n%s", seed, i, ev, got.Fired, err, want.Fired, werr, f)
					}
				}
				if werr != nil {
					break
				}
			}
		}
	}
	if fast < iters/2 || mixed < iters/10 {
		t.Fatalf("only %d of %d formulas compiled fast, %d with metric or window registers", fast, iters, mixed)
	}
	t.Logf("%d of %d fast, %d with metric or window registers", fast, iters, mixed)
}

// TestFrontierNaN: a NaN orders equal to every number, so it satisfies <=
// and >= always and < and > never; a frontier ranks it accordingly beside
// infinities and ordinary numbers, fast and restored alike, as the general
// evaluator and naive decide. A windowed sum joins them: once an infinity
// has left its window, the sum is that of the samples still in it, not the
// NaN of ∞ - ∞.
func TestFrontierNaN(t *testing.T) {
	reg := ptlgen.Registry()
	check := func(name string, f ptl.Formula, h *history.History) {
		t.Helper()
		info, err := ptl.Check(f, reg)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := NewFast(info, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		general, _ := New(info, reg, nil)
		oracle := naive.New(reg, h, nil)
		var restored ConditionEvaluator
		for i := 0; i < h.Len(); i++ {
			if i == h.Len()/2 {
				restored = restoreCopy(t, fast, info, reg, nil)
			}
			want, werr := general.StepResult(h.At(i))
			holds, nerr := oracle.Sat(i, f, naive.Env{})
			for _, ev := range []ConditionEvaluator{fast, restored} {
				if ev == nil {
					continue
				}
				if got, err := ev.StepResult(h.At(i)); err != nil || werr != nil || nerr != nil || got.Fired != want.Fired || got.Fired != holds {
					t.Fatalf("%s state %d: %T %t %v, general %t %v, naive %t %v\n%s", name, i, ev, got.Fired, err, want.Fired, werr, holds, nerr, f)
				}
			}
		}
	}
	vals := []value.Value{value.NewFloat(math.NaN()), value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)),
		value.NewInt(1), value.NewFloat(2.5), value.NewInt(3)}
	for seed := 0; seed < 200; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		b := history.NewBuilder(history.EmptyDB().With("a", value.NewInt(2)).With("b", value.NewInt(2)), 0)
		for i := 1; i < 16; i++ {
			upd := map[string]value.Value{"a": vals[rng.Intn(len(vals))], "b": vals[rng.Intn(len(vals))]}
			if err := b.Commit(int64(2*i), int64(i), upd); err != nil {
				t.Fatal(err)
			}
		}
		op := []string{"<", "<=", ">", ">="}[seed%4]
		atom := `item("b") ` + op + ` x`
		if seed%8 >= 4 {
			atom = `x ` + op + ` item("b")`
		}
		bound := ` and time >= t - 5`
		if seed%3 == 0 {
			bound = ""
		}
		check(fmt.Sprintf("seed %d", seed), mustParse(t, `[t <- time] [x <- item("a")] previously (`+atom+bound+`)`), b.History())
	}
	b := history.NewBuilder(history.EmptyDB().With("a", value.NewInt(0)), 0)
	for i, v := range []value.Value{value.NewInt(1), value.NewFloat(math.Inf(1)), value.NewInt(1), value.NewInt(1), value.NewInt(1), value.NewInt(1)} {
		if err := b.Commit(int64(i+1), int64(i+1), map[string]value.Value{"a": v}); err != nil {
			t.Fatal(err)
		}
	}
	check("window", mustParse(t, `sum(item("a"); window 2; true) > 0`), b.History())
}
