package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/history"
	"ptlactive/internal/naive"
	"ptlactive/internal/ptl"
	"ptlactive/internal/ptlgen"
	"ptlactive/internal/value"
)

// doubledWithin is the paper's Section-5 trigger with window d.
func doubledWithin(d int) string {
	return fmt.Sprintf(`[t <- time] [x <- price("IBM")] previously (price("IBM") <= 0.5 * x and time >= t - %d)`, d)
}

// walkPrice wanders between 90 and 109 and jumps to 230 at every 37th
// state: every state adds a clause to the doubled-within-d graph,
// subsumption keeps the few recent prices no later one undercuts, and the
// trigger fires at the jumps.
func walkPrice(i int) int64 {
	if i%37 == 36 {
		return 230
	}
	return 90 + int64(i*7%20)
}

// risingPrice rises by one a state from 90. No clause of doubled-within-d
// implies another (of two, the later has the higher price and the earlier
// the earlier deadline), so the graph retains the d/2 clauses of the window.
func risingPrice(i int) int64 { return 90 + int64(i) }

// walkHistory is n states two time units apart of walkPrice.
func walkHistory(n int) *history.History {
	pairs := make([][2]int64, n)
	for i := range pairs {
		pairs[i] = [2]int64{walkPrice(i), int64(2 * (i + 1))}
	}
	return ibmHistory(pairs)
}

// priceStates is states from, ..., from+n-1 of a price, two time units
// apart, built without a history so that a benchmark can run on for ever.
func priceStates(from, n int, price func(int) int64) []history.SystemState {
	out := make([]history.SystemState, n)
	for k := range out {
		i := from + k
		out[k] = history.SystemState{DB: history.EmptyDB().With("ibm", value.NewFloat(float64(price(i)))),
			Events: event.NewSet(), TS: int64(2 * (i + 1))}
	}
	return out
}

// doubledArms are the prices the doubled-within-d step is measured on: the
// wandering one, whose chain subsumption keeps to a handful of clauses at
// any d, and the rising one at d=1000, some 500 clauses of which one expires
// a step.
var doubledArms = []struct {
	name  string
	d     int
	price func(int) int64
}{
	{"walk/d=10", 10, walkPrice},
	{"walk/d=1000", 1000, walkPrice},
	{"rising/d=1000", 1000, risingPrice},
}

// TestStepAllocsFlatInRetainedClauses: a step of doubled-within-d adds one
// clause and retires one whether d keeps a handful of clauses or about
// 500, and allocates the same either way — the fire check evaluates the
// retained or-chain instead of rebuilding it, and pruning, flattening and
// subsumption work in the evaluator's scratch. The rising arm must really
// retain its 500 clauses, and the wandering one at d=1000 no more than the
// 20 prices its band holds: a clause is kept only while no later price is
// as low.
func TestStepAllocsFlatInRetainedClauses(t *testing.T) {
	const warm, runs = 1200, 200
	reg := ibmRegistry(t)
	allocs := map[string]float64{}
	for _, arm := range doubledArms {
		states := priceStates(0, warm+runs+2, arm.price)
		ev, err := Compile(mustParse(t, doubledWithin(arm.d)), reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		i, peak := 0, 0
		step := func() {
			if _, err := ev.Step(states[i]); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for i < warm {
			step()
			for _, n := range ev.sincePrev {
				if n.kind == nkOr {
					peak = max(peak, len(n.kids))
				}
			}
		}
		switch size := ev.StateSize(); {
		case arm.name == "rising/d=1000" && size < 400:
			t.Fatalf("%s retains %d nodes, want at least 400", arm.name, size)
		case arm.name == "walk/d=1000" && peak > 20:
			t.Fatalf("%s retained up to %d clauses, want at most 20", arm.name, peak)
		}
		allocs[arm.name] = testing.AllocsPerRun(runs, step)
		t.Logf("%s: %d retained nodes, %.0f allocations per step", arm.name, ev.StateSize(), allocs[arm.name])
	}
	if diff := allocs["rising/d=1000"] - allocs["walk/d=10"]; diff > 2 || diff < -2 {
		t.Fatalf("a step allocates %.0f times with ~500 retained clauses, %.0f with a handful",
			allocs["rising/d=1000"], allocs["walk/d=10"])
	}
}

// BenchmarkDoubledStep times a step of doubled-within-d on each of
// doubledArms and reports the state retained: the general evaluator's
// nodes, and on the fast/ twin, which CompileAuto builds, the register
// vector and the frontier's samples. The rising arm is the one a junction
// quadratic in the retained clauses would show; the fast twin's deque pops
// one expired sample a step and reads the front, so its rising arm is flat
// in d.
func BenchmarkDoubledStep(b *testing.B) {
	const warm, chunk = 1200, 4096
	for _, fast := range []bool{false, true} {
		for _, arm := range doubledArms {
			name := arm.name
			if fast {
				name = "fast/" + name
			}
			b.Run(name, func(b *testing.B) {
				info, err := ptl.Check(mustParse(b, doubledWithin(arm.d)), ibmRegistry(b))
				if err != nil {
					b.Fatal(err)
				}
				var ev interface {
					ConditionEvaluator
					StateSize() int
				}
				if fast {
					ev, err = NewFast(info, ibmRegistry(b), nil)
				} else {
					ev, err = New(info, ibmRegistry(b), nil)
				}
				if err != nil {
					b.Fatal(err)
				}
				for _, st := range priceStates(0, warm, arm.price) {
					if _, err := ev.StepResult(st); err != nil {
						b.Fatal(err)
					}
				}
				var states []history.SystemState
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					if n%chunk == 0 {
						b.StopTimer()
						states = priceStates(warm+n, chunk, arm.price)
						b.StartTimer()
					}
					if _, err := ev.StepResult(states[n%chunk]); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(ev.StateSize()), "nodes")
			})
		}
	}
}

// TestMetricStepAllocs: after warm-up a fast-path step of the doubled shape
// (a timestamp register and a frontier) and of temporal-dense's windowed
// sum allocates nothing, at a handful of frontier samples and at some 500.
func TestMetricStepAllocs(t *testing.T) {
	const warm, runs = 1200, 200
	reg := ibmRegistry(t)
	var windowed []history.SystemState
	db := history.EmptyDB().With("px_DJ", value.NewFloat(100))
	for i := 1; i <= warm+runs+2; i++ {
		ev := event.NewSet()
		if i%3 != 0 {
			ev = event.NewSet(event.New("update_stocks", value.NewString("DJ")))
		}
		db = db.With("px_DJ", value.NewFloat(float64(90+i%17)))
		windowed = append(windowed, history.SystemState{DB: db, Events: ev, TS: int64(2 * i)})
	}
	for _, arm := range append(doubledArms, struct {
		name  string
		d     int
		price func(int) int64
	}{name: "dj_volume"}) {
		cond, states := `sum(item("px_DJ"); window 40; @update_stocks("DJ")) > 1500 and @update_stocks("DJ")`, windowed
		if arm.price != nil {
			cond, states = doubledWithin(arm.d), priceStates(0, warm+runs+2, arm.price)
		}
		info, err := ptl.Check(mustParse(t, cond), reg)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewFast(info, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		step := func() {
			if _, err := ev.StepResult(states[i]); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for i < warm {
			step()
		}
		if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
			t.Errorf("%s: a fast step allocates %.1f times at %d samples", arm.name, allocs, ev.StateSize())
		}
	}
}

// TestWindowedAggregateStepAllocs: the window's deque evicts in place, and
// the sample's query is lowered by the evaluator that just stepped, so a
// step costs the same at window 40 as at window 4,000.
func TestWindowedAggregateStepAllocs(t *testing.T) {
	const warm, runs = 300, 200
	db := history.EmptyDB().With("a", value.NewInt(0))
	b := history.NewBuilder(db, 0)
	for i := 1; i <= warm+runs+2; i++ {
		if err := b.Commit(int64(i), int64(i), map[string]value.Value{"a": value.NewInt(int64(i % 5))}, event.New("e")); err != nil {
			t.Fatal(err)
		}
	}
	h := b.History()
	allocs := map[int]float64{}
	for _, w := range []int{40, 4000} {
		ev, err := Compile(mustParse(t, fmt.Sprintf(`sum(item("a"); window %d; @e) > 1000000 and @e`, w)), ptlgen.Registry(), nil)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		step := func() {
			if _, err := ev.Step(h.At(i)); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for i < warm {
			step()
		}
		allocs[w] = testing.AllocsPerRun(runs, step)
	}
	if allocs[40] != allocs[4000] {
		t.Fatalf("a step allocates %.0f times at window 40, %.0f at window 4000", allocs[40], allocs[4000])
	}
}

// TestInternIdentity: an evaluator, its clone and a copy restored from its
// encoding step in lockstep with equal results, byte-equal encodings and
// equal state sizes, across reseeds of their tables; and a Mark/Rollback
// pair leaves the encoding as it was.
func TestInternIdentity(t *testing.T) {
	reg := ptlgen.Registry()
	type trial struct {
		f ptl.Formula
		h *history.History
	}
	var trials []trial
	for seed := 0; seed < 60; seed++ {
		rng := rand.New(rand.NewSource(int64(5100 + seed)))
		f := ptlgen.Formula(rng, 1+rng.Intn(4))
		if seed%2 == 0 {
			f = ptlgen.FormulaWithAggregates(rng, 1+rng.Intn(3))
		}
		trials = append(trials, trial{f, ptlgen.History(rng, 16)})
	}
	// The Section-5 rule over 2,000 states grows its table past the bound
	// several times.
	paper := trial{mustParse(t, doubledWithin(10)), walkHistory(2000)}
	reseeds := 0
	for n, tr := range append(trials, paper) {
		r := reg
		if n == len(trials) {
			r = ibmRegistry(t)
		}
		info, err := ptl.Check(tr.f, r)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := New(info, r, nil)
		if err != nil {
			t.Fatal(err)
		}
		var clone, restored *Evaluator
		cut := tr.h.Len() / 3
		size := 0
		for i := 0; i < tr.h.Len(); i++ {
			if i == cut {
				clone = ev.Clone()
				blob, err := EncodeEvaluatorState(ev)
				if err != nil {
					t.Fatal(err)
				}
				if restored, err = New(info, r, nil); err != nil {
					t.Fatal(err)
				}
				if _, err := RestoreEvaluatorState(restored, blob); err != nil {
					t.Fatal(err)
				}
			}
			if i%5 == 3 {
				before, _ := EncodeEvaluatorState(ev)
				ev.Mark()
				_, _ = ev.Step(tr.h.At((i * 7) % tr.h.Len()))
				ev.Rollback()
				if after, _ := EncodeEvaluatorState(ev); !bytes.Equal(before, after) {
					t.Fatalf("trial %d state %d: Mark/Rollback changed the encoding\nformula: %s", n, i, tr.f)
				}
			}
			want, werr := ev.Step(tr.h.At(i))
			if ev.tab != nil && len(ev.tab.terms)+len(ev.tab.nodes) < size {
				reseeds++
			}
			if ev.tab != nil {
				size = len(ev.tab.terms) + len(ev.tab.nodes)
			}
			if clone == nil {
				continue
			}
			wantBlob, _ := EncodeEvaluatorState(ev)
			for _, other := range []*Evaluator{clone, restored} {
				got, gerr := other.Step(tr.h.At(i))
				if fmt.Sprint(werr) != fmt.Sprint(gerr) || !resultsEqual(want, got) {
					t.Fatalf("trial %d state %d: %+v (%v), copy %+v (%v)\nformula: %s", n, i, want, werr, got, gerr, tr.f)
				}
				if blob, _ := EncodeEvaluatorState(other); !bytes.Equal(wantBlob, blob) {
					t.Fatalf("trial %d state %d: encodings differ\n%s\n%s\nformula: %s", n, i, wantBlob, blob, tr.f)
				}
				if ev.StateSize() != other.StateSize() {
					t.Fatalf("trial %d state %d: state size %d, copy %d", n, i, ev.StateSize(), other.StateSize())
				}
			}
		}
	}
	if reseeds < 2 {
		t.Fatalf("the Section-5 rule reseeded its table %d times, want at least 2", reseeds)
	}
}

// TestFireMembershipAsSubstitution: the fire check decides a membership
// over an assigned relation as the substitution does. The substitution
// expands (e) in r into equality atoms, and an equality with a Null side is
// false, so a Null element matches no row, not even a row holding Null,
// and a Null relation holds no row. Conditions with a free variable still
// step by substitution; a copy of the condition's info that lists one sends
// the same graph down that path. The evaluator CompileAuto picks and naive,
// the whole-history oracle, say the same, naive under every free variable
// bound to the event's relation.
func TestFireMembershipAsSubstitution(t *testing.T) {
	reg := ptlgen.Registry()
	rel := value.NewRelation([][]value.Value{{{}}, {value.NewString("a")}})
	for name, v := range map[string]value.Value{
		"nul": {},
		"one": value.NewInt(1),
		"a":   value.NewString("a"),
		"rel": rel,
		"rel2": value.NewRelation([][]value.Value{
			{value.NewString("a"), {}}, {value.NewInt(1), value.NewFloat(2)}}),
	} {
		if err := reg.Register(name, 0, func(history.SystemState, []value.Value) (value.Value, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	b := history.NewBuilder(history.EmptyDB(), 0)
	for i := int64(1); i <= 4; i++ {
		if err := b.Commit(i, i, nil, event.New("e", rel)); err != nil {
			t.Fatal(err)
		}
	}
	h := b.History()
	oracle := naive.New(reg, h, nil)
	for src, fires := range map[string]bool{
		`[r <- rel()] lasttime ((nul()) in r)`:       false,
		`[r <- rel()] lasttime ((a()) in r)`:         true,
		`[r <- rel2()] lasttime ((a(), nul()) in r)`: false,
		`[r <- rel2()] lasttime ((1, 2) in r)`:       true,
		`(nul()) in rel()`:                           false,
		`(one()) in nul()`:                           false,
		`@e(R) and (nul()) in R`:                     false,
	} {
		f := mustParse(t, src)
		info, err := ptl.Check(f, reg)
		if err != nil {
			t.Fatal(err)
		}
		subInfo := *info
		subInfo.Free = []string{"unused"}
		fire, err := New(info, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		subst, err := New(&subInfo, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		auto, err := CompileAuto(info, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		env := naive.Env{}
		for _, v := range info.Free {
			env[v] = rel
		}
		for i := 0; i < h.Len(); i++ {
			got, err := fire.Step(h.At(i))
			if err != nil {
				t.Fatal(err)
			}
			want, err := subst.Step(h.At(i))
			if err != nil {
				t.Fatal(err)
			}
			if got.Fired != want.Fired || got.Fired != (fires && i > 0) {
				t.Fatalf("%s, state %d: the fire check says %t, the substitution %t", src, i, got.Fired, want.Fired)
			}
			res, err := auto.StepResult(h.At(i))
			if err != nil {
				t.Fatal(err)
			}
			holds, err := oracle.Sat(i, f, env)
			if err != nil {
				t.Fatalf("%s, state %d: naive: %v", src, i, err)
			}
			if res.Fired != got.Fired || holds != got.Fired {
				t.Fatalf("%s, state %d: general %t, %T %t, naive %t", src, i, got.Fired, auto, res.Fired, holds)
			}
		}
	}
}

// TestConcurrentEvaluators: eight clones of one evaluator share its graph
// and step concurrently (run under -race), each with a table of its own,
// and agree with the original stepped alone.
func TestConcurrentEvaluators(t *testing.T) {
	reg := ibmRegistry(t)
	ev, err := Compile(mustParse(t, doubledWithin(10)), reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := walkHistory(400)
	for i := 0; i < 100; i++ {
		if _, err := ev.Step(h.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	clones := make([]*Evaluator, 8)
	for k := range clones {
		clones[k] = ev.Clone()
	}
	var want []bool
	for i := 100; i < h.Len(); i++ {
		res, err := ev.Step(h.At(i))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res.Fired)
	}
	var wg sync.WaitGroup
	for _, c := range clones {
		wg.Add(1)
		go func(c *Evaluator) {
			defer wg.Done()
			for i := 100; i < h.Len(); i++ {
				res, err := c.Step(h.At(i))
				if err != nil || res.Fired != want[i-100] {
					t.Errorf("clone state %d: fired=%t err=%v, want fired=%t", i, res.Fired, err, want[i-100])
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
