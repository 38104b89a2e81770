package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/history"
	"ptlactive/internal/ptl"
	"ptlactive/internal/ptlgen"
	"ptlactive/internal/query"
	"ptlactive/internal/value"
)

// fixpointFamilies are the formula generators the fixpoint property runs
// over, each with the history its formulas read; param ones also read an
// execution log of the history. floor is how many steps per formula the
// hinted twins of the family must replay at least, on average: parameters
// never replay, and about a third of the metric formulas read no event,
// so their time-bounded registers rest until a deadline.
var fixpointFamilies = []struct {
	name    string
	formula func(*rand.Rand) ptl.Formula
	history func(*rand.Rand, int) *history.History
	param   bool
	floor   int
}{
	{"Formula", func(r *rand.Rand) ptl.Formula { return ptlgen.Formula(r, 1+r.Intn(4)) }, ptlgen.History, false, 4},
	{"LinearFormula", func(r *rand.Rand) ptl.Formula { return ptlgen.LinearFormula(r, 1+r.Intn(4)) }, ptlgen.History, false, 4},
	{"FormulaWithAggregates", func(r *rand.Rand) ptl.Formula { return ptlgen.FormulaWithAggregates(r, 1+r.Intn(3)) }, ptlgen.History, false, 8},
	{"ParamFormula", func(r *rand.Rand) ptl.Formula { return ptlgen.ParamFormula(r, 1+r.Intn(3)) }, ptlgen.ParamHistory, true, 0},
	{"MetricFormula", ptlgen.MetricFormula, ptlgen.MetricHistory, false, 2},
	{"FlakyFormula", flakyFormula, ptlgen.History, false, 20},
}

// flakyRegistry is ptlgen.Registry with flaky(), a pure query over item a
// that returns it, but fails where it is 7.
func flakyRegistry() *query.Registry {
	reg := ptlgen.Registry()
	err := reg.RegisterPure("flaky", 0, []string{"a"}, func(st history.SystemState, _ []value.Value) (value.Value, error) {
		v, _ := st.DB.Get("a")
		if v.Equal(value.NewInt(7)) {
			return value.Value{}, errors.New("flaky: a is 7")
		}
		return v, nil
	})
	if err != nil {
		panic(err)
	}
	return reg
}

// flakyFormula is a pure closed condition that calls flaky(): a comparison
// of it under one to three of not, lasttime, since, and and or with
// comparisons of items. A step at a state where a is 7 fails, and so must
// every step after it while a stays 7, hinted or not: an error is no
// fixpoint.
func flakyFormula(rng *rand.Rand) ptl.Formula {
	ops := []value.CmpOp{value.EQ, value.NE, value.LT, value.LE, value.GT, value.GE}
	cmp := func(q ptl.Term) ptl.Formula {
		return ptl.Compare(ops[rng.Intn(len(ops))], q, ptl.CInt(int64(rng.Intn(10))))
	}
	item := func() ptl.Formula { return cmp(ptl.Q("item", ptl.CStr(ptlgen.Items[rng.Intn(len(ptlgen.Items))]))) }
	f := cmp(ptl.Q("flaky"))
	for k := 1 + rng.Intn(3); k > 0; k-- {
		switch rng.Intn(6) {
		case 0:
			f = &ptl.Not{F: f}
		case 1:
			f = &ptl.Lasttime{F: f}
		case 2:
			f = &ptl.Since{L: f, R: item(), Bound: ptl.Unbounded}
		case 3:
			f = &ptl.Since{L: item(), R: f, Bound: ptl.Unbounded}
		case 4:
			f = &ptl.And{L: item(), R: f}
		default:
			f = &ptl.Or{L: f, R: item()}
		}
	}
	return f
}

// quietHistory is h with a run of one to five states that change no item
// after about one state in three: event states, whose events and
// timestamps still move.
func quietHistory(rng *rand.Rand, h *history.History) *history.History {
	out, shift := history.New(), int64(0)
	for i := 0; i < h.Len(); i++ {
		st := h.At(i)
		st.TS += shift
		out.MustAppend(st)
		if rng.Intn(3) != 0 {
			continue
		}
		for n := 1 + rng.Intn(5); n > 0; n-- {
			var evs []event.Event
			for _, ev := range h.At(rng.Intn(h.Len())).Events.Events() {
				if ev.Name != event.TransactionCommit {
					evs = append(evs, ev)
				}
			}
			if len(evs) == 0 {
				evs = append(evs, event.New("tick"))
			}
			d := int64(1 + rng.Intn(3))
			st = history.SystemState{DB: st.DB, Events: event.NewSet(evs...), TS: st.TS + d}
			shift += d
			out.MustAppend(st)
		}
	}
	return out
}

// checkFixpoint draws a formula of family fam and a history of about 60
// states with quiet runs, and steps twins of the formula over it
// (stepTwins), marking and rolling back a discarded step before about one
// state in four. It returns the number of steps the hinted twin replayed
// from its last verdict; a formula outside the fast class replays none.
func checkFixpoint(t testing.TB, seed int64, fam int) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	family := fixpointFamilies[fam]
	f := family.formula(rng)
	h := quietHistory(rng, family.history(rng, 30))
	var log ptl.ExecLog
	if family.param {
		log = ptlgen.ParamLog(rng, h)
	}
	reg := flakyRegistry()
	info, err := ptl.Check(f, reg)
	if err != nil {
		t.Fatalf("%s seed %d: %v\n%s", family.name, seed, err, f)
	}
	hinted, err := NewFast(info, reg, log)
	if err != nil {
		return 0
	}
	plain, err := NewFast(info, reg, log)
	if err != nil {
		t.Fatal(err)
	}
	_, replays := stepTwins(t, fmt.Sprintf("%s seed %d", family.name, seed), hinted, plain, h, rng)
	return replays
}

// stepTwins steps two fast evaluators of one formula over h: hinted at
// every state without a commit, plain never. With rng, before about one
// state in four both mark, step a discarded state (hinted or not alike) and
// roll back. At every state they must agree on the verdict and the encoded
// state, re-stamps included. It returns the verdicts and the number of steps the hinted
// twin replayed.
func stepTwins(t testing.TB, name string, hinted, plain *FastEvaluator, h *history.History, rng *rand.Rand) (verdicts []bool, replays int) {
	t.Helper()
	f := hinted.info.Normalized
	for i := 0; i < h.Len(); i++ {
		st := h.At(i)
		prev := h.At(max(i-1, 0)).DB
		if rng != nil && rng.Intn(4) == 0 {
			discard := h.At(rng.Intn(h.Len()))
			discard.TS = st.TS
			hint := i > 0 && rng.Intn(2) == 0
			if hint {
				discard.DB = prev
			}
			hinted.Mark()
			plain.Mark()
			_, _ = hinted.StepResultHinted(discard, hint)
			_, _ = plain.StepResultHinted(discard, false)
			hinted.Rollback()
			plain.Rollback()
		}
		// The hint asks for identity, which history.Append keeps at a state
		// without a commit; DBState.Equal holds Int 8 and Float 8 equal.
		hint := i > 0 && st.Events.CommitCount() == 0
		if hint && hinted.fixed && st.TS < hinted.until {
			replays++
		}
		got, gerr := hinted.StepResultHinted(st, hint)
		want, werr := plain.StepResultHinted(st, false)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !resultsEqual(got, want) {
			t.Fatalf("%s state %d: hinted fired %+v (%v), unhinted %+v (%v)\nformula: %s",
				name, i, got, gerr, want, werr, f)
		}
		verdicts = append(verdicts, got.Fired)
		gs, err := EncodeEvaluatorState(hinted)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := EncodeEvaluatorState(plain)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gs, ws) {
			t.Fatalf("%s state %d: encoded states differ\nformula: %s\nhinted:   %s\nunhinted: %s", name, i, f, gs, ws)
		}
	}
	return verdicts, replays
}

// TestFixpointReplayMatchesUnhinted is the fixpoint property of the fast
// path: a pure closed condition whose last step moved no register answers
// a hinted step before its deadline from its last verdict, re-stamping its
// metric registers, and that is what a full step gives — across every
// generated family, quiet runs, and marked steps rolled back. The hinted
// twins of each family must replay a good share of their steps (floor), or
// the property was never put to the test there.
func TestFixpointReplayMatchesUnhinted(t *testing.T) {
	iters := 600
	if testing.Short() {
		iters = 150
	}
	replays := make([]int, len(fixpointFamilies))
	for seed := 0; seed < iters; seed++ {
		replays[seed%len(fixpointFamilies)] += checkFixpoint(t, int64(seed), seed%len(fixpointFamilies))
	}
	for fam, n := range replays {
		family := fixpointFamilies[fam]
		if floor := iters / len(fixpointFamilies) * family.floor; n < floor {
			t.Errorf("%s: hinted twins replayed %d steps, want at least %d", family.name, n, floor)
		}
		t.Logf("%s: %d replayed steps over %d formulas", family.name, n, iters/len(fixpointFamilies))
	}
}

// TestFixpointDeadline pins the time-bounded fixpoint on hand-built
// histories, hinted twin against unhinted (stepTwins):
//   - doubled within 10 — a rose to at least twice a value it held — rests
//     true after the rise, and when the old value's sample expires, with no
//     write, its verdict flips at the state the unhinted twin's does; and
//     with `t > 12 or` before it, a read of the captured time outside the
//     bound, the condition reads the clock, and turns true at ts 13;
//   - an Int 8 rewritten to Float 8 (a commit, so unhinted) enters Float 8
//     in place of Int 8: the replays re-stamp the new sample, and the
//     encoded states show the float;
//   - a float bound never wakes late: `time >= t - 2.5` is no time bound
//     (ptl admits integer constants) and runs on the general evaluator;
//     an integer bound's deadline is the first time value.Cmp expires the
//     sample, under >= and >, saturating at the end of the range.
func TestFixpointDeadline(t *testing.T) {
	reg := query.NewRegistry()
	twins := func(cond string) (*FastEvaluator, *FastEvaluator) {
		t.Helper()
		f, err := ptl.Parse(cond)
		if err != nil {
			t.Fatal(err)
		}
		info, err := ptl.Check(f, reg)
		if err != nil {
			t.Fatal(err)
		}
		hinted, err := NewFast(info, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		plain, _ := NewFast(info, reg, nil)
		return hinted, plain
	}
	// commits sets item a at ts 1 .. len(vals), then ticks reach ts end.
	build := func(end int64, vals ...value.Value) *history.History {
		b := history.NewBuilder(history.EmptyDB().With("a", value.NewInt(4)), 0)
		for i, v := range vals {
			if err := b.Commit(int64(i+1), int64(i+1), map[string]value.Value{"a": v}); err != nil {
				t.Fatal(err)
			}
		}
		for ts := b.Now() + 1; ts <= end; ts++ {
			if err := b.Event(ts, event.New("tick")); err != nil {
				t.Fatal(err)
			}
		}
		return b.History()
	}

	hinted, plain := twins(`[t <- time] [x <- item("a")] previously (item("a") <= 0.5 * x and time >= t - 10)`)
	h := build(20, value.NewInt(10))
	verdicts, replays := stepTwins(t, "doubled", hinted, plain, h, nil)
	// a is 4 at ts 0 and 10 from ts 1: doubled until the sample (0, 4)
	// fails time >= t - 10, at ts 11.
	for i, v := range verdicts {
		if want := h.At(i).TS >= 1 && h.At(i).TS < 11; v != want {
			t.Fatalf("doubled at ts %d: %v, want %v", h.At(i).TS, v, want)
		}
	}
	if want := h.Len() - 3; replays != want { // all but ts 0, the commit and the expiry
		t.Fatalf("doubled replayed %d steps, want %d", replays, want)
	}
	hinted, plain = twins(`[t <- time] [x <- item("a")] (t > 12 or previously (item("a") <= 0.5 * x and time >= t - 10))`)
	verdicts, replays = stepTwins(t, "doubled or late", hinted, plain, h, nil)
	if !verdicts[len(verdicts)-1] || replays != 0 {
		t.Fatalf("doubled or late: %v at ts 20 after %d replays, want true after none", verdicts[len(verdicts)-1], replays)
	}

	hinted, plain = twins(`[t <- time] [x <- item("a")] previously (item("a") >= x and time >= t - 3)`)
	h = build(9, value.NewInt(8), value.NewInt(8), value.NewFloat(8))
	if _, replays = stepTwins(t, "rewrite", hinted, plain, h, nil); replays != 6 {
		t.Fatalf("rewrite replayed %d steps, want 6", replays)
	}
	enc, err := EncodeEvaluatorState(hinted)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(enc, []byte(`"metric":[[{"t":9,"v":{"float":8}}]]`)) {
		t.Fatalf("rewrite: the replays did not re-stamp the Float 8 sample: %s", enc)
	}

	f, err := ptl.Parse(`[t <- time] [x <- item("a")] previously (item("a") <= 0.5 * x and time >= t - 2.5)`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := ptl.Check(f, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFast(info, reg, nil); err == nil {
		t.Fatal("a float bound runs on the fast path: pin its deadline on a stepped twin")
	}
	for _, op := range []value.CmpOp{value.GE, value.GT} {
		for _, d := range []int64{0, 1, 10, math.MaxInt64 - 5} {
			if d == 0 && op == value.GT {
				continue // not a bound: the instant binding t fails it
			}
			for _, ts := range []int64{-3, 0, 7, math.MaxInt64 - 20, math.MaxInt64 - 1} {
				r := &metricReg{bound: op, d: value.NewInt(d)}
				r.q[numClass].s = []sample{{t: ts}}
				live := func(now int64) bool { return value.Cmp(op, value.NewInt(ts), value.NewInt(now-d)) }
				if got := r.deadline(); got <= ts || !live(got-1) || got < math.MaxInt64 && live(got) {
					t.Fatalf("time %s t - %d, sample at %d: deadline %d, but live there %t and before %t", op, d, ts, got, live(got), live(got-1))
				}
			}
		}
	}
}

// FuzzFixpointReplay runs TestFixpointReplayMatchesUnhinted's twins on the
// formula and history a seed draws.
func FuzzFixpointReplay(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkFixpoint(t, seed, int(uint64(seed)%uint64(len(fixpointFamilies))))
	})
}
