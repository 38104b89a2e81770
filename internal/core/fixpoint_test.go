package core

import (
	"bytes"
	"errors"
	"fmt"
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
// execution log of the history.
var fixpointFamilies = []struct {
	name    string
	formula func(*rand.Rand) ptl.Formula
	history func(*rand.Rand, int) *history.History
	param   bool
}{
	{"Formula", func(r *rand.Rand) ptl.Formula { return ptlgen.Formula(r, 1+r.Intn(4)) }, ptlgen.History, false},
	{"LinearFormula", func(r *rand.Rand) ptl.Formula { return ptlgen.LinearFormula(r, 1+r.Intn(4)) }, ptlgen.History, false},
	{"FormulaWithAggregates", func(r *rand.Rand) ptl.Formula { return ptlgen.FormulaWithAggregates(r, 1+r.Intn(3)) }, ptlgen.History, false},
	{"ParamFormula", func(r *rand.Rand) ptl.Formula { return ptlgen.ParamFormula(r, 1+r.Intn(3)) }, ptlgen.ParamHistory, true},
	{"MetricFormula", ptlgen.MetricFormula, ptlgen.MetricHistory, false},
	{"FlakyFormula", flakyFormula, ptlgen.History, false},
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
// states with quiet runs, and steps two fast evaluators of the formula over
// it: one hinted at every state without a commit, one never. Before
// about one state in four both mark, step a discarded state (hinted or not
// alike) and roll back. At every state they must agree on the verdict,
// Steps() and the encoded state. It returns the number of steps the hinted
// twin replayed from its last verdict; a formula outside the fast class
// replays none.
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
	replays := 0
	for i := 0; i < h.Len(); i++ {
		st := h.At(i)
		prev := h.At(max(i-1, 0)).DB
		if rng.Intn(4) == 0 {
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
		if hint && hinted.fixed {
			replays++
		}
		got, gerr := hinted.StepResultHinted(st, hint)
		want, werr := plain.StepResultHinted(st, false)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !resultsEqual(got, want) || hinted.Steps() != plain.Steps() {
			t.Fatalf("%s seed %d state %d: hinted fired %+v (%v) after %d steps, unhinted %+v (%v) after %d\nformula: %s",
				family.name, seed, i, got, gerr, hinted.Steps(), want, werr, plain.Steps(), f)
		}
		gs, err := EncodeEvaluatorState(hinted)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := EncodeEvaluatorState(plain)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gs, ws) {
			t.Fatalf("%s seed %d state %d: encoded states differ\nformula: %s\nhinted:   %s\nunhinted: %s", family.name, seed, i, f, gs, ws)
		}
	}
	return replays
}

// TestFixpointReplayMatchesUnhinted is the fixpoint property of the fast
// path: a pure closed condition whose last step moved no register answers
// a hinted step from its last verdict, and that is what a full step gives
// — across every generated family, quiet runs, and marked steps rolled
// back. The hinted twins must replay a good share of their steps, or the
// property was never put to the test.
func TestFixpointReplayMatchesUnhinted(t *testing.T) {
	iters := 600
	if testing.Short() {
		iters = 150
	}
	replays := 0
	for seed := 0; seed < iters; seed++ {
		replays += checkFixpoint(t, int64(seed), seed%len(fixpointFamilies))
	}
	if floor := iters * 3; replays < floor {
		t.Fatalf("hinted twins replayed %d steps over %d formulas, want at least %d", replays, iters, floor)
	}
	t.Logf("%d replayed steps over %d formulas", replays, iters)
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
