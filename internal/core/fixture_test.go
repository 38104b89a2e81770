package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/history"
	"ptlactive/internal/ptlgen"
	"ptlactive/internal/value"
)

// stateFixtures are the conditions whose evaluator state is pinned on disk.
// Registers are saved positionally, so the order in which an evaluator
// enumerates its since/lasttime occurrences is part of the snapshot format;
// the aggregate shapes are the ones where that order is not plain preorder
// (a start/sampling formula contributes itself after the enclosing node's
// formula children, and nothing below it).
var stateFixtures = []struct{ name, cond string }{
	{"fast", `(item("a") > 2 since lasttime @u) or lasttime lasttime @w`},
	{"temporal", `[x <- item("a")] (previously <= 6 (item("b") > x and lasttime @u) and lasttime (item("a") <= x))`},
	{"sample_lasttime", `lasttime @u and sum(item("a"); @s; lasttime @w) > 3`},
	{"sample_nested", `sum(item("a"); previously @s; (@u and lasttime @w)) > 3 and lasttime true`},
	{"assign_agg", `[x <- sum(item("a"); @s; lasttime @w)] lasttime (item("b") < x)`},
}

const (
	fixtureStates = 18
	fixtureCut    = 9
)

// fixtureHistory is a fixed trace over items a, b and events s, u, w.
func fixtureHistory() *history.History {
	db := history.EmptyDB().With("a", value.NewInt(1)).With("b", value.NewInt(4))
	b := history.NewBuilder(db, 0)
	for i := 1; i < fixtureStates; i++ {
		var evs []event.Event
		if i%7 == 2 {
			evs = append(evs, event.New("s"))
		}
		if i%2 == 0 {
			evs = append(evs, event.New("u"))
		}
		if i%3 != 1 {
			evs = append(evs, event.New("w"))
		}
		updates := map[string]value.Value{
			"a": value.NewInt(int64(i * 3 % 7)),
			"b": value.NewInt(int64(i * 5 % 11)),
		}
		if err := b.Commit(int64(2*i), int64(i), updates, evs...); err != nil {
			panic(err)
		}
	}
	return b.History()
}

func fixturePath(name string) string {
	return filepath.Join("testdata", "evalstate_"+name+".json")
}

// TestEvaluatorStateFixtures restores evaluator state written by the commit
// before core took the register enumeration over from ptl.Walk, and checks
// that this code encodes the same bytes at the same point, but for the
// step count every evaluator state carried then (withoutSteps), and
// continues step for step with an uninterrupted twin. The files are never
// regenerated to make a change pass: a difference here is a snapshot format
// break (CORE_WRITE_FIXTURES=1 rewrites them for a deliberate one).
func TestEvaluatorStateFixtures(t *testing.T) {
	h := fixtureHistory()
	for _, fx := range stateFixtures {
		t.Run(fx.name, func(t *testing.T) {
			f := mustParse(t, fx.cond)
			twin := compileAuto(t, f)
			for i := 0; i < fixtureCut; i++ {
				if _, err := twin.StepResult(h.At(i)); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			now, err := EncodeEvaluatorState(twin)
			if err != nil {
				t.Fatal(err)
			}
			if os.Getenv("CORE_WRITE_FIXTURES") != "" {
				if err := os.WriteFile(fixturePath(fx.name), now, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			saved, err := os.ReadFile(fixturePath(fx.name))
			if err != nil {
				t.Fatal(err)
			}
			if want := withoutSteps(t, saved); !bytes.Equal(now, want) {
				t.Fatalf("state after %d steps encodes differently:\n now:   %s\n saved: %s", fixtureCut, now, want)
			}
			restored, err := RestoreEvaluatorState(compileAuto(t, f), saved)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			fires := 0
			for i := fixtureCut; i < h.Len(); i++ {
				want, err := twin.StepResult(h.At(i))
				if err != nil {
					t.Fatalf("twin step %d: %v", i, err)
				}
				got, err := restored.StepResult(h.At(i))
				if err != nil {
					t.Fatalf("restored step %d: %v", i, err)
				}
				if !resultsEqual(want, got) {
					t.Fatalf("state %d: restored %+v, twin %+v", i, got, want)
				}
				if got.Fired {
					fires++
				}
			}
			// A condition that never changes value after the cut would pass
			// with any registers restored.
			if fires == 0 || fires == h.Len()-fixtureCut {
				t.Fatalf("fixture trace does not exercise the condition after the cut: fired at %d of %d states", fires, h.Len()-fixtureCut)
			}
			a, _ := EncodeEvaluatorState(twin)
			b, _ := EncodeEvaluatorState(restored)
			if !bytes.Equal(a, b) {
				t.Fatalf("final states differ:\n twin:     %s\n restored: %s", a, b)
			}
		})
	}
}

// stepsMember is the step count an encoded evaluator state carried, right
// after its kind, until evaluators stopped counting their steps.
var stepsMember = regexp.MustCompile(`("kind":"(?:general|fast)"),"steps":\d+`)

// withoutSteps cuts the "steps" member from every evaluator state object in
// data — an aggregate's start and sampling evaluators are objects of their
// own — requiring exactly one per object.
func withoutSteps(t *testing.T, data []byte) []byte {
	t.Helper()
	kinds := regexp.MustCompile(`"kind":"(?:general|fast)"`)
	if n, k := len(stepsMember.FindAll(data, -1)), len(kinds.FindAll(data, -1)); n != k || n == 0 {
		t.Fatalf("fixture has %d steps members for %d evaluator states", n, k)
	}
	out := stepsMember.ReplaceAll(data, []byte("$1"))
	if bytes.Contains(out, []byte(`"steps"`)) {
		t.Fatalf("fixture has a steps member outside the place an evaluator state wrote it: %s", data)
	}
	return out
}

// paramHistory is a fixed trace of tick(n), login(u), logout(u) and w.
func paramHistory() *history.History {
	b := history.NewBuilder(history.EmptyDB().With("a", value.NewInt(1)), 0)
	user := func(i int) value.Value { return value.NewString(fmt.Sprintf("u%d", i%4)) }
	for i := 1; i < fixtureStates; i++ {
		evs := []event.Event{event.New("tick", value.NewInt(int64(i%4)))}
		if i%3 == 0 {
			evs = append(evs, event.New("login", user(i)))
		}
		if i%5 == 0 {
			evs = append(evs, event.New("logout", user(i+1)))
		}
		if i%2 == 0 {
			evs = append(evs, event.New("w"))
		}
		if err := b.Event(int64(2*i), evs...); err != nil {
			panic(err)
		}
	}
	return b.History()
}

// TestParamStateFixtures restores parameterised rules' state as the
// general evaluator wrote it before the fast path took parameters
// (testdata/evalstate_param_*.json, written by that commit after
// fixtureCut states of paramHistory). The encoded kind picks the
// evaluator: a tick rule's registers are constants, so the fast evaluator
// resumes it; the session rule's graph mentions U, so the general
// evaluator does. Either fires as the uninterrupted general evaluator.
func TestParamStateFixtures(t *testing.T) {
	h := paramHistory()
	for _, fx := range []struct {
		name, cond string
		general    bool
	}{
		{"param_tick", `@tick(N) and lasttime @w and N > 1`, false},
		{"param_session", `(not @logout(U)) since @login(U)`, true},
	} {
		t.Run(fx.name, func(t *testing.T) {
			saved, err := os.ReadFile(fixturePath(fx.name))
			if err != nil {
				t.Fatal(err)
			}
			f := mustParse(t, fx.cond)
			twin, err := Compile(f, ptlgen.Registry(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < fixtureCut; i++ {
				if _, err := twin.Step(h.At(i)); err != nil {
					t.Fatal(err)
				}
			}
			restored, err := RestoreEvaluatorState(compileAuto(t, f), saved)
			if err != nil {
				t.Fatal(err)
			}
			if _, general := restored.(*Evaluator); general != fx.general {
				t.Fatalf("restored onto %T", restored)
			}
			fires := 0
			for i := fixtureCut; i < h.Len(); i++ {
				want, err := twin.Step(h.At(i))
				if err != nil {
					t.Fatal(err)
				}
				got, err := restored.StepResult(h.At(i))
				if err != nil {
					t.Fatal(err)
				}
				if !resultsEqual(want, got) {
					t.Fatalf("state %d: restored %v, uninterrupted %v", i, got.Bindings, want.Bindings)
				}
				fires += len(got.Bindings)
			}
			if fires == 0 {
				t.Fatal("the trace does not fire after the cut")
			}
		})
	}
}
