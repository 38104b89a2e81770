package adb

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ptlactive/internal/event"
	"ptlactive/internal/history"
	"ptlactive/internal/query"
	"ptlactive/internal/value"
)

// flakyRegistry registers flaky(), a pure query over item a that returns
// it, but fails where it is 7.
func flakyRegistry(t *testing.T) *query.Registry {
	t.Helper()
	reg := query.NewRegistry()
	err := reg.RegisterPure("flaky", 0, []string{"a"}, func(st history.SystemState, _ []value.Value) (value.Value, error) {
		v, _ := st.DB.Get("a")
		if v.Equal(value.NewInt(7)) {
			return value.Value{}, errors.New("flaky: a is 7")
		}
		return v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestFixpointErrorMatchesCoarse: a trigger at a fixpoint whose query then
// fails takes no fixpoint step. The level trigger "flaky() stayed above 3"
// sits at a true fixpoint over commits and events that leave a alone, and
// the edge trigger "flaky() rose above 3" at a false one, each Eager and
// Relevant; then a commit sets a to 7 and untouched commits and events
// follow. Every operation must return the same error, and the firings and
// each evaluator's Steps() must be those of the coarse engine, which never
// hints, so never replays. A failed step leaves the rule's cursor at the
// failed state, which every later sweep retries with a full step, so the
// wake loop never sees the rule again; that an error clears the
// evaluator's own fixpoint is core's twin check (FlakyFormula).
func TestFixpointErrorMatchesCoarse(t *testing.T) {
	run := func(coarse bool) (errs []string, firings []Firing, steps map[string]int) {
		e := newEngine(Config{
			Registry: flakyRegistry(t),
			Initial:  map[string]value.Value{"a": value.NewInt(5), "b": value.NewInt(0)},
		}, coarse)
		for _, rule := range [][2]string{
			{"level", `flaky() > 3 and lasttime flaky() > 3`},
			{"edge", `flaky() > 3 and lasttime flaky() <= 3`},
		} {
			for _, sched := range []Scheduling{Eager, Relevant} {
				if err := e.AddTrigger(fmt.Sprintf("%s_%d", rule[0], sched), rule[1], nil, WithScheduling(sched)); err != nil {
					t.Fatal(err)
				}
			}
		}
		ts := int64(0)
		for _, a := range []int64{-1, -1, -1, 7, -1, -1, -1} {
			ts++
			upd := map[string]value.Value{"b": value.NewInt(ts)}
			if a >= 0 {
				upd = map[string]value.Value{"a": value.NewInt(a)}
			}
			errs = append(errs, fmt.Sprint(e.Exec(ts, upd)))
			ts++
			errs = append(errs, fmt.Sprint(e.Emit(ts, event.New("tick"))))
		}
		steps = map[string]int{}
		for _, r := range e.rules {
			r.settle()
			steps[r.name] = r.ev.(interface{ Steps() int }).Steps()
		}
		return errs, e.Firings(), steps
	}
	wantErrs, wantFirings, wantSteps := run(true)
	gotErrs, gotFirings, gotSteps := run(false)
	if !reflect.DeepEqual(gotErrs, wantErrs) {
		t.Fatalf("errors diverge:\n coarse:  %q\n indexed: %q", wantErrs, gotErrs)
	}
	if !reflect.DeepEqual(gotFirings, wantFirings) {
		t.Fatalf("firings diverge:\n coarse:  %v\n indexed: %v", wantFirings, gotFirings)
	}
	if !reflect.DeepEqual(gotSteps, wantSteps) {
		t.Fatalf("evaluator steps diverge: coarse %v, indexed %v", wantSteps, gotSteps)
	}
	failed := 0
	for _, err := range gotErrs {
		if err != "<nil>" {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no operation failed")
	}
}

// TestSteppedStatesNotPinned: an evaluator keeps no system state between
// steps, so one the sweep stops calling — a fast one at a fixpoint, stepped
// in the wake loop, or a Manual rule's general one after a Flush — does not
// pin the database and events of the last state it stepped. Once Compact
// drops the states up to the Flush, each one's event set must be collected.
func TestSteppedStatesNotPinned(t *testing.T) {
	e := NewEngine(Config{Initial: map[string]value.Value{"k": value.NewInt(500), "other": value.NewInt(0)}})
	if err := e.AddTrigger("rose", `item("k") > 800 and lasttime item("k") <= 800`, nil, WithScheduling(Relevant)); err != nil {
		t.Fatal(err)
	}
	// Outside the fast path: the general evaluator.
	if err := e.AddTrigger("manual", `@e1(U) or item("k") > 3`, nil, WithScheduling(Manual)); err != nil {
		t.Fatal(err)
	}
	ts := int64(0)
	commit := func(item string, v int64) {
		t.Helper()
		ts++
		if err := e.Exec(ts, map[string]value.Value{item: value.NewInt(v)}, event.New("e1", value.NewInt(ts))); err != nil {
			t.Fatal(err)
		}
	}
	commit("k", 900)
	commit("k", 600)
	for i := 0; i < 5; i++ {
		commit("other", int64(i))
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// rose last evaluated at the first commit to other, manual at the
	// newest state; states 1 to the newest are watched (state 0, the
	// initial one, is not a commit).
	var freed atomic.Int64
	watched := e.hist.Len() - 1
	for i := 1; i <= watched; i++ {
		runtime.SetFinalizer(e.hist.At(i).Events, func(*event.Set) { freed.Add(1) })
	}
	for i := 0; i < 5; i++ {
		commit("other", int64(10+i))
	}
	if n := e.Compact(); n != watched+1 {
		t.Fatalf("Compact dropped %d states, want %d", n, watched+1)
	}
	for i := 0; i < 50 && freed.Load() < int64(watched); i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if got := freed.Load(); got != int64(watched) {
		t.Fatalf("%d of the %d dropped commit states' event sets were collected", got, watched)
	}
	runtime.KeepAlive(e) // and with it every evaluator
}
