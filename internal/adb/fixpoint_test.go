package adb

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ptlactive/internal/core"
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
// each evaluator's settled state must be those of the coarse engine, which
// never hints, so never replays. A failed step leaves the rule's cursor at the
// failed state, which every later sweep retries with a full step, so the
// wake loop never sees the rule again; that an error clears the
// evaluator's own fixpoint is core's twin check (FlakyFormula).
//
// The quiescent trigger "flaky() above 3", registered first so that its
// error is the one each commit returns, replays its rest record over the
// untouched commits; its failed step must leave the record invalid, so each
// later commit steps it and fails again, as the coarse engine does. Its
// replays count no step, so EvalSteps is not compared.
func TestFixpointErrorMatchesCoarse(t *testing.T) {
	run := func(coarse bool) (errs []string, firings []Firing, states map[string]string) {
		e := newEngine(Config{
			Registry: flakyRegistry(t),
			Initial:  map[string]value.Value{"a": value.NewInt(5), "b": value.NewInt(0)},
		}, coarse)
		if err := e.AddTrigger("quiet", `flaky() > 3`, nil, WithScheduling(Relevant)); err != nil {
			t.Fatal(err)
		}
		if !coarse && e.index["quiet"].class != classQuiescent {
			t.Fatal("quiet is not quiescent")
		}
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
		return errs, e.Firings(), settledStates(t, e)
	}
	wantErrs, wantFirings, wantStates := run(true)
	gotErrs, gotFirings, gotStates := run(false)
	if !reflect.DeepEqual(gotErrs, wantErrs) {
		t.Fatalf("errors diverge:\n coarse:  %q\n indexed: %q", wantErrs, gotErrs)
	}
	if !reflect.DeepEqual(gotFirings, wantFirings) {
		t.Fatalf("firings diverge:\n coarse:  %v\n indexed: %v", wantFirings, gotFirings)
	}
	if !reflect.DeepEqual(gotStates, wantStates) {
		t.Fatalf("evaluators diverge: coarse %v, indexed %v", wantStates, gotStates)
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
// Nor does a Relevant rule that is not temporal and whose event never
// occurs: it jumps to the newest state when it wakes, so Compact does not
// wait for its cursor, on either engine.
func TestSteppedStatesNotPinned(t *testing.T) {
	for _, mk := range []struct {
		name string
		new  func(Config) *Engine
	}{{"indexed", NewEngine}, {"coarse", NewCoarseEngine}} {
		t.Run(mk.name, func(t *testing.T) { testSteppedStatesNotPinned(t, mk.new) })
	}
}

func testSteppedStatesNotPinned(t *testing.T, newEngine func(Config) *Engine) {
	e := newEngine(Config{Initial: map[string]value.Value{"k": value.NewInt(500), "other": value.NewInt(0)}})
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
	// initial one, is not a commit). alarm, entered now, observes from the
	// newest state on, which it never reads: no alarm occurs.
	if err := e.AddTrigger("alarm", `@alarm(X)`, nil, WithScheduling(Relevant)); err != nil {
		t.Fatal(err)
	}
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

// settledStates reads each rule's encoded evaluator state as Engine.settle
// would leave it, without settling: the probe applies the re-stamp a rule
// owes between a Mark and a Rollback, which undo it, so the settle points
// under test still find it owed.
func settledStates(t *testing.T, e *Engine) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, r := range e.rules {
		ts := owedRestamp(e, r)
		if ts != math.MinInt64 {
			r.ev.Mark()
			r.ev.(*core.FastEvaluator).Restamp(ts)
		}
		enc, err := core.EncodeEvaluatorState(r.ev)
		if err != nil {
			t.Fatal(err)
		}
		out[r.name] = string(enc)
		if ts != math.MinInt64 {
			r.ev.Rollback()
		}
	}
	return out
}

// owedRestamp is the time Engine.settle would re-stamp r's evaluator with,
// math.MinInt64 if none.
func owedRestamp(e *Engine, r *rule) int64 {
	if g := r.group; r.parked && r.wake != wakeParked && g.cursor > r.cursor {
		return g.ts
	}
	return math.MinInt64
}

// TestRestingTriggerCountsEveryState: an edge trigger of either
// sparse-temporal shape — a rise, and a fall after a peak — whose fixpoint
// step at a commit replays false rests in the parked set, and its steps are
// counted instead of taken. After every operation the step counter, the
// firings and each rule's evaluator, settled, must be the coarse engine's
// — for a memory engine and for a durable twin checkpointed and restored
// while rules rest — across event-only and abort states between commits
// (the sweep counts them at the next commit), Compact (which moves the
// parked cursor and every cursor field alike), a snapshot (which settles a
// resting rule without waking it), Flush (which wakes every rule) and
// writes to a rule's item (which wake that rule, settled). Settling in the
// probe would apply the re-stamps the settle points owe, so settledStates
// only looks. Beside them, "doubled within 10" on k3 reads
// the clock only through its time bound: it rests false with no deadline
// until k3 doubles, then replays true in the standing list until the old
// sample's deadline, and rests again — so the snapshots and Compact find
// it resting, and the settles re-stamp its sample with the time of the
// last state it rested over.
func TestRestingTriggerCountsEveryState(t *testing.T) {
	keys := []string{"k0", "k1", "k2", "k3"}
	config := func() Config {
		initial := map[string]value.Value{"o": value.NewInt(0)}
		for _, k := range keys {
			initial[k] = value.NewInt(500)
		}
		return Config{Initial: initial}
	}
	register := func(e *Engine) {
		for _, k := range keys {
			mustAdd(t, e, "rise_"+k, fmt.Sprintf(`item(%q) > 800 and lasttime item(%q) <= 800`, k, k), nil)
			mustAdd(t, e, "fall_"+k, fmt.Sprintf(`item(%q) < 200 and lasttime (item(%q) >= 200 and previously item(%q) > 800)`, k, k, k), nil)
		}
		mustAdd(t, e, "doubled_k3", `[t <- time] [x <- item("k3")] previously (item("k3") <= 0.5 * x and time >= t - 10)`, nil)
	}
	ref, idx := NewCoarseEngine(config()), NewEngine(config())
	dir := t.TempDir()
	durCfg := config()
	durCfg.Durability, durCfg.NoFsync = DurabilityWAL, true
	dur, err := Restore(durCfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { dur.Close() }()
	for _, e := range []*Engine{ref, idx, dur} {
		register(e)
	}

	set := func(item string, v int64) func(*Engine) error {
		return func(e *Engine) error { return e.Exec(e.Now()+1, map[string]value.Value{item: value.NewInt(v)}) }
	}
	emit := func(e *Engine) error { return e.Emit(e.Now()+1, event.New("tick")) }
	abort := func(e *Engine) error { return e.Begin().Abort(e.Now() + 1) }
	compact := func(e *Engine) error { e.Compact(); return nil }
	flush := func(e *Engine) error { return e.Flush() }
	var refSnap []byte
	snapshot := func(e *Engine) error {
		if e == dur {
			if err := e.Checkpoint(); err != nil {
				return err
			}
			if err := e.Close(); err != nil {
				return err
			}
			dur, err = Restore(durCfg, dir)
			return err
		}
		var buf bytes.Buffer
		if err := e.SaveSnapshot(&buf); err != nil {
			return err
		}
		if e == ref {
			refSnap = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), refSnap) {
			t.Fatalf("snapshot bytes diverge:\n coarse:  %s\n indexed: %s", refSnap, buf.Bytes())
		}
		return nil
	}
	ops := []struct {
		name string
		do   func(*Engine) error
	}{
		{"commit o", set("o", 1)}, // every rule steps in full and sits at a fixpoint
		{"commit o", set("o", 2)}, // every rule rests
		{"commit o", set("o", 3)},
		{"emit", emit},
		{"abort", abort},
		{"emit", emit},
		{"commit o after event and abort states", set("o", 4)},
		{"compact", compact},
		{"emit", emit},
		{"commit k0 rises", set("k0", 900)},
		{"commit o", set("o", 5)},
		{"commit k0 stays high", set("k0", 950)},
		{"emit", emit},
		{"commit k1 rises", set("k1", 850)},
		{"commit k3 doubles", set("k3", 1000)},
		{"commit o", set("o", 6)},
		{"snapshot", snapshot},
		{"emit", emit},
		{"commit o", set("o", 7)},
		{"commit o", set("o", 8)},
		{"commit k0 falls", set("k0", 100)},
		{"abort", abort},
		{"flush", flush},
		{"commit o", set("o", 9)},
		{"emit", emit},
		{"commit o", set("o", 10)},
		{"compact", compact},
		{"commit k1 falls", set("k1", 150)},
		{"emit", emit},
		{"snapshot", snapshot},
		{"commit o", set("o", 11)},
		{"commit k2 rises", set("k2", 801)},
		{"commit o", set("o", 12)},
	}
	restedOver := map[string]int{} // most states a rule of each shape rested over
	deadline := false              // doubled_k3 replays until a deadline ahead
	for i, op := range ops {
		for _, e := range []*Engine{ref, idx, dur} {
			if err := op.do(e); err != nil {
				t.Fatalf("op %d (%s): %v", i, op.name, err)
			}
		}
		want := settledStates(t, ref)
		for _, arm := range []struct {
			name string
			e    *Engine
		}{{"indexed", idx}, {"durable", dur}} {
			if got, w := arm.e.EvalSteps(), ref.EvalSteps(); got != w {
				t.Fatalf("op %d (%s): %s engine counts %d eval steps, coarse %d", i, op.name, arm.name, got, w)
			}
			if !firingsEqual(arm.e.Firings(), ref.Firings()) {
				t.Fatalf("op %d (%s): %s firings diverge:\n coarse: %v\n %s: %v", i, op.name, arm.name, ref.Firings(), arm.name, arm.e.Firings())
			}
			if got := settledStates(t, arm.e); !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d (%s): %s evaluators diverge:\n coarse: %v\n %s: %v", i, op.name, arm.name, want, arm.name, got)
			}
		}
		for _, r := range idx.rules {
			if shape := r.name[:4]; r.parked {
				restedOver[shape] = max(restedOver[shape], idx.parked.cursor-r.cursor)
			}
			deadline = deadline || r.name == "doubled_k3" && r.rest.ok && idx.Now() < r.rest.until && r.rest.until < math.MaxInt64
		}
	}
	// The trace must exercise what it names: both shapes rest, and across
	// more than the one commit that parked them.
	for _, shape := range []string{"rise", "fall", "doub"} {
		if restedOver[shape] < 2 {
			t.Errorf("no %s rule rested over more than one state (%d)", shape, restedOver[shape])
		}
	}
	if !deadline {
		t.Error("doubled_k3 never sat at a fixpoint with a deadline ahead")
	}
	doubled := 0
	for _, f := range ref.Firings() {
		if f.Rule == "doubled_k3" {
			doubled++
		}
	}
	if n := len(ref.Firings()) - doubled; n != 6 || doubled != 10 {
		t.Errorf("%d firings and %d of doubled_k3, want 6 (four rises, two falls) and 10 (ts 14 to 23: k3 was 500 at ts 13)", n, doubled)
	}
}
