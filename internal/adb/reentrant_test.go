package adb

import (
	"errors"
	"io"
	"reflect"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/histio"
	"ptlactive/internal/history"
	"ptlactive/internal/ptl"
	"ptlactive/internal/query"
	"ptlactive/internal/value"
)

// reentrantRun registers Eager a: item("x") > 0 before Eager
// b: lasttime item("y") >= 0 on e, hands a's first firing to onA, if set,
// from an OnFiring observer, and commits x at 1 and 3.
func reentrantRun(t *testing.T, e *Engine, onA func(*Engine)) {
	t.Helper()
	for _, r := range [][2]string{{"a", `item("x") > 0`}, {"b", `lasttime item("y") >= 0`}} {
		if err := e.AddTrigger(r[0], r[1], nil, WithScheduling(Eager)); err != nil {
			t.Fatal(err)
		}
	}
	if onA != nil {
		first := true
		e.OnFiring(func(f Firing) {
			if f.Rule == "a" && first {
				first = false
				onA(e)
			}
		})
	}
	for _, c := range []struct {
		ts int64
		x  int64
	}{{1, 1}, {3, 2}} {
		if err := e.Exec(c.ts, map[string]value.Value{"x": value.NewInt(c.x)}); err != nil {
			t.Fatal(err)
		}
	}
}

func reentrantConfig() Config {
	return Config{Initial: map[string]value.Value{"x": value.NewInt(0), "y": value.NewInt(0)}}
}

// sameRun fails unless got and want agree on firings, step count, each
// rule's settled encoded evaluator, cursors and history, state by state.
func sameRun(t *testing.T, got, want *Engine) {
	t.Helper()
	if g, w := got.Firings(), want.Firings(); !reflect.DeepEqual(g, w) {
		t.Fatalf("firings diverge:\n got  %v\n want %v", g, w)
	}
	if g, w := got.EvalSteps(), want.EvalSteps(); g != w {
		t.Fatalf("EvalSteps %d, want %d", g, w)
	}
	if g, w := evaluatorStates(t, got, got), evaluatorStates(t, want, want); !reflect.DeepEqual(g, w) {
		t.Fatalf("evaluators diverge:\n got  %v\n want %v", g, w)
	}
	if g, w := ruleCursors(got), ruleCursors(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("cursors diverge: %v vs %v", g, w)
	}
	if g, w := got.History().Len(), want.History().Len(); g != w {
		t.Fatalf("history length %d, want %d", g, w)
	}
	for i := 0; i < got.History().Len(); i++ {
		g, err := histio.EncodeState(got.History().At(i))
		if err != nil {
			t.Fatal(err)
		}
		w, err := histio.EncodeState(want.History().At(i))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("state %d: %+v, want %+v", i, g, w)
		}
	}
}

// TestReentrantObserverCommit is the nested sweep an observer's commit used
// to start: b's outcome at state 1 was computed but not yet merged when
// the observer committed y, so the nested sweep stepped b over states 0–2
// again and the stale merge then moved its cursor back — b fired at
// [0 1 2 1 2 3] in 7 steps, where the commits made from outside fire it at
// [1 2 3]. Now the observer's Exec is refused and the run is the run
// without that call.
func TestReentrantObserverCommit(t *testing.T) {
	var err error
	got := NewEngine(reentrantConfig())
	reentrantRun(t, got, func(e *Engine) {
		err = e.Exec(2, map[string]value.Value{"y": value.NewInt(1)})
	})
	if !errors.Is(err, ErrReentrant) {
		t.Fatalf("observer's Exec returned %v, want ErrReentrant", err)
	}
	want := NewEngine(reentrantConfig())
	reentrantRun(t, want, nil)
	sameRun(t, got, want)
	var b []int
	for _, f := range got.Firings() {
		if f.Rule == "b" {
			b = append(b, f.StateIndex)
		}
	}
	if !reflect.DeepEqual(b, []int{1, 2}) {
		t.Fatalf("b fires at %v, want [1 2]", b)
	}
}

// TestReentrantObserverMutators calls every mutator from an observer of a,
// which is registered before b, on a durable engine: each returns
// ErrReentrant (Compact and PruneExecutions 0) and appends nothing to the
// WAL, and the engine ends as a twin whose observer only opens the two
// transactions it commits and aborts: Begin is not a mutator, and the ids it
// takes are spent. Close closed nothing: the engine still commits and closes
// afterwards.
func TestReentrantObserverMutators(t *testing.T) {
	open := func() *Engine {
		cfg := reentrantConfig()
		cfg.Durability, cfg.NoFsync = DurabilityWAL, true
		e, err := Restore(cfg, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	formula, err := ptl.Parse(`item("y") > 5`)
	if err != nil {
		t.Fatal(err)
	}
	y := map[string]value.Value{"y": value.NewInt(1)}
	calls := 0
	got := open()
	reentrantRun(t, got, func(e *Engine) {
		ts := e.Now() + 1
		for name, call := range map[string]func() error{
			"Emit":              func() error { return e.Emit(ts, event.New("go")) },
			"Commit":            func() error { return e.Begin().Set("y", value.NewInt(1)).Commit(ts) },
			"Abort":             func() error { return e.Begin().Abort(ts) },
			"Exec":              func() error { return e.Exec(ts, y) },
			"ExecTxn":           func() error { return e.ExecTxn(ts, y, []string{"x"}) },
			"Flush":             e.Flush,
			"AddTrigger":        func() error { return e.AddTrigger("c", `item("y") > 0`, nil) },
			"AddTriggerFormula": func() error { return e.AddTriggerFormula("d", formula, nil) },
			"AddConstraint":     func() error { return e.AddConstraint("k", `item("y") < 9`) },
			"ReviveRule":        func() error { return e.ReviveRule("a") },
			"Compact": func() error {
				if n := e.Compact(); n != 0 {
					t.Errorf("Compact discarded %d states", n)
				}
				return ErrReentrant
			},
			"PruneExecutions": func() error {
				if n := e.PruneExecutions(ts); n != 0 {
					t.Errorf("PruneExecutions dropped %d records", n)
				}
				return ErrReentrant
			},
			"Checkpoint": e.Checkpoint,
			"BumpEpoch":  func() error { return e.BumpEpoch(1) },
			"Close":      e.Close,
		} {
			lsn := e.WALLastLSN()
			if err := call(); !errors.Is(err, ErrReentrant) {
				t.Errorf("%s from an observer returned %v, want ErrReentrant", name, err)
			}
			if after := e.WALLastLSN(); after != lsn {
				t.Errorf("%s moved the WAL from LSN %d to %d", name, lsn, after)
			}
			calls++
		}
	})
	if calls != 15 {
		t.Fatalf("observer made %d calls, want 15", calls)
	}
	want := open()
	reentrantRun(t, want, func(e *Engine) { e.Begin(); e.Begin() })
	sameRun(t, got, want)
	if g, w := got.WALLastLSN(), want.WALLastLSN(); g != w {
		t.Fatalf("WAL at LSN %d, twin at %d", g, w)
	}
	for _, e := range []*Engine{got, want} {
		if err := e.Exec(e.Now()+1, y); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReentrantQueryFunction calls Exec from registered query
// functions: one a trigger's step calls in the sweep, one a constraint's
// tentative step calls in the commit check. Each call is refused, the WAL
// does not move, and the engine ends as a twin whose functions do not call.
// A function does not call while one of its calls is open, so an engine
// that accepted the commit would fail the test rather than recurse.
func TestReentrantQueryFunction(t *testing.T) {
	run := func(call bool) (*Engine, map[string]int) {
		reg := query.NewRegistry()
		var e *Engine
		refused := map[string]int{}
		open := false
		for _, name := range []string{"in_sweep", "in_check"} {
			if err := reg.Register(name, 0, func(st history.SystemState, _ []value.Value) (value.Value, error) {
				if call && !open {
					open = true
					defer func() { open = false }()
					lsn := e.WALLastLSN()
					err := e.Exec(e.Now()+1, map[string]value.Value{"y": value.NewInt(1)})
					if !errors.Is(err, ErrReentrant) {
						t.Errorf("%s: Exec returned %v, want ErrReentrant", name, err)
					}
					if after := e.WALLastLSN(); after != lsn {
						t.Errorf("%s: Exec moved the WAL from LSN %d to %d", name, lsn, after)
					}
					refused[name]++
				}
				v, _ := st.DB.Get("x")
				return v, nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		cfg := reentrantConfig()
		cfg.Registry = reg
		cfg.Durability, cfg.NoFsync = DurabilityWAL, true
		var err error
		if e, err = Restore(cfg, t.TempDir()); err != nil {
			t.Fatal(err)
		}
		if err := e.AddTrigger("a", `in_sweep() > 0`, nil, WithScheduling(Eager)); err != nil {
			t.Fatal(err)
		}
		if err := e.AddConstraint("k", `in_check() < 9`); err != nil {
			t.Fatal(err)
		}
		for ts := int64(1); ts <= 3; ts++ {
			if err := e.Exec(ts, map[string]value.Value{"x": value.NewInt(ts)}); err != nil {
				t.Fatal(err)
			}
		}
		return e, refused
	}
	got, refused := run(true)
	if refused["in_sweep"] == 0 || refused["in_check"] == 0 {
		t.Fatalf("query functions called Exec %v times, want both > 0", refused)
	}
	want, _ := run(false)
	sameRun(t, got, want)
	if g, w := got.WALLastLSN(), want.WALLastLSN(); g != w {
		t.Fatalf("WAL at LSN %d, twin at %d", g, w)
	}
	for _, e := range []*Engine{got, want} {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReentrantSnapshotInFlush saves a snapshot from an observer while
// Flush merges: Flush runs outside a sweep, so only the busy engine stands
// between the call and a snapshot that pairs b's stepped evaluator with its
// unmerged cursor and lacks a's later firings (restored and flushed, it
// fired a once and b at [0 1 2 3] against a and b at [1 2 3]).
func TestReentrantSnapshotInFlush(t *testing.T) {
	e := NewEngine(reentrantConfig())
	for _, r := range [][2]string{{"a", `item("x") > 0`}, {"b", `previously item("x") > 0`}} {
		if err := e.AddTrigger(r[0], r[1], nil, WithScheduling(Manual)); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	e.OnFiring(func(f Firing) {
		if f.Rule == "a" {
			calls++
			if err := e.SaveSnapshot(io.Discard); !errors.Is(err, ErrReentrant) {
				t.Errorf("SaveSnapshot from an observer in Flush returned %v, want ErrReentrant", err)
			}
		}
	})
	for ts := int64(1); ts <= 3; ts++ {
		if err := e.Exec(ts, map[string]value.Value{"x": value.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("observer told of %d firings of a, want 3", calls)
	}
	if err := e.SaveSnapshot(io.Discard); err != nil {
		t.Fatal(err)
	}
}
