package adb

import (
	"errors"
	"reflect"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/naive"
	"ptlactive/internal/persist"
	"ptlactive/internal/ptl"
	"ptlactive/internal/value"
)

// TestClockItemIsTime: item("time") reads the item every state answers with
// its timestamp, so it is the time term. Over ten states at ts 1 to 10, a
// commit every third and events between, item("time") > 5 must fire at the
// states naive says it holds at, ts 6 to 10, under Eager, Relevant and
// Manual (after a Flush), on the coarse engine, the indexed one and a
// durable one closed and restored mid-trace.
func TestClockItemIsTime(t *testing.T) {
	cond := `item("time") > 5`
	f, err := ptl.Parse(cond)
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []Scheduling{Eager, Relevant, Manual} {
		cfg := Config{Initial: map[string]value.Value{"a": value.NewInt(0)}}
		durCfg := cfg
		durCfg.Durability, durCfg.NoFsync = DurabilityWAL, true
		dir := t.TempDir()
		dur, err := Restore(durCfg, dir)
		if err != nil {
			t.Fatal(err)
		}
		arms := []*Engine{NewCoarseEngine(cfg), NewEngine(cfg), dur}
		var fired [][]int64
		for i, e := range arms {
			if err := e.AddTrigger("late", cond, nil, WithScheduling(sched)); err != nil {
				t.Fatal(err)
			}
			for ts := int64(1); ts <= 10; ts++ {
				if ts%3 == 0 {
					err = e.Exec(ts, map[string]value.Value{"a": value.NewInt(ts)})
				} else {
					err = e.Emit(ts, event.New("tick"))
				}
				if err != nil {
					t.Fatal(err)
				}
				if e == dur && ts == 5 {
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
					if e, err = Restore(durCfg, dir); err != nil {
						t.Fatal(err)
					}
					arms[i] = e
				}
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			var ts []int64
			for _, fr := range e.Firings() {
				ts = append(ts, fr.Time)
			}
			fired = append(fired, ts)
		}
		var want []int64
		h := arms[0].History()
		oracle := naive.New(arms[0].reg, h, nil)
		for i := 0; i < h.Len(); i++ {
			if ok, err := oracle.Sat(i, f, nil); err != nil {
				t.Fatal(err)
			} else if ok {
				want = append(want, h.At(i).TS)
			}
		}
		if !reflect.DeepEqual(want, []int64{6, 7, 8, 9, 10}) {
			t.Fatalf("naive fires at %v", want)
		}
		for i, name := range []string{"coarse", "indexed", "restored"} {
			if !reflect.DeepEqual(fired[i], want) {
				t.Errorf("scheduling %d: the %s engine fires at %v, naive at %v", sched, name, fired[i], want)
			}
		}
		if err := arms[2].Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReservedItemRefused: neither a transaction nor an initial state may
// set the item time. A transaction's write or delete is refused, typed, and
// leaves the engine unchanged; NewEngine panics on such a Config.Initial,
// and Restore and OpenFollower over an empty directory return the error
// and log nothing. A log an older engine wrote with time in its initial
// state still restores as written.
func TestReservedItemRefused(t *testing.T) {
	initial := map[string]value.Value{"time": value.NewInt(99)}
	func() {
		defer func() {
			if err, _ := recover().(error); !errors.Is(err, ErrReservedItem) {
				t.Fatalf("NewEngine panicked with %v, want ErrReservedItem", err)
			}
		}()
		NewEngine(Config{Initial: initial})
	}()
	dir := t.TempDir()
	if _, err := Restore(Config{Initial: initial, NoFsync: true}, dir); !errors.Is(err, ErrReservedItem) {
		t.Fatalf("Restore: %v, want ErrReservedItem", err)
	}
	if _, err := OpenFollower(Config{Initial: initial}, dir); !errors.Is(err, ErrReservedItem) {
		t.Fatalf("OpenFollower: %v, want ErrReservedItem", err)
	}
	st, res, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot != nil || len(res.Tail) != 0 {
		t.Fatalf("a refused open logged %d records", len(res.Tail))
	}
	// What an older engine wrote: its init record carries the item.
	old, err := attachStore(Config{Initial: initial}, nil, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(Config{NoFsync: true}, dir)
	if err != nil {
		t.Fatalf("Restore of an older log: %v", err)
	}
	if v, _ := restored.DB().Get("time"); v.AsInt() != 99 {
		t.Fatalf("restored initial time = %v, want 99 as logged", v)
	}
	restored.Close()

	e := NewEngine(Config{})
	for _, err := range []error{
		e.Exec(1, map[string]value.Value{"time": value.NewInt(99)}),
		e.ExecTxn(1, nil, []string{"time"}),
	} {
		if !errors.Is(err, ErrReservedItem) {
			t.Fatalf("got %v, want ErrReservedItem", err)
		}
	}
	if _, ok := e.DB().Get("time"); ok || e.History().Len() != 1 {
		t.Fatalf("a refused write changed the engine: %d states", e.History().Len())
	}
	if err := e.Exec(1, map[string]value.Value{"a": value.NewInt(1)}); err != nil {
		t.Fatalf("a write after the refusals: %v", err)
	}
}
