package adb

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync/atomic"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/history"
	"ptlactive/internal/query"
	"ptlactive/internal/value"
)

// TestStampedHintQueryEvals pins what no equivalence suite can see: a wrong
// `false` dbUnchanged hint changes no firing, only cost. Every rule calls a
// pure counting query, so the calls a commit runs name exactly the rules
// whose query cache it emptied: the ones reading an item it wrote. 2,000
// exact temporal triggers and 20 constraints step at every commit; the
// count must be the touched rules' and nobody else's — through an Emit-state
// catch-up, mid-trace registration, a rejected commit, Compact (checkpoints
// compact every fourth commit besides) and Restore.
func TestStampedHintQueryEvals(t *testing.T) {
	const triggers, constraints = 2000, 20
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			calls := make([]atomic.Int64, triggers+constraints+2)
			reg := query.NewRegistry()
			// seen(id) reads the one item "quiet"; id says whose call it was.
			err := reg.RegisterPure("seen", 1, []string{"quiet"}, func(_ history.SystemState, args []value.Value) (value.Value, error) {
				calls[args[0].AsInt()].Add(1)
				return value.NewInt(1), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			initial := map[string]value.Value{"quiet": value.NewInt(0), "free": value.NewInt(0)}
			for i := 0; i < triggers; i++ {
				initial[fmt.Sprintf("k%04d", i)] = value.NewInt(500)
			}
			for i := 0; i < constraints; i++ {
				initial[fmt.Sprintf("c%02d", i)] = value.NewInt(500)
			}
			cfg := Config{Registry: reg, Initial: initial, Workers: workers, Durability: DurabilitySnapshot, SnapshotEvery: 4, NoFsync: true}
			dir := t.TempDir()
			e, err := Restore(cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { e.Close() }()
			edge := func(id int, item string) string {
				return fmt.Sprintf(`seen(%d) > 0 and item(%q) > 800 and lasttime item(%q) <= 800`, id, item, item)
			}
			nocrash := func(id int, item string) string {
				return fmt.Sprintf(`seen(%d) > 0 and not (item(%q) < 100 and lasttime item(%q) > 900)`, id, item, item)
			}
			for i := 0; i < triggers; i++ {
				if err := e.AddTrigger(fmt.Sprintf("edge_%04d", i), edge(i, fmt.Sprintf("k%04d", i)), nil, WithScheduling(Relevant)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < constraints; i++ {
				if err := e.AddConstraint(fmt.Sprintf("nocrash_%02d", i), nocrash(triggers+i, fmt.Sprintf("c%02d", i))); err != nil {
					t.Fatal(err)
				}
			}
			ts := int64(0)
			// commit writes the items and checks the calls made since the last
			// check, per id, against want (nil: warm-up, not checked).
			check := func(what string, want map[int]int64) {
				t.Helper()
				got := map[int]int64{}
				for id := range calls {
					if n := calls[id].Swap(0); n != 0 {
						got[id] = n
					}
				}
				if want != nil && !maps.Equal(got, want) {
					if len(got) > 40 {
						t.Fatalf("%s: %d rules ran their query, want %d", what, len(got), len(want))
					}
					t.Fatalf("%s: query calls by rule id = %v, want %v", what, got, want)
				}
			}
			commit := func(what string, want map[int]int64, items map[string]int64) error {
				t.Helper()
				ts++
				upd := make(map[string]value.Value, len(items))
				for k, v := range items {
					upd[k] = value.NewInt(v)
				}
				err := e.Exec(ts, upd)
				if err != nil && !errors.Is(err, ErrConstraintViolation) {
					t.Fatalf("%s: %v", what, err)
				}
				check(what, want)
				return err
			}
			none := map[int]int64{}

			commit("warm-up", nil, map[string]int64{"k0000": 1})
			commit("one ruled item", map[int]int64{7: 1}, map[string]int64{"k0007": 2})
			commit("no ruled item", none, map[string]int64{"free": 3})
			commit("a trigger's item and a constraint's", map[int]int64{3: 1, triggers + 5: 1}, map[string]int64{"k0003": 4, "c05": 4})

			// Two pending states: the triggers sleep through an event state.
			ts++
			if err := e.Emit(ts, event.New("noise")); err != nil {
				t.Fatal(err)
			}
			check("event state", none)
			commit("after an event state", map[int]int64{11: 1}, map[string]int64{"k0011": 5})

			// A rule entered mid-trace runs its call on its first step (the
			// state current at registration) and then only when touched.
			lateT, lateC := triggers+constraints, triggers+constraints+1
			if err := e.AddTrigger("late", edge(lateT, "k0042"), nil, WithScheduling(Relevant)); err != nil {
				t.Fatal(err)
			}
			if err := e.AddConstraint("late_c", nocrash(lateC, "c05")); err != nil {
				t.Fatal(err)
			}
			commit("first commit of the late rules", map[int]int64{42: 1, lateT: 2, lateC: 1}, map[string]int64{"k0042": 6})
			commit("late trigger's item", map[int]int64{42: 1, lateT: 1}, map[string]int64{"k0042": 7})
			commit("late constraint's item", map[int]int64{triggers + 5: 1, lateC: 1}, map[string]int64{"c05": 8})
			commit("no ruled item, late rules in", none, map[string]int64{"free": 9})

			// A rejected commit: the touched constraint's tentative step, then
			// Rollback empties every constraint's cache. The touched one, whose
			// lasttime register moved at "high", runs its query again on the
			// abort state; every other constraint is at a fixpoint, which
			// Rollback restores, and replays its verdict without a call. The
			// triggers see the abort state next commit.
			commit("high", map[int]int64{triggers + 3: 1}, map[string]int64{"c03": 950})
			if err := commit("crash", map[int]int64{triggers + 3: 2}, map[string]int64{"c03": 50}); !errors.Is(err, ErrConstraintViolation) {
				t.Fatalf("crash: got %v, want a constraint violation", err)
			}
			commit("after the rejected commit", map[int]int64{1: 1}, map[string]int64{"k0001": 10})
			commit("no ruled item after the rejected commit", none, map[string]int64{"free": 11})

			e.Compact()
			commit("after Compact", map[int]int64{2: 1}, map[string]int64{"k0002": 12})
			commit("no ruled item after Compact", none, map[string]int64{"free": 13})

			// Every rule reads "quiet" through seen's declared read set.
			all := map[int]int64{}
			for id := range calls {
				all[id] = 1
			}
			commit("the query's own item", all, map[string]int64{"quiet": 14})

			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if e, err = Restore(cfg, dir); err != nil {
				t.Fatal(err)
			}
			commit("first commit after Restore", nil, map[string]int64{"free": 15})
			commit("after Restore", map[int]int64{9: 1}, map[string]int64{"k0009": 16})
			commit("no ruled item after Restore", none, map[string]int64{"free": 17})
		})
	}
}

// TestDealPanicReachesCaller: a panicking query function is user code; its
// panic unwinds through ExecTxn to the caller with its own value, whatever
// the ignored Config.Workers says. (The name is that of the worker pool's
// deal, which once carried such panics across goroutines.) The commit is
// already in the database and no firing was merged.
func TestDealPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			armed := false
			reg := query.NewRegistry()
			if err := reg.Register("fragile", 1, func(_ history.SystemState, args []value.Value) (value.Value, error) {
				if armed && args[0].AsInt() == 5 {
					panic("fragile(5)")
				}
				return value.NewInt(0), nil
			}); err != nil {
				t.Fatal(err)
			}
			e := NewEngine(Config{Registry: reg, Initial: map[string]value.Value{"a": value.NewInt(0)}, Workers: workers})
			for i := 0; i < 16; i++ {
				if err := e.AddTrigger(fmt.Sprintf("r%02d", i), fmt.Sprintf(`fragile(%d) > item("a")`, i), nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Exec(1, map[string]value.Value{"a": value.NewInt(1)}); err != nil {
				t.Fatal(err)
			}
			armed = true
			var got any
			func() {
				defer func() { got = recover() }()
				_ = e.ExecTxn(2, map[string]value.Value{"a": value.NewInt(2)}, nil)
			}()
			if got != "fragile(5)" {
				t.Fatalf("ExecTxn recovered %v, want the query's panic", got)
			}
			if v, ok := e.DB().Get("a"); !ok || v.AsInt() != 2 || e.Now() != 2 {
				t.Fatalf("after the panic: a = %v at %d", v, e.Now())
			}
			if _, ok := e.Rule("r05"); !ok || len(e.Firings()) != 0 {
				t.Fatalf("after the panic: rule r05 known=%t, %d firings", ok, len(e.Firings()))
			}
		})
	}
}

// TestItemIndexListsMarkConsumers: a commit walks itemIndex[item] for every
// item it writes, under the engine lock, so the index may list only rules
// that use the mark on that state — standing rules and quiescent ones. Gated
// rules parked behind the cursor and Manual rules do no work on such a
// commit, however many share the hot item; when they do step, the read-set
// probe gives them the same hint (counted here through a pure query).
func TestItemIndexListsMarkConsumers(t *testing.T) {
	var calls atomic.Int64
	reg := query.NewRegistry()
	err := reg.RegisterPure("seen", 0, []string{"quiet"}, func(history.SystemState, []value.Value) (value.Value, error) {
		calls.Add(1)
		return value.NewInt(1), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Config{Registry: reg, Initial: map[string]value.Value{
		"hot": value.NewInt(0), "free": value.NewInt(0), "quiet": value.NewInt(0)}})
	add := func(name, cond string, sched Scheduling) {
		t.Helper()
		if err := e.AddTrigger(name, cond, nil, WithScheduling(sched)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		add(fmt.Sprintf("gated_%04d", i), fmt.Sprintf(`@ev%d and item("hot") > 1000000`, i), Relevant)
	}
	add("manual", `seen() > 0 and item("hot") > 5 and lasttime item("hot") <= 5`, Manual)
	add("temporal", `item("hot") > 5 and lasttime item("hot") <= 5`, Relevant)
	add("quiescent", `item("hot") > 1000000`, Relevant)
	add("eager_gated", `@ev0 and item("hot") > 1000000`, Eager)
	var listed []string
	for _, r := range e.itemIndex["hot"] {
		listed = append(listed, r.name)
	}
	if want := []string{"temporal", "quiescent", "eager_gated"}; !slices.Equal(listed, want) {
		t.Fatalf("itemIndex[hot] lists %d rules %.8v, want %v", len(listed), listed, want)
	}
	// The Manual rule steps at Flush alone, the newest state included — the
	// one the marks describe, which it has none of. Its query must run on its
	// first step and after the commits that wrote hot or quiet, not after
	// the ones that wrote free.
	for ts, item := range []string{"free", "hot", "free", "free", "quiet", "free"} {
		if err := e.Exec(int64(ts+1), map[string]value.Value{item: value.NewInt(int64(ts + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("the Manual rule ran its query %d times over 7 states, want 3 (first step, hot, quiet)", got)
	}
	if err := e.Exec(7, map[string]value.Value{"hot": value.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("the Manual rule ran its query %d times, want 4 after hot was written again", got)
	}
	if f := e.Firings(); len(f) != 2 || f[0].Rule != "temporal" || f[1].Rule != "manual" {
		t.Fatalf("firings = %v, want temporal then manual crossing 5", f)
	}
}
