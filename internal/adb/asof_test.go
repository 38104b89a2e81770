package adb

import (
	"bytes"
	"fmt"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/histio"
	"ptlactive/internal/value"
)

// TestDelayedActionReadsFiringTimeValue: under Manual scheduling the
// action runs long after the firing instant; AsOf must return the value
// the item had when the condition held, while the live DB has moved on.
func TestDelayedActionReadsFiringTimeValue(t *testing.T) {
	e := NewEngine(Config{
		Initial: map[string]value.Value{"price": value.NewFloat(100)},
	})
	var sawLive, sawAsOf float64
	err := e.AddTrigger("spike", `item("price") > 150`, func(ctx *ActionContext) error {
		live, _ := ctx.DB().Get("price")
		sawLive = live.AsFloat()
		asof, ok := ctx.AsOf("price")
		if !ok {
			t.Error("AsOf missed")
			return nil
		}
		sawAsOf = asof.AsFloat()
		return nil
	}, WithScheduling(Manual))
	if err != nil {
		t.Fatal(err)
	}
	_ = e.Exec(1, map[string]value.Value{"price": value.NewFloat(160)}) // fires here
	_ = e.Exec(2, map[string]value.Value{"price": value.NewFloat(40)})  // price collapses
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if sawAsOf != 160 {
		t.Errorf("AsOf = %g, want 160 (the firing-instant value)", sawAsOf)
	}
	if sawLive != 40 {
		t.Errorf("live = %g, want 40 (the current value)", sawLive)
	}
}

func TestItemAsOfSemantics(t *testing.T) {
	e := NewEngine(Config{
		Initial: map[string]value.Value{"a": value.NewInt(1)},
		Start:   10,
	})
	_ = e.Exec(12, map[string]value.Value{"a": value.NewInt(2)})
	_ = e.Exec(15, map[string]value.Value{"a": value.NewInt(3)})
	cases := []struct {
		t    int64
		want int64
		ok   bool
	}{
		{9, 0, false}, // before start
		{10, 1, true},
		{11, 1, true},
		{12, 2, true},
		{14, 2, true},
		{15, 3, true},
		{99, 3, true}, // open interval
	}
	for _, c := range cases {
		v, ok := e.ItemAsOf("a", c.t)
		if ok != c.ok {
			t.Errorf("ItemAsOf(a, %d) ok=%t want %t", c.t, ok, c.ok)
			continue
		}
		if ok && v.AsInt() != c.want {
			t.Errorf("ItemAsOf(a, %d) = %v, want %d", c.t, v, c.want)
		}
	}
	// An item absent from the state current at t reads Null.
	e2 := NewEngine(Config{})
	_ = e2.Exec(1, map[string]value.Value{"other": value.NewInt(1)})
	v, ok := e2.ItemAsOf("ghost", 1)
	if !ok || !v.IsNull() {
		t.Errorf("absent item = %v ok=%t, want Null true", v, ok)
	}
}

func TestCompactPrunesAux(t *testing.T) {
	e := NewEngine(Config{
		Initial: map[string]value.Value{"a": value.NewInt(0)},
	})
	if err := e.AddTrigger("r", `item("a") > 100`, nil); err != nil {
		t.Fatal(err)
	}
	for ts := int64(1); ts <= 30; ts++ {
		_ = e.Exec(ts, map[string]value.Value{"a": value.NewInt(ts)})
	}
	if e.Compact() == 0 {
		t.Fatal("nothing compacted")
	}
	// Values before the retained horizon are gone; recent ones remain.
	horizon := e.History().At(0).TS
	if _, ok := e.ItemAsOf("a", horizon-5); ok {
		t.Error("compacted state still readable")
	}
	if v, ok := e.ItemAsOf("a", 30); !ok || v.AsInt() != 30 {
		t.Errorf("recent value lost: %v %t", v, ok)
	}
}

func TestPruneExecutions(t *testing.T) {
	e := NewEngine(Config{Initial: map[string]value.Value{"c": value.NewInt(0)}})
	err := e.AddTrigger("r", `@fire`, func(ctx *ActionContext) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(1); ts <= 5; ts++ {
		_ = e.Emit(ts, event.New("fire"))
	}
	if len(e.Executions("r", 100)) != 5 {
		t.Fatalf("executions = %v", e.Executions("r", 100))
	}
	if d := e.PruneExecutions(4); d != 3 {
		t.Fatalf("dropped %d, want 3", d)
	}
	if len(e.Executions("r", 100)) != 2 {
		t.Fatalf("after prune: %v", e.Executions("r", 100))
	}
	if d := e.PruneExecutions(0); d != 0 {
		t.Fatalf("second prune dropped %d", d)
	}
}

// TestExportHistoryRoundTrip: an engine's exported history re-reads
// losslessly.
func TestExportHistoryRoundTrip(t *testing.T) {
	e := NewEngine(Config{Initial: map[string]value.Value{"a": value.NewInt(1)}})
	_ = e.Exec(1, map[string]value.Value{"a": value.NewInt(2)}, event.New("tick", value.NewString("x")))
	_ = e.Emit(2, event.New("ping"))
	var buf bytes.Buffer
	if err := e.ExportHistory(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := histio.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h := e.History()
	if back.Len() != h.Len() {
		t.Fatalf("len %d != %d", back.Len(), h.Len())
	}
	for i := 0; i < h.Len(); i++ {
		if !h.At(i).DB.Equal(back.At(i).DB) || h.At(i).TS != back.At(i).TS {
			t.Fatalf("state %d differs", i)
		}
	}
}

// TestActionAsOfReadsFiringState: an action's AsOf reads the state that
// satisfied its condition, for any item — one the condition reads, one it
// does not, one that never exists — however late the action runs. Under
// Manual and Relevant scheduling, with actions committing between firing
// and execution, every read equals the value History() holds at FiredAt.
func TestActionAsOfReadsFiringState(t *testing.T) {
	items := []string{"a", "z", "ghost"}
	for _, sched := range []Scheduling{Manual, Relevant} {
		e := NewEngine(Config{Initial: map[string]value.Value{"a": value.NewInt(0), "z": value.NewInt(0)}})
		delayed := 0
		check := func(ctx *ActionContext) error {
			if ctx.Now() > ctx.FiredAt {
				delayed++
			}
			at := e.History().PrefixAtTime(ctx.FiredAt)
			st, _ := at.Last()
			if st.TS != ctx.FiredAt {
				return fmt.Errorf("no state at %d", ctx.FiredAt)
			}
			for _, item := range items {
				got, ok := ctx.AsOf(item)
				want, _ := st.DB.Get(item)
				if !ok || !got.Equal(want) {
					t.Errorf("sched %d: %s AsOf(%s) at %d = %v %t, want %v", sched, ctx.Rule, item, ctx.FiredAt, got, ok, want)
				}
			}
			if ctx.Rule != "poke" { // commits only on an event, so no cascade
				return nil
			}
			return ctx.Exec(map[string]value.Value{"c": value.NewInt(ctx.FiredAt)})
		}
		for _, r := range [][2]string{
			{"high", `item("a") > 5`},
			{"poke", `@poke and item("a") < 3`},
			{"late", `item("z") > 60 and item("a") < 5`},
		} {
			if err := e.AddTrigger(r[0], r[1], check, WithScheduling(sched)); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(1); i <= 40; i++ {
			var evs []event.Event
			if i%3 == 0 {
				evs = append(evs, event.New("poke"))
			}
			if err := e.Exec(100*i, map[string]value.Value{"a": value.NewInt(i * 7 % 11), "z": value.NewInt(i * 3)}, evs...); err != nil {
				t.Fatal(err)
			}
			if i%10 == 0 {
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if delayed == 0 {
			t.Fatalf("sched %d: no action ran after the state that fired it", sched)
		}
	}
}
