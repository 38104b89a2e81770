package adb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ptlactive/internal/core"
	"ptlactive/internal/event"
	"ptlactive/internal/value"
)

// compatOp is one external operation of the compatibility trace.
type compatOp struct {
	ts      int64
	set     map[string]value.Value
	poke    bool // emit a "poke" event in the commit
	compact bool // Compact instead of a commit
	flush   bool // Flush instead of a commit
}

// compatOps is the fixed trace the compat fixture was written from: 40
// operations, commits every 10 ticks (actions commit in between), a few of
// them rejected by the constraint, a Compact and two Flushes.
func compatOps() []compatOp {
	var ops []compatOp
	for i := int64(1); i <= 40; i++ {
		switch {
		case i == 13:
			ops = append(ops, compatOp{compact: true})
			continue
		case i%11 == 0:
			ops = append(ops, compatOp{flush: true})
			continue
		}
		ops = append(ops, compatOp{
			ts: 10 * i,
			set: map[string]value.Value{
				"a": value.NewInt((i*7)%13 - 2),
				"b": value.NewFloat(float64(10 + (i*5)%17)),
			},
			poke: i%4 == 0,
		})
	}
	return ops
}

// compatCut is how many of compatOps the fixture directory holds.
const compatCut = 34

// compatActions are the trace's deterministic actions: "copy" commits the
// value a had when its condition held, read through AsOf.
func compatActions() map[string]Action {
	return map[string]Action{
		"copy": func(ctx *ActionContext) error {
			v, ok := ctx.AsOf("a")
			if !ok {
				return fmt.Errorf("AsOf(a) missed at %d", ctx.FiredAt)
			}
			return ctx.Exec(map[string]value.Value{"c": v})
		},
	}
}

// compatRules registers the trace's rules on a fresh engine.
func compatRules(t *testing.T, e *Engine) {
	t.Helper()
	acts := compatActions()
	for _, r := range []struct {
		name, cond string
		constraint bool
		opts       []RuleOption
	}{
		{name: "nonneg", cond: `not (item("a") < -1)`, constraint: true},
		{name: "rise", cond: `item("a") > 7`},
		{name: "doubled", cond: `[t <- time] [x <- item("b")] previously (item("b") <= 0.5 * x and time >= t - 60)`},
		{name: "copy", cond: `@poke`},
		{name: "late", cond: `item("b") > 20`, opts: []RuleOption{WithScheduling(Manual)}},
	} {
		var err error
		if r.constraint {
			err = e.AddConstraint(r.name, r.cond)
		} else {
			err = e.AddTrigger(r.name, r.cond, acts[r.name], r.opts...)
		}
		if err != nil {
			t.Fatalf("rule %s: %v", r.name, err)
		}
	}
}

// applyCompat runs one operation; a constraint rejection is the trace's
// expected outcome, any other error fails the test.
func applyCompat(t *testing.T, e *Engine, op compatOp) {
	t.Helper()
	var err error
	switch {
	case op.compact:
		e.Compact()
	case op.flush:
		err = e.Flush()
	default:
		var evs []event.Event
		if op.poke {
			evs = append(evs, event.New("poke"))
		}
		err = e.Exec(op.ts, op.set, evs...)
		var cerr *ConstraintError
		if errors.As(err, &cerr) {
			err = nil
		}
	}
	if err != nil {
		t.Fatalf("op %+v: %v", op, err)
	}
}

// compatConfig is the trace's configuration, less what the fixture's
// writer also set: TrackItems ["a", "b"], a HistoryWindow of 25 with
// SpillHistory, Durability and SnapshotEvery 8.
func compatConfig() Config {
	return Config{
		Initial: map[string]value.Value{"a": value.NewInt(1), "b": value.NewFloat(10), "c": value.NewString("x")},
		Actions: compatActions(),
	}
}

// TestRestoreTrackedHistoryFixture: testdata/compat_tracked holds two data
// directories written by the engine that kept a second copy of history
// (auxiliary relations for TrackItems, pruned by HistoryWindow and spilled
// to a history.cold tier): "snapshot" is a checkpoint carrying
// auxiliary-relation rows plus a WAL tail, "wal" a log alone whose init
// record names the tracked items and the window. Each restores, ignoring
// those fields and leaving history.cold unread and in place, to the
// database, firings, executions, rule state and step count of a memory
// engine fed the same operations, and keeps agreeing with it over the rest
// of the trace and across one more restart.
func TestRestoreTrackedHistoryFixture(t *testing.T) {
	ops := compatOps()
	for _, name := range []string{"snapshot", "wal"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			src := filepath.Join("testdata", "compat_tracked", name)
			ents, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range ents {
				data, err := os.ReadFile(filepath.Join(src, ent.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, ent.Name()), data, 0o600); err != nil {
					t.Fatal(err)
				}
			}
			cold, err := os.ReadFile(filepath.Join(src, "history.cold"))
			if err != nil {
				t.Fatal(err)
			}

			mem := NewEngine(compatConfig())
			compatRules(t, mem)
			for _, op := range ops[:compatCut] {
				applyCompat(t, mem, op)
			}
			cfg := compatConfig()
			cfg.Durability, cfg.SnapshotEvery, cfg.NoFsync = DurabilitySnapshot, 8, true
			e, err := Restore(cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			if rec := e.Recovery(); len(rec.ReplayErrors) != 0 || rec.ReplayedRecords == 0 || (name == "snapshot") != (rec.SnapshotLSN > 0) {
				t.Fatalf("recovery = %+v", rec)
			}
			compareCompat(t, "restored", e, mem)
			for _, op := range ops[compatCut:] {
				applyCompat(t, mem, op)
				applyCompat(t, e, op)
			}
			compareCompat(t, "continued", e, mem)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if e, err = Restore(cfg, dir); err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			compareCompat(t, "restarted", e, mem)
			if got, err := os.ReadFile(filepath.Join(dir, "history.cold")); err != nil || !bytes.Equal(got, cold) {
				t.Fatalf("history.cold changed or removed: %v", err)
			}
		})
	}
}

// compareCompat checks that a restored engine agrees with the memory
// engine fed the same operations: clock, database, firings, step count,
// each rule's executions, health, absolute cursor and encoded evaluator
// state, and every point-in-time read the restored engine still answers.
func compareCompat(t *testing.T, when string, got, want *Engine) {
	t.Helper()
	if got.Now() != want.Now() || !got.DB().Equal(want.DB()) {
		t.Fatalf("%s: clock/db %d %v, want %d %v", when, got.Now(), got.DB(), want.Now(), want.DB())
	}
	if !firingsEqual(got.Firings(), want.Firings()) {
		t.Fatalf("%s: firings\n got %v\nwant %v", when, got.Firings(), want.Firings())
	}
	if got.EvalSteps() != want.EvalSteps() {
		t.Fatalf("%s: eval steps %d, want %d", when, got.EvalSteps(), want.EvalSteps())
	}
	if !reflect.DeepEqual(got.RuleNames(), want.RuleNames()) {
		t.Fatalf("%s: rules %v, want %v", when, got.RuleNames(), want.RuleNames())
	}
	for _, name := range want.RuleNames() {
		g, w := got.index[name], want.index[name]
		if fmt.Sprint(g.execs) != fmt.Sprint(w.execs) { // a restored log has nil, not empty, Params
			t.Fatalf("%s: rule %s executions\n got %v\nwant %v", when, name, g.execs, w.execs)
		}
		gs, err := core.EncodeEvaluatorState(g.ev)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := core.EncodeEvaluatorState(w.ev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gs, ws) || got.base+got.cursorOf(g) != want.base+want.cursorOf(w) || g.health.total != w.health.total {
			t.Fatalf("%s: rule %s state differs", when, name)
		}
	}
	for ts := got.History().At(0).TS; ts <= got.Now(); ts++ {
		for _, item := range []string{"a", "b", "c"} {
			gv, gok := got.ItemAsOf(item, ts)
			wv, wok := want.ItemAsOf(item, ts)
			if gok != wok || !gv.Equal(wv) {
				t.Fatalf("%s: ItemAsOf(%s, %d) = %v %t, want %v %t", when, item, ts, gv, gok, wv, wok)
			}
		}
	}
}
