package adb

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/persist"
	"ptlactive/internal/value"
)

// nocrash is constraint-gate's constraint on item k: it never falls from
// above 900 to below 100 in one step.
func nocrash(k string) string {
	return fmt.Sprintf(`not (item(%q) < 100 and lasttime item(%q) > 900)`, k, k)
}

// snapshotBytes encodes e's snapshot as SaveSnapshot would, less the WAL
// position a durable engine stamps on it.
func snapshotBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	snap, err := e.buildSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := persist.EncodeSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readRules reads every rule's PendingStates and the step counter from a
// goroutine beside the mutator until stop is called, which waits for it.
// PendingStates reads a resting rule's shared cursor under the read lock.
func readRules(e *Engine) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, name := range e.RuleNames() {
				_, _ = e.Rule(name)
			}
			_ = e.EvalSteps()
			runtime.Gosched()
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// exactMix is tr's random rule mix with each rule the read-set index
// refines — a gated or quiescent one, which the coarse engine steps where
// the indexed one skips or replays — registered Eager instead. Every rule is
// then exact, so the coarse engine's step counter, evaluators and snapshot
// bytes are the indexed engine's reference to the step.
func exactMix(t *testing.T, tr parkTrace) engineParams {
	t.Helper()
	probe := NewEngine(tr.config())
	tr.p.register(t, probe)
	p := tr.p
	p.scheds = slices.Clone(p.scheds)
	for i := range p.conds {
		if probe.index[fmt.Sprintf("r%03d", i)].class != classExact {
			p.scheds[i] = Eager
		}
	}
	return p
}

// TestRestingConstraintCountsEveryState: a constraint whose step reached a
// false fixpoint rests, and its steps are counted instead of taken, until a
// tentative state writes its item. An indexed engine, and a durable twin
// checkpointed and restored mid-trace, run in lockstep with the coarse
// engine, which steps every constraint, over parkTraces — the random rule
// mix (exactMix), its emits, commits, aborts and flushes, and an action
// that commits re-entrantly — interleaved with constraint-gate's commits
// on the constrained items: rises, crashes the constraints reject, other
// writes, event states, explicit aborts and Compact. Mid-trace a nocrash constraint
// joins, and so does a cap on an item that already breaks it, which sits at
// a true fixpoint and rejects every commit until the item is written back
// under the cap. After every operation the step counter, every rule's
// evaluator as settling would leave it, PendingStates, the firings, the
// rejecting constraint and the snapshot bytes must be the coarse engine's.
// settledStates only looks, so the settle points under test still find the
// re-stamps owed; the snapshot settles after the comparison. A reader runs
// beside the indexed engine throughout.
func TestRestingConstraintCountsEveryState(t *testing.T) {
	trials, states := 4, 90
	if testing.Short() {
		trials, states = 2, 60
	}
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5"}
	owed := 0 // states the indexed engine passed resting constraints over and had not settled
	for trial := 0; trial < trials; trial++ {
		seed := int64(5700 + trial)
		tr := newParkTrace(seed, 4+trial%5, states, trial%2 == 0, false, true)
		config := func() Config {
			cfg := tr.config()
			for _, k := range append(keys, "cap") {
				cfg.Initial[k] = value.NewInt(500)
			}
			return cfg
		}
		ref, idx := NewCoarseEngine(config()), NewEngine(config())
		dir := t.TempDir()
		durCfg := config()
		durCfg.Durability, durCfg.NoFsync = DurabilityWAL, true
		dur, err := Restore(durCfg, dir)
		if err != nil {
			t.Fatal(err)
		}
		arms := func() []*Engine { return []*Engine{ref, idx, dur} }
		stop := readRules(idx)
		t.Cleanup(stop)
		p := exactMix(t, tr)
		for _, e := range arms() {
			p.register(t, e)
			if err := e.AddTrigger("act", `@go and item("a") >= 0`, parkAction, WithScheduling(Eager)); err != nil {
				t.Fatal(err)
			}
			for _, k := range keys[:len(keys)-1] {
				if err := e.AddConstraint("nocrash_"+k, nocrash(k)); err != nil {
					t.Fatal(err)
				}
			}
		}
		// each applies one operation to every arm; the commits return the
		// rejecting constraint, which must be the same.
		each := func(what string, do func(e *Engine) string) {
			t.Helper()
			var said []string
			for _, e := range arms() {
				said = append(said, do(e))
			}
			if said[1] != said[0] || said[2] != said[0] {
				t.Fatalf("trial %d, %s: rejected by %q (coarse), %q (indexed), %q (durable)", trial, what, said[0], said[1], said[2])
			}
		}
		commit := func(upd map[string]value.Value) func(e *Engine) string {
			return func(e *Engine) string {
				return applyOp(t, e, engineOp{kind: opExec, ts: e.Now() + 1, upd: upd})
			}
		}
		set := func(k string, v int64) func(e *Engine) string {
			return commit(map[string]value.Value{k: value.NewInt(v)})
		}
		compare := func(what string) {
			t.Helper()
			want := settledStates(t, ref)
			for _, arm := range []struct {
				name string
				e    *Engine
			}{{"indexed", idx}, {"durable", dur}} {
				if got, w := arm.e.EvalSteps(), ref.EvalSteps(); got != w {
					t.Fatalf("trial %d, %s: %s engine counts %d eval steps, coarse %d", trial, what, arm.name, got, w)
				}
				if got := settledStates(t, arm.e); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d, %s: %s evaluators diverge:\n coarse: %v\n %s: %v", trial, what, arm.name, want, arm.name, got)
				}
				if rp, ap := pendingStates(t, ref), pendingStates(t, arm.e); !reflect.DeepEqual(ap, rp) {
					t.Fatalf("trial %d, %s: %s pending states diverge: %v vs %v", trial, what, arm.name, ap, rp)
				}
				if !firingsEqual(arm.e.Firings(), ref.Firings()) {
					t.Fatalf("trial %d, %s: %s firings diverge", trial, what, arm.name)
				}
			}
			for _, r := range idx.constraints {
				if r.parked {
					owed += idx.parkedConstraints.cursor - r.cursor
				}
			}
			// The durable twin's checkpoints compact its history on their own
			// schedule, so its snapshot's window differs.
			if got, want := snapshotBytes(t, idx), snapshotBytes(t, ref); !bytes.Equal(got, want) {
				t.Fatalf("trial %d, %s: snapshot bytes diverge%s", trial, what, firstDiff(got, want))
			}
		}

		rng := rand.New(rand.NewSource(seed * 7))
		third := len(tr.ops) / 3
		for i, op := range tr.ops {
			op.ts = ref.Now() + 1 + int64(i%3)
			each(fmt.Sprintf("op %d (kind %d)", i, op.kind), func(e *Engine) string { return applyOp(t, e, op) })
			compare(fmt.Sprintf("op %d (kind %d)", i, op.kind))
			k := keys[rng.Intn(len(keys))]
			var what string
			switch n := rng.Intn(10); {
			case n < 3:
				what = "rise " + k
				each(what, set(k, 901+rng.Int63n(99)))
			case n < 5:
				// Rejected where k is above 900 and constrained.
				what = "crash " + k
				each(what, set(k, rng.Int63n(100)))
			case n < 7:
				what = "write " + k + " and d"
				each(what, commit(map[string]value.Value{k: value.NewInt(100 + rng.Int63n(800)), "d": value.NewInt(int64(i))}))
			case n == 7:
				// act fires at go, and its action commits re-entrantly.
				ev := event.New([]string{"tick", "go"}[rng.Intn(2)])
				what = "emit " + ev.Name
				each(what, func(e *Engine) string {
					return applyOp(t, e, engineOp{kind: opEmit, ts: e.Now() + 1, events: []event.Event{ev}})
				})
			case n == 8:
				what = "abort"
				each(what, func(e *Engine) string {
					if err := e.Begin().Abort(e.Now() + 1); err != nil {
						t.Fatal(err)
					}
					return ""
				})
			default:
				what = "compact"
				each(what, func(e *Engine) string { e.Compact(); return "" })
			}
			compare(fmt.Sprintf("op %d, %s", i, what))
			switch i {
			case third:
				// cap goes above 900 while nothing constrains it; the cap
				// registered then is violated at its first step and at every
				// state after, until cap is written back under it.
				each("cap above 900", set("cap", 950))
				each("register", func(e *Engine) string {
					if err := e.AddConstraint("late_"+keys[len(keys)-1], nocrash(keys[len(keys)-1])); err != nil {
						t.Fatal(err)
					}
					if err := e.AddConstraint("late_cap", `not (item("cap") > 900)`); err != nil {
						t.Fatal(err)
					}
					return ""
				})
				each("commit d against the cap", set("d", 1))
				compare("late registration")
			case third + 4:
				each("commit d against the cap", set("d", 2))
				each("cap back under", set("cap", 800))
				compare("cap back under")
			case len(tr.ops) / 2:
				if err := dur.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				each("commit d after the checkpoint", set("d", 3))
				if err := dur.Close(); err != nil {
					t.Fatal(err)
				}
				if dur, err = Restore(durCfg, dir); err != nil {
					t.Fatal(err)
				}
				compare("restore")
			}
		}
		stop()
		if err := dur.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// The trace must exercise what it names: states passed over constraints
	// at rest, hundreds a trial (about a thousand are).
	if owed < 300*trials {
		t.Errorf("resting constraints were passed over %d states in %d trials, want at least %d", owed, trials, 300*trials)
	}
}

// TestRestingConstraintVisits counts the constraint evaluators one commit
// steps — the awake ones, each of which the check marks and steps. Under constraint-gate's 300 nocrash
// constraints, settled at a false fixpoint, a commit that writes one
// constrained item and one no constraint reads steps the one constraint it
// touched; the coarse engine, like the check before constraints rested,
// steps all 300.
func TestRestingConstraintVisits(t *testing.T) {
	const gates = 300
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	visits := func(e *Engine) int {
		for i := 0; i < gates; i++ {
			if err := e.AddConstraint(fmt.Sprintf("nocrash_%03d", i), nocrash(key(i))); err != nil {
				t.Fatal(err)
			}
		}
		for ts := int64(1); ts <= 2; ts++ {
			if err := e.Exec(ts, map[string]value.Value{"free": value.NewInt(ts)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Exec(3, map[string]value.Value{key(7): value.NewInt(950), "free": value.NewInt(3)}); err != nil {
			t.Fatal(err)
		}
		return len(e.awake)
	}
	cfg := func() Config {
		initial := map[string]value.Value{"free": value.NewInt(0)}
		for i := 0; i < gates; i++ {
			initial[key(i)] = value.NewInt(500)
		}
		return Config{Initial: initial}
	}
	if got := visits(NewEngine(cfg())); got < 1 || got > 3 {
		t.Fatalf("a commit writing one constrained item stepped %d of %d constraints, want 1 to 3", got, gates)
	}
	if got := visits(NewCoarseEngine(cfg())); got != gates {
		t.Fatalf("the coarse engine stepped %d of %d constraints, want all", got, gates)
	}
}
