package vtime_test

import (
	"math/rand"
	"testing"

	"ptlactive/internal/experiments"
	"ptlactive/internal/history"
	"ptlactive/internal/naive"
	"ptlactive/internal/ptl"
	"ptlactive/internal/query"
	"ptlactive/internal/value"
	"ptlactive/internal/vtime"
)

// TestMonitorMatchesScratch is the checkpoint-replay correctness property:
// after every store operation, the set of instants the tentative monitor
// has reported fired must equal the satisfied instants of the current
// committed history computed from scratch by the naive evaluator.
func TestMonitorMatchesScratch(t *testing.T) {
	reg := query.NewRegistry()
	conds := []string{
		`item("a") > 60`,
		`previously (item("a") > 80)`,
		`[x <- item("a")] previously <= 5 (item("a") > x + 20)`,
		`throughout <= 4 (item("a") >= 0)`,
	}
	iters := 20
	if testing.Short() {
		iters = 5
	}
	for seed := 0; seed < iters; seed++ {
		rng := rand.New(rand.NewSource(int64(6000 + seed)))
		ops := experiments.Retro(rng, 15, 6, 0.25)
		cond := mustParse(t, conds[seed%len(conds)])
		base := history.EmptyDB().With("a", value.NewInt(0))
		store := vtime.NewStore(base, 0, 6)
		m, err := vtime.NewMonitor(store, reg, cond, vtime.Tentative)
		if err != nil {
			t.Fatal(err)
		}
		reported := map[int64]bool{}
		for opIdx, op := range ops {
			var err error
			switch op.Op {
			case "begin":
				err = store.Begin(op.Txn)
			case "post":
				err = store.Post(op.Txn, op.Item, op.V, op.Valid, op.At)
			case "commit":
				err = store.Commit(op.Txn, op.At)
			case "abort":
				err = store.Abort(op.Txn, op.At)
			}
			if err != nil {
				t.Fatalf("seed %d op %d: %v", seed, opIdx, err)
			}
			fs, err := m.Poll()
			if err != nil {
				t.Fatalf("seed %d op %d: poll: %v", seed, opIdx, err)
			}
			for _, f := range fs {
				if reported[f.Time] {
					t.Fatalf("seed %d: instant %d reported twice", seed, f.Time)
				}
				reported[f.Time] = true
			}
			// From-scratch reference over the current committed history.
			h := store.CommittedAt(store.Now())
			nv := naive.New(reg, h, nil)
			for i := 0; i < h.Len(); i++ {
				want, err := nv.Sat(i, cond, nil)
				if err != nil {
					t.Fatalf("seed %d: naive: %v", seed, err)
				}
				ts := h.At(i).TS
				if want && !reported[ts] {
					t.Fatalf("seed %d op %d (%s): satisfied instant %d not reported\ncond: %s",
						seed, opIdx, op.Op, ts, cond)
				}
			}
			// Note: reported instants that are no longer satisfied are
			// legitimate — a retroactive change can invalidate a past
			// tentative firing; the paper's tentative triggers act on
			// values that "remain tentative forever".
		}
	}
}

// TestMonitorReplayIsIncremental: the monitor's evaluator steps stay far
// below the quadratic from-scratch count, because checkpoints confine
// replay to the spliced suffix.
func TestMonitorReplayIsIncremental(t *testing.T) {
	reg := query.NewRegistry()
	base := history.EmptyDB().With("a", value.NewInt(0))
	store := vtime.NewStore(base, 0, 2) // small delay: splices stay near the end
	m, err := vtime.NewMonitor(store, reg, mustParse(t, `previously (item("a") > 90)`), vtime.Tentative)
	if err != nil {
		t.Fatal(err)
	}
	n := 150
	scratchSteps := 0
	for i := 1; i <= n; i++ {
		ts := int64(i * 3)
		id := int64(i)
		if err := store.Begin(id); err != nil {
			t.Fatal(err)
		}
		back := int64(i % 3)
		if err := store.Post(id, "a", value.NewInt(int64(i%97)), ts-back, ts); err != nil {
			t.Fatal(err)
		}
		if err := store.Commit(id, ts); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Poll(); err != nil {
			t.Fatal(err)
		}
		scratchSteps += store.CommittedAt(store.Now()).Len()
	}
	if m.EvalSteps() >= scratchSteps/3 {
		t.Fatalf("monitor used %d steps; from-scratch would use %d — replay not incremental",
			m.EvalSteps(), scratchSteps)
	}
}

// TestDefiniteNeverRetracts: instants reported by a definite monitor are
// final — subsequent retroactive activity (which the max-delay bound
// confines to newer instants) can never make a reported instant
// unsatisfied.
func TestDefiniteNeverRetracts(t *testing.T) {
	reg := query.NewRegistry()
	for seed := 0; seed < 15; seed++ {
		rng := rand.New(rand.NewSource(int64(6500 + seed)))
		ops := experiments.Retro(rng, 20, 4, 0.2)
		cond := mustParse(t, `item("a") > 50`)
		base := history.EmptyDB().With("a", value.NewInt(0))
		store := vtime.NewStore(base, 0, 4)
		m, err := vtime.NewMonitor(store, reg, cond, vtime.Definite)
		if err != nil {
			t.Fatal(err)
		}
		reported := map[int64]bool{}
		for _, op := range ops {
			switch op.Op {
			case "begin":
				_ = store.Begin(op.Txn)
			case "post":
				_ = store.Post(op.Txn, op.Item, op.V, op.Valid, op.At)
			case "commit":
				_ = store.Commit(op.Txn, op.At)
			case "abort":
				_ = store.Abort(op.Txn, op.At)
			}
			fs, err := m.Poll()
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range fs {
				reported[f.Time] = true
			}
		}
		// Final check: every definite-reported instant is satisfied in the
		// final committed history.
		h := store.CommittedAt(vtime.Infinity)
		nv := naive.New(reg, h, nil)
		for i := 0; i < h.Len(); i++ {
			ts := h.At(i).TS
			if !reported[ts] {
				continue
			}
			ok, err := nv.Sat(i, cond, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("seed %d: definite firing at %d was retracted by later activity", seed, ts)
			}
		}
	}
}

func mustParse(t *testing.T, src string) ptl.Formula {
	t.Helper()
	f, err := ptl.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return f
}
