package gen

import (
	"testing"
)

func TestOneSeedOneDigest(t *testing.T) {
	for _, name := range Names() {
		var digests [3]string
		for i, seed := range []int64{1, 1, 2} {
			w, err := New(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			digests[i] = Digest(w.Take(500))
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: seed 1 gave digests %s and %s", name, digests[0], digests[1])
		}
		if digests[0] == digests[2] {
			t.Errorf("%s: seeds 1 and 2 both gave digest %s", name, digests[0])
		}
	}
	if _, err := New("no-such-workload", 1); err == nil {
		t.Error("an unknown workload name was accepted")
	}
}

func within(t *testing.T, what string, got, lo, hi float64) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s is %.4f, outside [%.4f, %.4f]", what, got, lo, hi)
	}
}

// The sparse workloads promise Zipf(1.1) transactions touching one to
// three of 100 000 items, with the 2 000 ruled items the hottest.
func TestSparseShape(t *testing.T) {
	for _, name := range []string{"sparse-static", "sparse-temporal"} {
		w, err := New(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.Initial) != SparseItems || len(w.Rules) != SparseRules {
			t.Fatalf("%s: %d items, %d rules", name, len(w.Initial), len(w.Rules))
		}
		ruled := map[string]bool{}
		for i := 0; i < SparseRules; i++ {
			ruled[Key(i)] = true
		}
		const n = 20000
		updates, hot := 0, 0
		for _, op := range w.Take(n) {
			if len(op.Updates) < 1 || len(op.Updates) > 3 {
				t.Fatalf("%s: a transaction touches %d items", name, len(op.Updates))
			}
			for k := range op.Updates {
				updates++
				if ruled[k] {
					hot++
				}
			}
		}
		within(t, name+": items per transaction", float64(updates)/n, 1.9, 2.1)
		// Zipf(1.1) over 100 000 items puts 0.79 of the mass on the first
		// 2 000; drawing without repeats inside a transaction lowers it a
		// little.
		within(t, name+": share of updates on ruled items", float64(hot)/float64(updates), 0.7, 0.85)
	}
}

func TestSparseWorkloadsShareTheStream(t *testing.T) {
	a, _ := New("sparse-static", 3)
	b, _ := New("sparse-temporal", 3)
	if da, db := Digest(a.Take(1000)), Digest(b.Take(1000)); da != db {
		t.Errorf("sparse-static and sparse-temporal differ in their op streams: %s, %s", da, db)
	}
}

func TestConstraintGateViolations(t *testing.T) {
	w, err := New("constraint-gate", 5)
	if err != nil {
		t.Fatal(err)
	}
	constraints := map[string]bool{}
	for _, r := range w.Rules {
		if r.Constraint {
			constraints[r.Name] = true
		}
	}
	if len(constraints) != GateRules || len(w.Rules) != GateRules+GateTriggers {
		t.Fatalf("%d constraints of %d rules", len(constraints), len(w.Rules))
	}
	const n = 20000
	rejected := 0
	names := map[string]bool{}
	for _, op := range w.Take(n) {
		if op.Reject != "" {
			if !constraints[op.Reject] {
				t.Fatalf("expected rejection by %q, which is no constraint", op.Reject)
			}
			rejected++
			names[op.Reject] = true
		}
	}
	// A violation needs a constrained item above 900 at that moment, so the
	// share sits a little under the 5 % the generator draws.
	within(t, "share of violating transactions", float64(rejected)/n, 0.03, ViolateShare+0.005)
	if len(names) < GateRules/3 {
		t.Errorf("only %d of %d constraints are ever violated", len(names), GateRules)
	}
}

func TestServedShapes(t *testing.T) {
	for name, args := range map[string]int{"firing-stream": 2, "replicated": 1, "durable-served": 0} {
		w, err := New(name, 9)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.Initial) != ServedItems {
			t.Errorf("%s: %d items", name, len(w.Initial))
		}
		for i, op := range w.Take(2000) {
			if op.TS != int64(i+1) {
				t.Fatalf("%s: op %d commits at time %d; the harness indexes stamps by time", name, i, op.TS)
			}
			if len(op.Updates) != 1 || op.Reject != "" {
				t.Fatalf("%s: op %d has %d updates, rejection %q", name, i, len(op.Updates), op.Reject)
			}
			if args == 0 {
				if len(op.Events) != 0 {
					t.Fatalf("%s: op %d carries events", name, i)
				}
			} else if len(op.Events) != 1 || op.Events[0].Name != "tick" || len(op.Events[0].Args) != args {
				t.Fatalf("%s: op %d events %v", name, i, op.Events)
			}
		}
	}
}

func TestTemporalDenseShape(t *testing.T) {
	w, err := New("temporal-dense", 11)
	if err != nil {
		t.Fatal(err)
	}
	if want := Symbols + Users + 2; len(w.Rules) != want {
		t.Errorf("%d rules, the row promises %d", len(w.Rules), want)
	}
	const n = 10000
	sessions, last := 0, int64(0)
	for _, op := range w.Take(n) {
		if op.TS <= last {
			t.Fatalf("time went from %d to %d", last, op.TS)
		}
		last = op.TS
		if len(op.Events) < 1 || op.Events[0].Name != "update_stocks" {
			t.Fatalf("op at %d has events %v", op.TS, op.Events)
		}
		if len(op.Events) == 2 {
			sessions++
		}
	}
	within(t, "share of ops with a login or logout", float64(sessions)/n, 0.27, 0.33)
	// Time advances by 1 to 3 a commit, so "within 10" spans about five states.
	within(t, "mean time step", float64(last)/n, 1.9, 2.1)
}
