package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"ptlactive/internal/ptl"
	"ptlactive/internal/ptlgen"
)

// compileAuto checks and compiles like the engine does (fast path when
// decomposable, general otherwise).
func compileAuto(t *testing.T, f ptl.Formula) ConditionEvaluator {
	t.Helper()
	reg := ptlgen.Registry()
	info, err := ptl.Check(f, reg)
	if err != nil {
		t.Fatalf("check %s: %v", f, err)
	}
	ev, err := CompileAuto(info, reg, nil)
	if err != nil {
		t.Fatalf("compile %s: %v", f, err)
	}
	return ev
}

func resultsEqual(a, b Result) bool {
	if a.Fired != b.Fired || len(a.Bindings) != len(b.Bindings) {
		return false
	}
	return reflect.DeepEqual(a.Bindings, b.Bindings)
}

// TestEvaluatorStateRoundTrip is the snapshot/restore property behind the
// durability subsystem: stepping to state k, serializing, restoring onto a
// freshly compiled evaluator (compiled from the formula's printed text,
// parsed back, as recovery does), then continuing must match a
// never-interrupted evaluator at every remaining state — for both the
// general and the fast implementation, aggregates included.
func TestEvaluatorStateRoundTrip(t *testing.T) {
	iters := 120
	if testing.Short() {
		iters = 25
	}
	for it := 0; it < iters; it++ {
		rng := rand.New(rand.NewSource(int64(9000 + it)))
		var f ptl.Formula
		if it%3 == 0 {
			f = ptlgen.FormulaWithAggregates(rng, 1+rng.Intn(3))
		} else {
			f = ptlgen.Formula(rng, 1+rng.Intn(4))
		}
		h := ptlgen.History(rng, 10)
		cont := compileAuto(t, f)
		crash := compileAuto(t, f)
		cut := 1 + rng.Intn(h.Len()-1)
		for i := 0; i < cut; i++ {
			if _, err := cont.StepResult(h.At(i)); err != nil {
				t.Fatalf("seed %d: continuous step %d: %v\nformula: %s", it, i, err, f)
			}
			if _, err := crash.StepResult(h.At(i)); err != nil {
				t.Fatalf("seed %d: crash step %d: %v", it, i, err)
			}
		}
		blob, err := EncodeEvaluatorState(crash)
		if err != nil {
			t.Fatalf("seed %d: encode state: %v\nformula: %s", it, err, f)
		}
		// Recovery recompiles the condition from its printed text.
		f2, err := ptl.Parse(f.String())
		if err != nil {
			t.Fatalf("seed %d: reparse: %v\nformula: %s", it, err, f)
		}
		restored, err := RestoreEvaluatorState(compileAuto(t, f2), blob)
		if err != nil {
			t.Fatalf("seed %d: restore: %v\nformula: %s\nstate: %s", it, err, f, blob)
		}
		for i := cut; i < h.Len(); i++ {
			want, err := cont.StepResult(h.At(i))
			if err != nil {
				t.Fatalf("seed %d: continuous step %d: %v\nformula: %s", it, i, err, f)
			}
			got, err := restored.StepResult(h.At(i))
			if err != nil {
				t.Fatalf("seed %d: restored step %d: %v\nformula: %s", it, i, err, f)
			}
			if !resultsEqual(want, got) {
				t.Fatalf("seed %d state %d (cut %d): restored diverged: want %+v got %+v\nformula: %s",
					it, i, cut, want, got, f)
			}
		}
	}
}

// TestEvaluatorStateRoundTripIBM pins the property on the paper's worked
// example with a cut at every state boundary.
func TestEvaluatorStateRoundTripIBM(t *testing.T) {
	src := `[t <- time] [x <- price("IBM")]
	    previously (price("IBM") <= 0.5 * x and time >= t - 10)`
	f := mustParse(t, src)
	reg := ibmRegistry(t)
	h := ibmHistory([][2]int64{{10, 1}, {15, 2}, {18, 5}, {25, 8}})
	want := []bool{false, false, false, true}
	for cut := 1; cut < h.Len(); cut++ {
		ev, err := Compile(f, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cut; i++ {
			if _, err := ev.Step(h.At(i)); err != nil {
				t.Fatal(err)
			}
		}
		blob, err := EncodeEvaluatorState(ev)
		if err != nil {
			t.Fatal(err)
		}
		ev2, err := Compile(f, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreEvaluatorState(ev2, blob); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if again := mustEncode(t, ev2); !bytes.Equal(again, blob) {
			t.Fatalf("cut %d: restored state encodes as %s, saved %s", cut, again, blob)
		}
		for i := cut; i < h.Len(); i++ {
			res, err := ev2.Step(h.At(i))
			if err != nil {
				t.Fatal(err)
			}
			if res.Fired != want[i] {
				t.Errorf("cut %d state %d: fired = %t, want %t", cut, i, res.Fired, want[i])
			}
		}
	}
}

// TestEvaluatorStateRejectsCorrupt exercises the decoder's validation:
// forward references, bad kinds, and implementation mismatches must error,
// never panic.
func TestEvaluatorStateRejectsCorrupt(t *testing.T) {
	f := mustParse(t, `lasttime price("IBM") > 10`)
	reg := ibmRegistry(t)
	ev, err := Compile(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{
		`{"kind":"fast"}`, // wrong implementation
		`{"kind":"general","terms":[{"k":2,"op":0,"l":0,"r":5}],"last":[0],"nodes":[{"k":0}]}`, // forward term ref
		`{"kind":"general","nodes":[{"k":6,"sub":0}],"last":[0]}`,                              // self node ref
		`{"kind":"general","nodes":[{"k":99}],"last":[0]}`,                                     // bad node kind
		`{"kind":"general","nodes":[{"k":0}],"last":[0,1]}`,                                    // register count
		`{"kind":"general","nodes":[{"k":0}],"last":[7]}`,                                      // register id range
		`{"kind":"general","nodes":[{"k":0}],"last":[0],"aggs":[{"sum":{"int":0},"count":0}]}`, // phantom aggregate
		`not json`,
	}
	for _, src := range bad {
		if _, err := RestoreEvaluatorState(ev, []byte(src)); err == nil {
			t.Errorf("restore %s: want error, got nil", src)
		}
	}
}
