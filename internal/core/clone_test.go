package core

import (
	"bytes"
	"math/rand"
	"testing"

	"ptlactive/internal/ptl"
	"ptlactive/internal/ptlgen"
)

// TestCloneIndependence: after cloning mid-stream, feeding different
// suffixes to the original and the clone must not interfere; feeding the
// same suffix must produce identical firings.
func TestCloneIndependence(t *testing.T) {
	reg := ptlgen.Registry()
	for seed := 0; seed < 80; seed++ {
		rng := rand.New(rand.NewSource(int64(7000 + seed)))
		f := ptlgen.FormulaWithAggregates(rng, 1+rng.Intn(3))
		info, err := ptl.Check(f, reg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		h := ptlgen.History(rng, 14)
		a, err := New(info, reg, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cut := 1 + rng.Intn(h.Len()-2)
		var prefix []bool
		for i := 0; i < cut; i++ {
			res, err := a.Step(h.At(i))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			prefix = append(prefix, res.Fired)
		}
		b := a.Clone()
		if sa, sb := mustEncode(t, a), mustEncode(t, b); !bytes.Equal(sa, sb) {
			t.Fatalf("seed %d: clone state differs:\n original: %s\n clone:    %s", seed, sa, sb)
		}
		// Same suffix on both: identical results.
		for i := cut; i < h.Len(); i++ {
			ra, err := a.Step(h.At(i))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			rb, err := b.Step(h.At(i))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if ra.Fired != rb.Fired {
				t.Fatalf("seed %d state %d: original=%t clone=%t\nformula: %s",
					seed, i, ra.Fired, rb.Fired, f)
			}
		}
		_ = prefix
	}
}

// TestCloneDoesNotLeakIntoOriginal: stepping the clone alone leaves the
// original's subsequent behavior identical to an evaluator that never was
// cloned.
func TestCloneDoesNotLeakIntoOriginal(t *testing.T) {
	reg := ptlgen.Registry()
	for seed := 0; seed < 60; seed++ {
		rng := rand.New(rand.NewSource(int64(8000 + seed)))
		f := ptlgen.Formula(rng, 1+rng.Intn(3))
		h := ptlgen.History(rng, 12)
		// Control evaluator: never cloned.
		control, err := Compile(f, reg, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		subject, err := Compile(f, reg, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 0; i < h.Len(); i++ {
			rc, err := control.Step(h.At(i))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			// Clone the subject every state and run the clone ahead on the
			// next state (like the engine's tentative constraint checks).
			if i+1 < h.Len() {
				cl := subject.Clone()
				if _, err := cl.Step(h.At(i + 1)); err != nil {
					t.Fatalf("seed %d: clone step: %v", seed, err)
				}
			}
			rs, err := subject.Step(h.At(i))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if rc.Fired != rs.Fired {
				t.Fatalf("seed %d state %d: cloning polluted the original (control=%t subject=%t)\nformula: %s",
					seed, i, rc.Fired, rs.Fired, f)
			}
		}
	}
}
