package ptlgen

import (
	"math/rand"
	"testing"

	"ptlactive/internal/ptl"
)

// TestGeneratedFormulasCheck: every generated formula must pass the
// checker against the generator's registry (closed, safe, known queries).
func TestGeneratedFormulasCheck(t *testing.T) {
	reg := Registry()
	for seed := 0; seed < 300; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		f := Formula(rng, 1+rng.Intn(5))
		if fv := ptl.FreeVars(f); len(fv) != 0 {
			t.Fatalf("seed %d: generated formula has free vars %v: %s", seed, fv, f)
		}
		if _, err := ptl.Check(f, reg); err != nil {
			t.Fatalf("seed %d: Check failed: %v\n%s", seed, err, f)
		}
	}
	for seed := 0; seed < 150; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		f := FormulaWithAggregates(rng, 1+rng.Intn(4))
		if _, err := ptl.Check(f, reg); err != nil {
			t.Fatalf("agg seed %d: Check failed: %v\n%s", seed, err, f)
		}
	}
	for seed := 0; seed < 150; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		f := LinearFormula(rng, 1+rng.Intn(4))
		if _, err := ptl.Check(f, reg); err != nil {
			t.Fatalf("linear seed %d: Check failed: %v\n%s", seed, err, f)
		}
	}
}

// TestGeneratedFormulasRoundTrip: the printer/parser round trip holds for
// every generator family. The WAL and snapshots store a rule as its
// printed condition, so this is what recovery rebuilds rules from.
func TestGeneratedFormulasRoundTrip(t *testing.T) {
	for name, gen := range map[string]func(*rand.Rand, int) ptl.Formula{
		"Formula":               Formula,
		"FormulaWithAggregates": FormulaWithAggregates,
		"LinearFormula":         LinearFormula,
	} {
		for seed := 0; seed < 1000; seed++ {
			rng := rand.New(rand.NewSource(int64(500 + seed)))
			f := gen(rng, 1+rng.Intn(4))
			back, err := ptl.Parse(f.String())
			if err != nil {
				t.Fatalf("%s seed %d: reparse: %v\n%s", name, seed, err, f)
			}
			if !ptl.Equal(f, back) {
				t.Fatalf("%s seed %d: round trip changed\n  a: %s\n  b: %s", name, seed, f, back)
			}
		}
	}
}

// TestGeneratedHistoriesValid: histories respect the model invariants (the
// builder enforces them; this asserts the generator never trips them and
// produces the advertised mix).
func TestGeneratedHistoriesValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := History(rng, 200)
	if h.Len() != 201 {
		t.Fatalf("Len = %d", h.Len())
	}
	commits := len(h.CommitPoints())
	if commits == 0 || commits == 200 {
		t.Fatalf("commit mix degenerate: %d", commits)
	}
	for _, name := range Items {
		if _, ok := h.At(0).DB.Get(name); !ok {
			t.Fatalf("item %s missing from initial state", name)
		}
	}
	// Determinism.
	h2 := History(rand.New(rand.NewSource(9)), 200)
	for i := 0; i < h.Len(); i++ {
		if h.At(i).TS != h2.At(i).TS || !h.At(i).DB.Equal(h2.At(i).DB) {
			t.Fatal("history generation not deterministic")
		}
	}
}
