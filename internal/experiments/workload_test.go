package experiments

import (
	"math/rand"
	"testing"

	"ptlactive/internal/value"
)

func TestStocksShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultStockConfig()
	h := Stocks(rng, cfg, 50)
	if h.Len() != 51 {
		t.Fatalf("Len = %d, want 51 (initial + 50 commits)", h.Len())
	}
	if got := len(h.CommitPoints()); got != 50 {
		t.Fatalf("commit points = %d", got)
	}
	// Prices stay above the floor; timestamps strictly increase (enforced
	// by History, but check the generator's bounds).
	for i := 0; i < h.Len(); i++ {
		st := h.At(i)
		for _, s := range cfg.Symbols {
			v, ok := st.DB.Get(ItemName(s))
			if !ok {
				t.Fatalf("state %d missing %s", i, ItemName(s))
			}
			if v.AsFloat() < cfg.Floor {
				t.Fatalf("price below floor at state %d: %v", i, v)
			}
		}
	}
	// Update events attached.
	st := h.At(1)
	if len(st.Events.ByName(cfg.UpdateEvent)) != 1 {
		t.Errorf("missing update event: %v", st.Events)
	}
	// Determinism.
	h2 := Stocks(rand.New(rand.NewSource(1)), cfg, 50)
	for i := 0; i < h.Len(); i++ {
		if !h.At(i).DB.Equal(h2.At(i).DB) || h.At(i).TS != h2.At(i).TS {
			t.Fatal("generator not deterministic")
		}
	}
}

func TestStocksPanicsOnEmptySymbols(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Stocks(rand.New(rand.NewSource(1)), StockConfig{}, 1)
}

func TestRetroStream(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ops := Retro(rng, 10, 5, 0.3)
	begins, commits, aborts, posts := 0, 0, 0, 0
	lastAt := int64(0)
	for _, op := range ops {
		switch op.Op {
		case "begin":
			begins++
		case "post":
			posts++
			if op.Valid > op.At || op.At-op.Valid > 5 {
				t.Fatalf("post outside delay window: %+v", op)
			}
			if op.V.Kind() != value.Int {
				t.Fatalf("post value kind %s", op.V.Kind())
			}
		case "commit":
			commits++
		case "abort":
			aborts++
		}
		if op.At < lastAt {
			t.Fatalf("operation times went backwards: %+v", op)
		}
		lastAt = op.At
	}
	if begins != 10 || commits+aborts != 10 || posts < 10 {
		t.Errorf("ops: begins=%d commits=%d aborts=%d posts=%d", begins, commits, aborts, posts)
	}
}
