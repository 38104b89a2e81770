package ptlactive_test

import (
	"bytes"
	"errors"
	"testing"

	"ptlactive"
)

// TestPublicAPIAggregateRewriting drives the Section-6.1.1 rewriting
// through the public surface.
func TestPublicAPIAggregateRewriting(t *testing.T) {
	eng := ptlactive.NewEngine(ptlactive.Config{
		Initial: map[string]ptlactive.Value{"price": ptlactive.Float(60)},
		Start:   540,
	})
	var fired int
	err := ptlactive.RewriteAggregates(eng, "watch",
		`avg(item("price"); time = 540; @update_stocks) > 70`,
		func(ctx *ptlactive.ActionContext) error {
			fired++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	err = eng.Exec(600, map[string]ptlactive.Value{"price": ptlactive.Float(90)},
		ptlactive.NewEvent("update_stocks"))
	if err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Fatal("rewritten rule did not fire")
	}
}

// TestPublicAPIIndexedAggregate exercises the indexed family.
func TestPublicAPIIndexedAggregate(t *testing.T) {
	eng := ptlactive.NewEngine(ptlactive.Config{
		Initial: map[string]ptlactive.Value{"fam": ptlactive.Relation(nil)},
	})
	err := ptlactive.InstallIndexedAggregate(eng, ptlactive.IndexedAggregate{
		Item:        "fam",
		Fn:          ptlactive.AggCount,
		SampleEvent: "hit",
	})
	if err != nil {
		t.Fatal(err)
	}
	var hot []string
	err = eng.AddTrigger("hot", `(K, N) in item("fam") and N >= 2`,
		func(ctx *ptlactive.ActionContext) error {
			k, _ := ctx.Param("K")
			hot = append(hot, k.AsString())
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := eng.Emit(eng.Now()+1, ptlactive.NewEvent("hit", ptlactive.Str("x"))); err != nil {
			t.Fatal(err)
		}
	}
	if len(hot) == 0 || hot[0] != "x" {
		t.Fatalf("hot = %v", hot)
	}
}

// TestPublicAPIHistoryIO round-trips an engine history through the
// serialization helpers.
func TestPublicAPIHistoryIO(t *testing.T) {
	eng := ptlactive.NewEngine(ptlactive.Config{
		Initial: map[string]ptlactive.Value{"a": ptlactive.Int(1)},
	})
	_ = eng.Exec(1, map[string]ptlactive.Value{"a": ptlactive.Int(2)})
	var buf bytes.Buffer
	if err := ptlactive.WriteHistory(&buf, eng.History()); err != nil {
		t.Fatal(err)
	}
	back, err := ptlactive.ReadHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != eng.History().Len() {
		t.Fatal("round trip lost states")
	}
	// The re-read history drives the naive evaluator.
	f, _ := ptlactive.ParseCondition(`previously item("a") = 1`)
	nv := ptlactive.NewNaiveEvaluator(ptlactive.NewRegistry(), back, nil)
	ok, err := nv.SatLast(f, nil)
	if err != nil || !ok {
		t.Fatalf("sat=%t err=%v", ok, err)
	}
}

// TestPublicAPIEnforceValidCommit drives the Section-9.3 enforcement via
// the public valid-time surface.
func TestPublicAPIEnforceValidCommit(t *testing.T) {
	base := ptlactive.NewDB(map[string]ptlactive.Value{"a": ptlactive.Int(0)})
	s := ptlactive.NewValidStore(base, 0, 100)
	reg := ptlactive.NewRegistry()
	c, _ := ptlactive.ParseCondition(`item("a") >= 0`)
	if err := s.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Post(1, "a", ptlactive.Int(-3), 1, 1); err != nil {
		t.Fatal(err)
	}
	err := s.EnforceCommit(1, 2, reg, map[string]ptlactive.Formula{"nonneg": c})
	var ve *ptlactive.ValidViolationError
	if err == nil {
		t.Fatal("violating commit accepted")
	}
	if !asViolation(err, &ve) || ve.Constraint != "nonneg" {
		t.Fatalf("err = %v", err)
	}
}

func asViolation(err error, target **ptlactive.ValidViolationError) bool {
	v, ok := err.(*ptlactive.ValidViolationError)
	if ok {
		*target = v
	}
	return ok
}

// TestPublicAPIRetrieveQuery wires a RETRIEVE query into a parameterized
// membership rule through the public API — the paper's OVERPRICED example
// end to end.
func TestPublicAPIRetrieveQuery(t *testing.T) {
	schema := ptlactive.MustSchema(
		ptlactive.Column{Name: "name"},
		ptlactive.Column{Name: "price"},
	)
	reg := ptlactive.NewRegistry()
	err := reg.RegisterRetrieve("overpriced",
		`RETRIEVE (stock_for_sale.name) WHERE stock_for_sale.price >= 300`, schema)
	if err != nil {
		t.Fatal(err)
	}
	stocks := func(rows ...[]ptlactive.Value) ptlactive.Value {
		return ptlactive.Relation(rows)
	}
	eng := ptlactive.NewEngine(ptlactive.Config{
		Registry: reg,
		Initial: map[string]ptlactive.Value{"stock_for_sale": stocks(
			[]ptlactive.Value{ptlactive.Str("IBM"), ptlactive.Float(72)},
		)},
	})
	var alerts []string
	err = eng.AddTrigger("alert", `S in overpriced() and not lasttime (S in overpriced())`,
		func(ctx *ptlactive.ActionContext) error {
			s, _ := ctx.Param("S")
			alerts = append(alerts, s.AsString())
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	err = eng.Exec(1, map[string]ptlactive.Value{"stock_for_sale": stocks(
		[]ptlactive.Value{ptlactive.Str("IBM"), ptlactive.Float(72)},
		[]ptlactive.Value{ptlactive.Str("XYZ"), ptlactive.Float(310)},
	)})
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 || alerts[0] != "XYZ" {
		t.Fatalf("alerts = %v", alerts)
	}
}

// TestPublicAPIHistoryTruncated: both refusals of a read below a history
// floor — an engine's ItemAsOfChecked below its oldest state after a
// Compact, and a valid-time store's CommittedAtChecked below its
// truncation cut — match the one exported sentinel.
func TestPublicAPIHistoryTruncated(t *testing.T) {
	eng := ptlactive.NewEngine(ptlactive.Config{Initial: map[string]ptlactive.Value{"a": ptlactive.Int(0)}})
	for ts := int64(1); ts <= 5; ts++ {
		if err := eng.Exec(ts, map[string]ptlactive.Value{"a": ptlactive.Int(ts)}); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Compact() == 0 {
		t.Fatal("nothing compacted")
	}
	_, _, err := eng.ItemAsOfChecked("a", 2)
	var hte *ptlactive.HistoryTruncatedError
	if !errors.Is(err, ptlactive.ErrHistoryTruncated) || !errors.As(err, &hte) || hte.Floor != 5 {
		t.Fatalf("engine read below the floor: %v", err)
	}

	s := ptlactive.NewValidStore(ptlactive.NewDB(map[string]ptlactive.Value{"a": ptlactive.Int(0)}), 0, 10)
	for id := int64(1); id <= 2; id++ {
		if err := s.Begin(id); err != nil {
			t.Fatal(err)
		}
		if err := s.Post(id, "a", ptlactive.Int(id), 2*id, 2*id); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(id, 2*id+1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.TruncateBefore(4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CommittedAtChecked(1); !errors.Is(err, ptlactive.ErrHistoryTruncated) {
		t.Fatalf("valid-time read below the floor: %v", err)
	}
}
