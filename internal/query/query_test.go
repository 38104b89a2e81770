package query

import (
	"strings"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/history"
	"ptlactive/internal/relation"
	"ptlactive/internal/value"
)

func state(items map[string]value.Value, ts int64) history.SystemState {
	return history.SystemState{DB: history.NewDB(items), Events: event.NewSet(), TS: ts}
}

func TestBuiltins(t *testing.T) {
	r := NewRegistry()
	st := state(map[string]value.Value{"dj": value.NewInt(3900)}, 42)

	v, err := r.Eval("item", st, []value.Value{value.NewString("dj")})
	if err != nil || v.AsInt() != 3900 {
		t.Fatalf("item(dj) = %v, %v", v, err)
	}
	v, err = r.Eval("time", st, nil)
	if err != nil || v.AsInt() != 42 {
		t.Fatalf("time() = %v, %v", v, err)
	}
	// item resolves the reserved "time" data item too.
	v, err = r.Eval("item", st, []value.Value{value.NewString("time")})
	if err != nil || v.AsInt() != 42 {
		t.Fatalf("item(time) = %v, %v", v, err)
	}
	// An absent item, or a name that is not a string, reads as Null.
	for _, name := range []value.Value{value.NewString("missing"), value.NewInt(1), {}} {
		if v, err := r.Eval("item", st, []value.Value{name}); err != nil || !v.IsNull() {
			t.Errorf("item(%v) = %v, %v; want null", name, v, err)
		}
	}
	// A pure function's read set names items a write changes: not the clock.
	if err := r.RegisterPure("now", 0, []string{"a", "time"}, nil); err == nil || r.Has("now") {
		t.Errorf("a pure function reading time registered (%v)", err)
	}
	if _, err := r.Eval("item", st, nil); err == nil {
		t.Error("wrong arity should error")
	}
	if _, err := r.Eval("nope", st, nil); err == nil {
		t.Error("unknown function should error")
	}
}

func TestRegisterValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("", 0, nil); err == nil {
		t.Error("empty name should error")
	}
	if err := r.Register("f", 0, nil); err == nil {
		t.Error("nil function should error")
	}
	ok := func(st history.SystemState, args []value.Value) (value.Value, error) {
		return value.True, nil
	}
	if err := r.Register("f", 0, ok); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("f", 0, ok); err == nil {
		t.Error("duplicate registration should error")
	}
	if err := r.Register("item", 1, ok); err == nil {
		t.Error("built-in must not be replaceable")
	}
	if !r.Has("f") || r.Has("zzz") {
		t.Error("Has wrong")
	}
	if a, ok := r.Arity("item"); !ok || a != 1 {
		t.Error("Arity(item) wrong")
	}
	if _, ok := r.Arity("zzz"); ok {
		t.Error("Arity of unknown should miss")
	}
	names := r.Names()
	if len(names) < 3 || names[0] > names[len(names)-1] {
		t.Errorf("Names = %v", names)
	}
}

func TestVariadic(t *testing.T) {
	r := NewRegistry()
	_ = r.Register("count", -1, func(st history.SystemState, args []value.Value) (value.Value, error) {
		return value.NewInt(int64(len(args))), nil
	})
	st := state(nil, 0)
	for n := 0; n < 4; n++ {
		args := make([]value.Value, n)
		for i := range args {
			args[i] = value.NewInt(int64(i))
		}
		v, err := r.Eval("count", st, args)
		if err != nil || v.AsInt() != int64(n) {
			t.Fatalf("count with %d args = %v, %v", n, v, err)
		}
	}
}

func stocksSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "name", Kind: value.String},
		relation.Column{Name: "price", Kind: value.Float},
		relation.Column{Name: "company", Kind: value.String},
		relation.Column{Name: "category", Kind: value.String},
	)
}

func stocksItem() value.Value {
	return value.NewRelation([][]value.Value{
		{value.NewString("IBM"), value.NewFloat(72), value.NewString("IBM Corp"), value.NewString("tech")},
		{value.NewString("XYZ"), value.NewFloat(310), value.NewString("XYZ Inc"), value.NewString("tech")},
		{value.NewString("OIL"), value.NewFloat(305), value.NewString("Oil Co"), value.NewString("energy")},
	})
}

func TestRegisterItemField(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterItemField("price", "stock_for_sale", stocksSchema(), "name", "price"); err != nil {
		t.Fatal(err)
	}
	st := state(map[string]value.Value{"stock_for_sale": stocksItem()}, 1)
	v, err := r.Eval("price", st, []value.Value{value.NewString("IBM")})
	if err != nil || v.AsFloat() != 72 {
		t.Fatalf("price(IBM) = %v, %v", v, err)
	}
	// A missing key, a missing item, a non-relation item and a row the
	// schema does not admit (the one that used to index past its end) all
	// read as Null, never an error.
	ibm := []value.Value{value.NewString("IBM")}
	narrow := value.NewRelation([][]value.Value{{value.NewString("IBM")}})
	for what, c := range map[string]struct {
		st   history.SystemState
		args []value.Value
	}{
		"missing key":  {st, []value.Value{value.NewString("NONE")}},
		"missing item": {state(nil, 1), ibm},
		"scalar item":  {state(map[string]value.Value{"stock_for_sale": value.NewInt(1)}, 1), ibm},
		"narrow row":   {state(map[string]value.Value{"stock_for_sale": narrow}, 1), ibm},
	} {
		if v, err := r.Eval("price", c.st, c.args); err != nil || !v.IsNull() {
			t.Errorf("%s: price = %v, %v; want null", what, v, err)
		}
	}
	// Column validation at registration time.
	if err := r.RegisterItemField("bad", "stock_for_sale", stocksSchema(), "nope", "price"); err == nil {
		t.Error("unknown key column should error")
	}
}

// TestRegisterSelect reproduces the paper's OVERPRICED query:
// RETRIEVE (STOCK-FOR-SALE.name) WHERE STOCK-FOR-SALE.price >= 300.
func TestRegisterSelect(t *testing.T) {
	r := NewRegistry()
	err := r.RegisterSelect("overpriced", "stock_for_sale", stocksSchema(),
		func(row []value.Value) bool { return row[1].AsFloat() >= 300 }, "name")
	if err != nil {
		t.Fatal(err)
	}
	st := state(map[string]value.Value{"stock_for_sale": stocksItem()}, 1)
	v, err := r.Eval("overpriced", st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind() != value.Relation || v.NumRows() != 2 {
		t.Fatalf("overpriced = %v", v)
	}
	names := map[string]bool{}
	for _, row := range v.Rows() {
		names[row[0].AsString()] = true
	}
	if !names["XYZ"] || !names["OIL"] || names["IBM"] {
		t.Errorf("overpriced names = %v", names)
	}
	// Projection column validation.
	if err := r.RegisterSelect("bad", "x", stocksSchema(), nil, "nope"); err == nil ||
		!strings.Contains(err.Error(), "projection") {
		t.Error("unknown projection column should error")
	}
	// A repeated projection column is refused at registration, not at
	// every evaluation.
	if err := r.RegisterSelect("dup", "x", stocksSchema(), nil, "name", "name"); err == nil ||
		!strings.Contains(err.Error(), "projection") {
		t.Error("repeated projection column should error")
	}
	// A missing item is the empty relation; a row the schema does not
	// admit never reaches pred (whose AsFloat would panic on it).
	if v, err := r.Eval("overpriced", state(nil, 1), nil); err != nil || v.NumRows() != 0 {
		t.Errorf("missing item: overpriced = %v, %v; want no rows", v, err)
	}
	ill := value.NewRelation(append(stocksItem().Rows(),
		[]value.Value{value.NewString("BAD"), value.NewString("x"), value.NewString("c"), value.NewString("tech")},
		[]value.Value{value.NewString("NARROW")}))
	if v, err := r.Eval("overpriced", state(map[string]value.Value{"stock_for_sale": ill}, 1), nil); err != nil || v.NumRows() != 2 {
		t.Errorf("ill-shaped rows: overpriced = %v, %v; want the 2 admitted rows", v, err)
	}
}

// Registry registration may race with evaluation: an engine evaluates rule
// conditions (which call Eval) while an application goroutine can still be
// registering queries. Run under -race this guards the registry's internal
// locking.
func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	st := state(map[string]value.Value{"a": value.NewInt(7)}, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			name := "q" + strings.Repeat("x", i%5) + string(rune('a'+i%26))
			_ = r.Register(name, 0, func(history.SystemState, []value.Value) (value.Value, error) {
				return value.NewInt(1), nil
			})
		}
	}()
	for i := 0; i < 200; i++ {
		if v, err := r.Eval("item", st, []value.Value{value.NewString("a")}); err != nil || v.AsInt() != 7 {
			t.Fatalf("item(a) = %v, %v", v, err)
		}
		_ = r.Has("item")
		_, _ = r.Arity("time")
		_ = r.Names()
	}
	<-done
}
