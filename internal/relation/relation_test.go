package relation

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ptlactive/internal/value"
)

func stockSchema() *Schema {
	return MustSchema(
		Column{Name: "name", Kind: value.String},
		Column{Name: "price", Kind: value.Float},
	)
}

func row(name string, price float64) []value.Value {
	return []value.Value{value.NewString(name), value.NewFloat(price)}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Column{Name: "a"}, Column{Name: "a"}); err == nil {
		t.Error("duplicate column should error")
	}
	if _, err := NewSchema(Column{Name: ""}); err == nil {
		t.Error("empty column name should error")
	}
	s := stockSchema()
	if s.Arity() != 2 || s.ColumnIndex("price") != 1 || s.ColumnIndex("zzz") != -1 {
		t.Error("schema accessors wrong")
	}
	if s.String() != "(name string, price float)" {
		t.Errorf("schema String = %q", s.String())
	}
	defer func() {
		if recover() == nil {
			t.Error("MustSchema should panic on error")
		}
	}()
	MustSchema(Column{Name: ""})
}

func TestInsertTypeChecking(t *testing.T) {
	r := New(stockSchema())
	if err := r.Insert(row("ibm", 72)); err != nil {
		t.Fatal(err)
	}
	// Numeric interchange allowed.
	if err := r.Insert([]value.Value{value.NewString("dj"), value.NewInt(3900)}); err != nil {
		t.Fatalf("int into float column should be allowed: %v", err)
	}
	if err := r.Insert([]value.Value{value.NewInt(1), value.NewFloat(2)}); err == nil {
		t.Error("string column should reject int")
	}
	if err := r.Insert(row("x", 1)[:1]); err == nil {
		t.Error("wrong arity should error")
	}
	// Any-kind column accepts everything.
	anyr := New(MustSchema(Column{Name: "v"}))
	for _, v := range []value.Value{value.NewInt(1), value.NewString("s"), value.NewBool(true)} {
		if err := anyr.Insert([]value.Value{v}); err != nil {
			t.Errorf("any column rejected %v: %v", v, err)
		}
	}
}

func TestSetSemantics(t *testing.T) {
	r := New(stockSchema())
	for i := 0; i < 3; i++ {
		if err := r.Insert(row("ibm", 72)); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.String(); got != `(name string, price float){("ibm", 72.0)}` {
		t.Fatalf("String = %s, want one row (set semantics)", got)
	}
}

func TestSelectProject(t *testing.T) {
	r := New(stockSchema())
	_ = r.Insert(row("ibm", 72))
	_ = r.Insert(row("ibm2", 310))
	_ = r.Insert(row("xyz", 305))
	over := r.Select(func(tu []value.Value) bool { return tu[1].AsFloat() >= 300 })
	if n := over.Value().NumRows(); n != 2 {
		t.Fatalf("overpriced rows = %d", n)
	}
	names, err := over.Project("name")
	if err != nil {
		t.Fatal(err)
	}
	if names.Value().NumRows() != 2 || names.Schema().Arity() != 1 {
		t.Error("project wrong")
	}
	if _, err := r.Project("nope"); err == nil {
		t.Error("project on unknown column should error")
	}
	// Projection merges duplicates.
	prices, err := r.Project("price")
	if err != nil {
		t.Fatal(err)
	}
	_ = r.Insert(row("dup", 72))
	prices2, _ := r.Project("price")
	if prices2.Value().NumRows() != prices.Value().NumRows() {
		t.Error("projection should deduplicate")
	}
}

// TestEqualAndString: equal relations render alike, whatever the order
// their rows were inserted in, and unequal ones differently.
func TestEqualAndString(t *testing.T) {
	a := New(stockSchema())
	_ = a.Insert(row("a", 1))
	_ = a.Insert(row("b", 2))
	b := New(stockSchema())
	_ = b.Insert(row("b", 2))
	_ = b.Insert(row("a", 1))
	if a.String() != b.String() {
		t.Errorf("insertion order changed String: %s, %s", a, b)
	}
	_ = b.Insert(row("c", 3))
	if a.String() == b.String() {
		t.Error("different cardinality rendered alike")
	}
}

func TestValueRoundTrip(t *testing.T) {
	a := New(stockSchema())
	_ = a.Insert(row("a", 1))
	_ = a.Insert(row("b", 2))
	v := a.Value()
	if back := Admit(stockSchema(), v); back.String() != a.String() {
		t.Errorf("Value/Admit round trip gave %s, want %s", back, a)
	}
	// A scalar holds no rows; a row of another width or kind is skipped.
	if got := Admit(stockSchema(), value.NewInt(1)); len(got.rows) != 0 {
		t.Errorf("Admit of a scalar = %s, want no rows", got)
	}
	mixed := value.NewRelation([][]value.Value{row("a", 1), {value.NewString("b")}, {value.NewInt(2), value.NewInt(2)}})
	if got, want := Admit(stockSchema(), mixed).String(), Admit(stockSchema(), value.NewRelation([][]value.Value{row("a", 1)})).String(); got != want {
		t.Errorf("Admit skipping ill-shaped rows = %s, want %s", got, want)
	}
}

// Selection and projection laws on random relations (DESIGN.md §5).
func TestAlgebraLaws(t *testing.T) {
	schema := MustSchema(Column{Name: "x", Kind: value.Int}, Column{Name: "y", Kind: value.Int})
	gen := func(seed int64) *Relation {
		rng := rand.New(rand.NewSource(seed))
		r := New(schema)
		for i := 0; i < rng.Intn(20); i++ {
			_ = r.Insert([]value.Value{value.NewInt(int64(rng.Intn(5))), value.NewInt(int64(rng.Intn(5)))})
		}
		return r
	}
	p := func(tu []value.Value) bool { return tu[0].AsInt() < 3 }
	q := func(tu []value.Value) bool { return tu[1].AsInt()%2 == 0 }

	prop := func(seed int64) bool {
		a := gen(seed)
		// Selections compose into their conjunction, in either order.
		both := a.Select(func(tu []value.Value) bool { return p(tu) && q(tu) }).String()
		if a.Select(p).Select(q).String() != both || a.Select(q).Select(p).String() != both {
			return false
		}
		// Projecting onto every column is the identity; a selection on x
		// commutes with the projection onto x.
		all, err := a.Project("x", "y")
		if err != nil || all.String() != a.String() {
			return false
		}
		px, err := a.Project("x")
		if err != nil {
			return false
		}
		sx, err := a.Select(p).Project("x")
		return err == nil && sx.String() == px.Select(p).String()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
