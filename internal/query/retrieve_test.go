package query

import (
	"strings"
	"testing"

	"ptlactive/internal/history"
	"ptlactive/internal/value"
)

// TestRetrieveOverpriced is the paper's Section-4.1 query verbatim (modulo
// identifier punctuation): retrieve the names of stocks priced >= 300.
func TestRetrieveOverpriced(t *testing.T) {
	reg := NewRegistry()
	err := reg.RegisterRetrieve("overpriced",
		`RETRIEVE (stock_for_sale.name) WHERE stock_for_sale.price >= 300`,
		stocksSchema())
	if err != nil {
		t.Fatal(err)
	}
	st := state(map[string]value.Value{"stock_for_sale": stocksItem()}, 1)
	v, err := reg.Eval("overpriced", st, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, row := range v.Rows() {
		names[row[0].AsString()] = true
	}
	if !names["XYZ"] || !names["OIL"] || names["IBM"] || len(names) != 2 {
		t.Fatalf("overpriced = %v", names)
	}
}

func TestRetrieveWhereForms(t *testing.T) {
	reg := NewRegistry()
	st := state(map[string]value.Value{"s": stocksItem()}, 1)
	cases := map[string]int{
		`RETRIEVE (s.name)`:                                                3,
		`RETRIEVE (s.name) WHERE s.category = "tech"`:                      2,
		`RETRIEVE (s.name) WHERE s.category = "tech" AND s.price < 100`:    1,
		`RETRIEVE (s.name) WHERE s.category = "energy" OR s.price < 100`:   2,
		`RETRIEVE (s.name) WHERE NOT s.category = "tech"`:                  1,
		`RETRIEVE (s.name) WHERE (s.price >= 300 AND s.category = "tech")`: 1,
		`RETRIEVE (s.name, s.price) WHERE s.name != "IBM"`:                 2,
		`RETRIEVE (s.name) WHERE s.company = s.company`:                    3,
		`RETRIEVE (s.name) WHERE s.price > 304.5 AND s.price <= 310`:       2,
		`retrieve (s.name) where s.price = 72`:                             1,
	}
	for src, want := range cases {
		name := "q" + strings.ReplaceAll(strings.ReplaceAll(src, " ", ""), "\"", "")
		if err := reg.RegisterRetrieve(name, src, stocksSchema()); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		v, err := reg.Eval(name, st, nil)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if v.NumRows() != want {
			t.Errorf("%q = %d rows, want %d\n%v", src, v.NumRows(), want, v)
		}
	}
}

func TestRetrieveErrors(t *testing.T) {
	reg := NewRegistry()
	bad := []string{
		``,
		`SELECT (s.name)`,
		`RETRIEVE s.name`,
		`RETRIEVE (s.nope)`,
		`RETRIEVE (s.name, s.name)`,
		`RETRIEVE (s.name) WHERE s.price`,
		`RETRIEVE (s.name) WHERE s.price >= `,
		`RETRIEVE (s.name) WHERE t.price >= 300`,
		`RETRIEVE (s.name, t.price)`,
		`RETRIEVE (s.name) WHERE s.price >= 300 trailing`,
		`RETRIEVE (s.name) WHERE (s.price >= 300`,
		`RETRIEVE (s.name) WHERE s.price >= 30.0.0`,
		`RETRIEVE (s.`,
		`RETRIEVE (`,
	}
	for i, src := range bad {
		if err := reg.RegisterRetrieve("bad"+strings.Repeat("x", i), src, stocksSchema()); err == nil {
			t.Errorf("RegisterRetrieve(%q) should fail", src)
		}
	}
}

func TestRetrieveRuntimeErrors(t *testing.T) {
	reg := NewRegistry()
	err := reg.RegisterRetrieve("q", `RETRIEVE (s.name) WHERE s.price >= 300`, stocksSchema())
	if err != nil {
		t.Fatal(err)
	}
	// A missing item, a scalar item and a relation of rows the schema does
	// not admit are the empty relation, never an error.
	for what, st := range map[string]history.SystemState{
		"missing item": state(nil, 1),
		"scalar item":  state(map[string]value.Value{"s": value.NewInt(3)}, 1),
		"narrow rows":  state(map[string]value.Value{"s": value.NewRelation([][]value.Value{{value.NewString("XYZ")}})}, 1),
	} {
		if v, err := reg.Eval("q", st, nil); err != nil || v.NumRows() != 0 {
			t.Errorf("%s: %v, %v; want no rows", what, v, err)
		}
	}
	// A cross-kind ordering inside WHERE is false, and its negation true:
	// no row, then every row.
	okState := state(map[string]value.Value{"s": stocksItem()}, 1)
	for src, want := range map[string]int{
		`RETRIEVE (s.name) WHERE s.name > 3`:       0,
		`RETRIEVE (s.name) WHERE NOT (s.name > 3)`: stocksItem().NumRows(),
	} {
		reg := NewRegistry()
		if err := reg.RegisterRetrieve("q2", src, stocksSchema()); err != nil {
			t.Fatal(err)
		}
		if v, err := reg.Eval("q2", okState, nil); err != nil || v.NumRows() != want {
			t.Errorf("%s: %v, %v; want %d rows", src, v, err, want)
		}
	}
}

// TestRetrieveInsideCondition wires a RETRIEVE query into a PTL-style use:
// the engine-level usage goes through membership, exercised in core and
// adb; here we check relation output composes with relation.Admit consumers.
func TestRetrieveBoolLiterals(t *testing.T) {
	reg := NewRegistry()
	schema := stocksSchema()
	err := reg.RegisterRetrieve("q", `RETRIEVE (s.name) WHERE true AND NOT false`, schema)
	if err != nil {
		t.Fatal(err)
	}
	st := state(map[string]value.Value{"s": stocksItem()}, 1)
	v, err := reg.Eval("q", st, nil)
	if err != nil || v.NumRows() != 3 {
		t.Fatalf("rows=%d err=%v", v.NumRows(), err)
	}
}
