package adb

import (
	"sort"
	"testing"

	"ptlactive/internal/history"
	"ptlactive/internal/value"
)

// classEngine builds an engine with items a, b, p; a pure query function
// "total" declaring the footprint {a, b}; and "opaque", registered
// without purity or a footprint.
func classEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(Config{Initial: map[string]value.Value{
		"a": value.NewInt(1), "b": value.NewInt(2), "p": value.NewInt(3),
	}})
	if err := e.Registry().RegisterPure("total", 0, []string{"a", "b"}, func(st history.SystemState, args []value.Value) (value.Value, error) {
		av, _ := st.DB.Get("a")
		bv, _ := st.DB.Get("b")
		return value.NewInt(av.AsInt() + bv.AsInt()), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Register("opaque", 0, func(st history.SystemState, args []value.Value) (value.Value, error) {
		return value.NewInt(7), nil
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// addRule registers the condition under Relevant scheduling and returns
// the compiled rule for white-box inspection.
func addRule(t *testing.T, e *Engine, name, cond string, opts ...RuleOption) *rule {
	t.Helper()
	if len(opts) == 0 {
		opts = []RuleOption{WithScheduling(Relevant)}
	}
	if err := e.AddTrigger(name, cond, nil, opts...); err != nil {
		t.Fatalf("AddTrigger(%s): %v", cond, err)
	}
	return e.index[name]
}

func itemList(rs readSet) []string {
	var out []string
	for k := range rs.items {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestReadSetExtraction(t *testing.T) {
	cases := []struct {
		cond       string
		items      []string
		analyzable bool
		timeDep    bool
	}{
		// Plain item comparisons.
		{`item("a") > 2`, []string{"a"}, true, false},
		{`item("a") + item("b") > 6`, []string{"a", "b"}, true, false},
		// The [x <- q] assignment binds x to a query result; the footprint
		// must include items read inside the assignment term and the body.
		{`[x <- item("a")] (x > 0 and item("b") < 100)`, []string{"a", "b"}, true, false},
		// Aggregate subformulas are walked too: the aggregated term and
		// both trigger/reset subformulas contribute.
		{`sum(item("a"); @reset; @tick and item("b") > 0) > 5`, []string{"a", "b"}, true, false},
		// A registered pure function contributes its declared footprint.
		{`total() > 2`, []string{"a", "b"}, true, false},
		// time() is a timestamp dependency, not a database read.
		{`time() > 10 and item("p") > 0`, []string{"p"}, true, true},
		// An unregistered-footprint function poisons analyzability; being
		// impure it also forces a time dependency.
		{`opaque() > 0`, nil, false, true},
	}
	for _, tc := range cases {
		e := classEngine(t)
		r := addRule(t, e, "r", tc.cond)
		if got := itemList(r.rs); !equalStrings(got, tc.items) {
			t.Errorf("%s: items = %v, want %v", tc.cond, got, tc.items)
		}
		if r.rs.analyzable != tc.analyzable {
			t.Errorf("%s: analyzable = %v, want %v", tc.cond, r.rs.analyzable, tc.analyzable)
		}
		if r.rs.timeDep != tc.timeDep {
			t.Errorf("%s: timeDep = %v, want %v", tc.cond, r.rs.timeDep, tc.timeDep)
		}
	}
}

func TestReadSetExecutedAtoms(t *testing.T) {
	e := classEngine(t)
	r0 := addRule(t, e, "r0", `item("a") > 0`)
	r := addRule(t, e, "r", `executed(r0, T) and time() > T + 10`)
	if !r.rs.execRules["r0"] {
		t.Fatalf("executed() target not extracted: %v", r.rs.execRules)
	}
	// executed() is a temporal predicate: the rule must stay classExact so
	// every woken state is really evaluated.
	if r.class != classExact {
		t.Fatalf("executed() rule classified %d, want classExact", r.class)
	}
	_ = r0
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		cond string
		opts []RuleOption
		want ruleClass
	}{
		// Event-free database readers with a full footprint are quiescent.
		{"quiescent", `item("a") > 2`, nil, classQuiescent},
		{"quiescentAssign", `[x <- item("a")] x > 0`, nil, classQuiescent},
		{"quiescentFunc", `total() > 2`, nil, classQuiescent},
		// Conjunction with an event atom: provably false without the event.
		{"gated", `@ev and item("a") > 2`, nil, classGated},
		{"gatedNested", `(@ev or @ev2) and item("a") > 2`, nil, classGated},
		// not @ev is TRUE on event-free states — must not be gated.
		{"negatedEvent", `not @ev and item("a") > 2`, nil, classExact},
		// Disjunction can hold without the event.
		{"orEscape", `@ev or item("a") > 5`, nil, classExact},
		// Temporal operators need every woken state.
		{"temporal", `@ev since item("a") > 4`, nil, classExact},
		{"temporalPreviously", `previously item("a") > 3`, nil, classExact},
		// Time-dependent conditions can change without a commit.
		{"timeDep", `time() > 10 and item("a") > 0`, nil, classExact},
		// Unanalyzable footprint.
		{"opaque", `opaque() > 0`, nil, classExact},
		// Only Relevant scheduling is refined.
		{"eager", `item("a") > 2`, []RuleOption{WithScheduling(Eager)}, classExact},
		{"manual", `item("a") > 2`, []RuleOption{WithScheduling(Manual)}, classExact},
	}
	for _, tc := range cases {
		e := classEngine(t)
		r := addRule(t, e, tc.name, tc.cond, tc.opts...)
		if r.class != tc.want {
			t.Errorf("%s (%s): class = %d, want %d", tc.name, tc.cond, r.class, tc.want)
		}
	}
}

func TestClassifyConstraint(t *testing.T) {
	e := classEngine(t)
	if err := e.AddConstraint("c", `not (item("a") > 50)`); err != nil {
		t.Fatal(err)
	}
	if r := e.index["c"]; r.class != classExact {
		t.Fatalf("constraint classified %d, want classExact", r.class)
	}
}

func TestClassifyDisabledIndex(t *testing.T) {
	e := NewCoarseEngine(Config{Initial: map[string]value.Value{"a": value.NewInt(1)}})
	r := addRule(t, e, "r", `item("a") > 2`)
	if r.class != classExact {
		t.Fatalf("coarse engine classified %d, want classExact", r.class)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
