package agg

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ptlactive/internal/adb"
	"ptlactive/internal/event"
	"ptlactive/internal/history"
	"ptlactive/internal/ptl"
	"ptlactive/internal/ptlgen"
	"ptlactive/internal/query"
	"ptlactive/internal/value"
)

// priceEngine builds an engine with a price item and a price(name) query
// (single-stock for simplicity).
func priceEngine(t *testing.T, initial float64) *adb.Engine {
	t.Helper()
	reg := query.NewRegistry()
	err := reg.Register("price", 1, func(st history.SystemState, args []value.Value) (value.Value, error) {
		v, ok := st.GetItem("price")
		if !ok {
			return value.Value{}, nil
		}
		return v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return adb.NewEngine(adb.Config{
		Registry: reg,
		Initial:  map[string]value.Value{"price": value.NewFloat(initial)},
		Start:    540, // 9AM in minutes, the paper's running example
	})
}

// TestPaperAvgRewrite reproduces the Section-6.1.1 worked example: the
// rule Avg(price(IBM); time = 9AM; update_stocks) > 70 -> A becomes three
// rules over CUM_PRICE and TOTAL_UPDATES items.
func TestPaperAvgRewrite(t *testing.T) {
	e := priceEngine(t, 60)
	var fired []int64
	err := Rewrite(e, "watch",
		`avg(price("IBM"); time = 540; @update_stocks) > 70`,
		func(ctx *adb.ActionContext) error {
			fired = append(fired, ctx.FiredAt)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// The reset rule fires at the entry state (time = 540); its action
	// commits at 541 initializing the items.
	tick := func(ts int64, price float64) {
		t.Helper()
		err := e.Exec(ts, map[string]value.Value{"price": value.NewFloat(price)},
			event.New("update_stocks"))
		if err != nil {
			t.Fatal(err)
		}
	}
	tick(600, 80) // avg {80} = 80 > 70
	if len(fired) == 0 {
		t.Fatalf("rewritten rule did not fire; firings: %v", e.Firings())
	}
	tick(660, 50) // avg {80, 50} = 65
	// The paper's construction reads the items as maintained so far: at
	// the 660 update the items still reflect avg {80}, so a firing AT the
	// update state is the construction's inherent one-commit lag. Once the
	// maintenance rules commit (<= now), further states must not fire.
	if err := e.Emit(e.Now()+1, event.New("tick")); err != nil {
		t.Fatal(err)
	}
	n := len(fired)
	if err := e.Emit(e.Now()+1, event.New("tick")); err != nil {
		t.Fatal(err)
	}
	if len(fired) != n {
		t.Fatalf("rule fired after maintenance showed avg 65: %v", fired)
	}
	tick(700, 100) // avg {80, 50, 100} = 76.67 > 70
	if err := e.Emit(e.Now()+1, event.New("tick")); err != nil {
		t.Fatal(err)
	}
	if len(fired) <= n {
		t.Fatal("rule should fire again at avg 76.67")
	}
}

// TestRewriteMatchesDirectEvaluation compares the rewritten rule against a
// second engine evaluating the aggregate directly: the rewriting may
// recognize a satisfaction one maintenance commit later, but the sets of
// price updates that satisfy the condition must agree. A price that is not
// a number is no sample under either.
func TestRewriteMatchesDirectEvaluation(t *testing.T) {
	mk := func(rewrite bool) (fires map[int64]bool, e *adb.Engine) {
		e = priceEngine(t, 60)
		fires = map[int64]bool{}
		action := func(ctx *adb.ActionContext) error { return nil }
		cond := `sum(price("IBM"); time = 540; @update_stocks) > 200`
		var err error
		if rewrite {
			err = Rewrite(e, "r", cond, action)
		} else {
			err = e.AddTrigger("r", cond, action)
		}
		if err != nil {
			t.Fatal(err)
		}
		prices := []value.Value{value.NewFloat(80), value.NewFloat(90), value.NewString("halted"), value.NewFloat(50), value.NewFloat(70)}
		ts := int64(600)
		for _, p := range prices {
			if err := e.Exec(ts, map[string]value.Value{"price": p}, event.New("update_stocks")); err != nil {
				t.Fatal(err)
			}
			// Neutral state so delayed maintenance is observable.
			if err := e.Emit(ts+5, event.New("tick")); err != nil {
				t.Fatal(err)
			}
			ts += 60
		}
		for _, f := range e.Firings() {
			if f.Rule == "r" {
				fires[f.Time] = true
			}
		}
		return fires, e
	}
	direct, _ := mk(false)
	rewritten, e := mk(true)
	for _, name := range e.RuleNames() {
		if h, _ := e.RuleHealth(name); h.TotalFailures > 0 {
			t.Errorf("rewritten rule %s failed: %v", name, h.LastError)
		}
	}
	// Direct fires from the update making the sum exceed 200 (80+90+50 =
	// 220 at the fourth update). The rewritten engine observes it at the
	// maintenance commit or the neutral state right after — within 6 time
	// units.
	if len(direct) == 0 || len(rewritten) == 0 {
		t.Fatalf("direct fired at %v, rewritten at %v", direct, rewritten)
	}
	var dmin, rmin int64 = 1 << 62, 1 << 62
	for ts := range direct {
		if ts < dmin {
			dmin = ts
		}
	}
	for ts := range rewritten {
		if ts < rmin {
			rmin = ts
		}
	}
	if rmin < dmin || rmin > dmin+6 {
		t.Errorf("first firing: direct %d, rewritten %d (want within (d, d+6])", dmin, rmin)
	}
}

func TestRewriteCount(t *testing.T) {
	e := priceEngine(t, 60)
	err := Rewrite(e, "r", `count(1; time = 540; @update_stocks) >= 3`, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		ts := int64(600 + i*10)
		if err := e.Exec(ts, nil, event.New("update_stocks")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Emit(e.Now()+1, event.New("tick")); err != nil {
		t.Fatal(err)
	}
	var fired bool
	for _, f := range e.Firings() {
		if f.Rule == "r" {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("count rule never fired; firings %v", e.Firings())
	}
}

func TestRewriteRejections(t *testing.T) {
	e := priceEngine(t, 60)
	if err := Rewrite(e, "w", `avg(price("IBM"); window 60; @u) > 1`, nil); err == nil ||
		!strings.Contains(err.Error(), "windowed") {
		t.Errorf("windowed rewrite should be rejected, got %v", err)
	}
	if err := Rewrite(e, "m", `min(price("IBM"); time = 540; @u) > 1`, nil); err == nil ||
		!strings.Contains(err.Error(), "no rule rewriting") {
		t.Errorf("min rewrite should be rejected, got %v", err)
	}
	if err := Rewrite(e, "fv", `sum(price("IBM"); @start(X); @u) > 1`, nil); err == nil ||
		!strings.Contains(err.Error(), "InstallIndexed") {
		t.Errorf("free-variable rewrite should point to InstallIndexed, got %v", err)
	}
	if err := Rewrite(e, "syn", `and and`, nil); err == nil {
		t.Error("syntax error should propagate")
	}
}

// TestInstallIndexed exercises the free-variable construction: the average
// price per stock X, consumed through a membership condition that binds X.
func TestInstallIndexed(t *testing.T) {
	reg := query.NewRegistry()
	prices := map[string]float64{}
	err := reg.Register("curprice", 1, func(st history.SystemState, args []value.Value) (value.Value, error) {
		v, ok := st.GetItem("px_" + args[0].AsString())
		if !ok {
			return value.Value{}, nil
		}
		return v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	e := adb.NewEngine(adb.Config{Registry: reg, Start: 0,
		Initial: map[string]value.Value{"avg_family": value.NewRelation(nil)}})
	err = InstallIndexed(e, IndexedSpec{
		Item:        "avg_family",
		Fn:          ptl.AggAvg,
		SampleEvent: "update_stock",
		Value: func(eng *adb.Engine, key value.Value) (value.Value, error) {
			v, ok := eng.DB().Get("px_" + key.AsString())
			if !ok {
				return value.Value{}, nil
			}
			return v, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var fired []string
	err = e.AddTrigger("overavg", `(X, A) in item("avg_family") and A > 70`,
		func(ctx *adb.ActionContext) error {
			x, _ := ctx.Param("X")
			fired = append(fired, x.AsString())
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	update := func(name string, px float64) {
		t.Helper()
		prices[name] = px
		err := e.Exec(e.Now()+1, map[string]value.Value{"px_" + name: value.NewFloat(px)},
			event.New("update_stock", value.NewString(name)))
		if err != nil {
			t.Fatal(err)
		}
	}
	update("IBM", 80) // avg IBM = 80 -> fires for IBM
	update("XYZ", 50) // avg XYZ = 50 -> no
	update("IBM", 40) // avg IBM = 60 -> no new firing for IBM
	got := map[string]int{}
	for _, x := range fired {
		got[x]++
	}
	if got["IBM"] == 0 {
		t.Fatalf("IBM should have fired: %v (firings %v)", fired, e.Firings())
	}
	if got["XYZ"] != 0 {
		t.Fatalf("XYZ must not fire: %v", fired)
	}
}

// TestInstallIndexedSkipsNonNumeric: a sampled value that is not a number
// is no sample, as for core's aggregate machine: the avg's sum and count
// stay, a key first sampled so gets no row, and the action raises no fault.
func TestInstallIndexedSkipsNonNumeric(t *testing.T) {
	e := adb.NewEngine(adb.Config{Start: 0,
		Initial: map[string]value.Value{"fam": value.NewRelation(nil)}})
	err := InstallIndexed(e, IndexedSpec{
		Item:        "fam",
		Fn:          ptl.AggAvg,
		SampleEvent: "tick",
		Value: func(eng *adb.Engine, key value.Value) (value.Value, error) {
			v, _ := eng.DB().Get("px_" + key.AsString())
			return v, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	update := func(name string, px value.Value) {
		t.Helper()
		if err := e.Exec(e.Now()+1, map[string]value.Value{"px_" + name: px}, event.New("tick", value.NewString(name))); err != nil {
			t.Fatal(err)
		}
	}
	update("IBM", value.NewInt(80))
	update("IBM", value.NewString("halted"))
	update("XYZ", value.Value{})
	update("IBM", value.NewInt(40))
	if h, _ := e.RuleHealth("fam$sample"); h.TotalFailures != 0 {
		t.Fatalf("sample action failed %d times: %v", h.TotalFailures, h.LastError)
	}
	fam, _ := e.DB().Get("fam")
	if fam.NumRows() != 1 || fam.Rows()[0][0].AsString() != "IBM" || fam.Rows()[0][1].AsFloat() != 60 {
		t.Fatalf("family = %v, want IBM's avg of 80 and 40 alone", fam)
	}
}

func TestInstallIndexedValidation(t *testing.T) {
	e := adb.NewEngine(adb.Config{Start: 0})
	if err := InstallIndexed(e, IndexedSpec{}); err == nil {
		t.Error("empty spec should fail")
	}
	if err := InstallIndexed(e, IndexedSpec{Item: "x", SampleEvent: "e", Fn: "median"}); err == nil {
		t.Error("unknown fn should fail")
	}
	if err := InstallIndexed(e, IndexedSpec{Item: "x", SampleEvent: "e", Fn: ptl.AggSum}); err == nil {
		t.Error("sum without Value should fail")
	}
}

// TestInstallIndexedReset: the family's reset condition clears every key.
func TestInstallIndexedReset(t *testing.T) {
	e := adb.NewEngine(adb.Config{Start: 0,
		Initial: map[string]value.Value{"fam": value.NewRelation(nil)}})
	err := InstallIndexed(e, IndexedSpec{
		Item:        "fam",
		Fn:          ptl.AggCount,
		SampleEvent: "hit",
		Start:       `@reset`,
	})
	if err != nil {
		t.Fatal(err)
	}
	hit := func(k string) {
		t.Helper()
		if err := e.Emit(e.Now()+1, event.New("hit", value.NewString(k))); err != nil {
			t.Fatal(err)
		}
	}
	hit("a")
	hit("a")
	hit("b")
	v, _ := e.DB().Get("fam")
	if v.NumRows() != 2 {
		t.Fatalf("family = %v", v)
	}
	var aCount int64
	for _, row := range v.Rows() {
		if row[0].AsString() == "a" {
			aCount = row[1].AsInt()
		}
	}
	if aCount != 2 {
		t.Fatalf("count(a) = %d", aCount)
	}
	if err := e.Emit(e.Now()+1, event.New("reset")); err != nil {
		t.Fatal(err)
	}
	v, _ = e.DB().Get("fam")
	if v.NumRows() != 0 {
		t.Fatalf("family after reset = %v", v)
	}
	// Counting resumes from zero.
	hit("a")
	v, _ = e.DB().Get("fam")
	if v.NumRows() != 1 || v.Rows()[0][1].AsInt() != 1 {
		t.Fatalf("family after resume = %v", v)
	}
}

// TestRewriteNestedStructure drives the rewriter through every formula and
// term shape: aggregates under temporal operators, inside arithmetic, the
// paper's avg-as-sum/sum division, membership and assignments.
func TestRewriteNestedStructure(t *testing.T) {
	e := priceEngine(t, 60)
	// sum/count division (the paper's expanded average), nested under
	// temporal and boolean structure, with an assignment and negation.
	cond := `[p <- price("IBM")]
	    (((sum(price("IBM"); time = 540; @update_stocks)
	        / count(1; time = 540; @update_stocks) > 70)
	     since (not (0 - sum(price("IBM"); time = 540; @update_stocks) >= 0)))
	    or lasttime previously throughout <= 9 (p > 0 and true))`
	if err := Rewrite(e, "nested", cond, nil); err != nil {
		t.Fatalf("nested rewrite failed: %v", err)
	}
	// Three aggregates -> six maintenance rules + the rewritten rule.
	if got := len(e.RuleNames()); got != 7 {
		t.Fatalf("rules = %v", e.RuleNames())
	}
	for i := 0; i < 4; i++ {
		ts := e.Now() + 10
		err := e.Exec(ts, map[string]value.Value{"price": value.NewFloat(80)}, event.New("update_stocks"))
		if err != nil {
			t.Fatal(err)
		}
	}
	var fired bool
	for _, f := range e.Firings() {
		if f.Rule == "nested" {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("nested rule never fired; firings: %v", e.Firings())
	}
	// Membership and executed survive the walk untouched.
	e2 := adb.NewEngine(adb.Config{Start: 0,
		Initial: map[string]value.Value{"r": value.NewRelation(nil)}})
	if err := Rewrite(e2, "m", `X in item("r") or (executed(m, T) and time = T + 1)`, nil); err != nil {
		t.Fatalf("membership/executed rewrite: %v", err)
	}
}

// TestRewrittenRulesRecover: every rule the rewriting registers goes
// through AddTriggerFormula — the rewritten condition reading
// aggval("$agg_…"), the reset and accumulate rules over the start and
// sampling formulas, an indexed family's @sample(K$) — and the WAL stores
// each as its printed text. A restored engine parses them all back to the
// same rules.
func TestRewrittenRulesRecover(t *testing.T) {
	reg := query.NewRegistry()
	cfg := adb.Config{Registry: reg, NoFsync: true, Initial: map[string]value.Value{
		"a": value.NewInt(0), "b": value.NewInt(0), "c": value.NewInt(0), "fam": value.NewRelation(nil),
	}}
	dir := t.TempDir()
	e, err := adb.Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := EnsureAggVal(e); err != nil {
		t.Fatal(err)
	}
	// ptlgen draws an aggregate now and then, and only a starting-formula
	// sum, count or avg has a rewriting: keep drawing until 25 conditions
	// had one rewritten.
	rewritten := 0
	for seed := 0; rewritten < 25; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		name := fmt.Sprintf("r%d", seed)
		rw, err := RewriteCondition(e, name, ptlgen.FormulaWithAggregates(rng, 1+rng.Intn(4)))
		if err != nil || !strings.Contains(rw.String(), "aggval") {
			continue
		}
		if err := e.AddTriggerFormula(name, rw, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rewritten++
	}
	if err := InstallIndexed(e, IndexedSpec{Item: "fam", Fn: ptl.AggCount, SampleEvent: "hit", Start: "@reset"}); err != nil {
		t.Fatal(err)
	}
	conditions := func(e *adb.Engine) map[string]string {
		out := map[string]string{}
		for _, name := range e.RuleNames() {
			r, _ := e.Rule(name)
			out[name] = r.Condition
		}
		return out
	}
	want := conditions(e)
	if want["fam$sample"] != "@hit(K$)" {
		t.Fatalf("indexed sample rule = %q", want["fam$sample"])
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := adb.Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := conditions(e2); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored %d rules, registered %d, or their conditions differ", len(got), len(want))
	}
}
