package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"ptlactive/internal/adb"
	"ptlactive/internal/agg"
	"ptlactive/internal/core"
	"ptlactive/internal/ee"
	"ptlactive/internal/event"
	"ptlactive/internal/history"
	"ptlactive/internal/ptl"
	"ptlactive/internal/query"
	"ptlactive/internal/value"
	"ptlactive/internal/vtime"
)

// rewritingRun runs the Section-6.1.1 rewritten running-sum rule inside an
// engine over n price commits and returns the elapsed time and number of
// external operations (the E3 kernel).
func rewritingRun(n int) (time.Duration, int) {
	eng := adb.NewEngine(adb.Config{
		Initial: map[string]value.Value{"px_IBM": value.NewFloat(100)},
	})
	err := agg.Rewrite(eng, "r",
		`sum(item("px_IBM"); time = 0; @update_stocks("IBM")) > 1000000`, nil)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(3))
	price := 100.0
	start := time.Now()
	for i := 0; i < n; i++ {
		price += (rng.Float64()*2 - 1) * 4
		if price < 1 {
			price = 1
		}
		err := eng.Exec(eng.Now()+2, map[string]value.Value{"px_IBM": value.NewFloat(price)},
			event.New("update_stocks", value.NewString("IBM")))
		if err != nil {
			panic(err)
		}
	}
	return time.Since(start), n
}

// ValidTimeRun replays a retroactive workload against tentative and
// definite monitors and reports firing counts and mean recognition delay
// (the E5 kernel).
type ValidTimeRun struct {
	TentativeFirings int
	DefiniteFirings  int
	TentativeDelay   float64 // mean (poll time - firing instant)
	DefiniteDelay    float64
	Steps            int
}

// RunValidTime executes the E5 kernel for a given maximum delay.
func RunValidTime(delta int64, txns int) ValidTimeRun {
	rng := rand.New(rand.NewSource(5))
	ops := Retro(rng, txns, delta, 0.2)
	base := history.EmptyDB().With("a", value.NewInt(0))
	store := vtime.NewStore(base, 0, delta)
	reg := query.NewRegistry()
	cond := mustFormula(`item("a") > 80`)
	tent, err := vtime.NewMonitor(store, reg, cond, vtime.Tentative)
	if err != nil {
		panic(err)
	}
	def, err := vtime.NewMonitor(store, reg, cond, vtime.Definite)
	if err != nil {
		panic(err)
	}
	var out ValidTimeRun
	var tDelaySum, dDelaySum int64
	apply := func(op RetroStream) {
		var err error
		switch op.Op {
		case "begin":
			err = store.Begin(op.Txn)
		case "post":
			err = store.Post(op.Txn, op.Item, op.V, op.Valid, op.At)
		case "commit":
			err = store.Commit(op.Txn, op.At)
		case "abort":
			err = store.Abort(op.Txn, op.At)
		}
		if err != nil {
			panic(err)
		}
	}
	for _, op := range ops {
		apply(op)
		tf, err := tent.Poll()
		if err != nil {
			panic(err)
		}
		df, err := def.Poll()
		if err != nil {
			panic(err)
		}
		for _, f := range tf {
			out.TentativeFirings++
			tDelaySum += store.Now() - f.Time
		}
		for _, f := range df {
			out.DefiniteFirings++
			dDelaySum += store.Now() - f.Time
		}
	}
	out.Steps = tent.EvalSteps() + def.EvalSteps()
	if out.TentativeFirings > 0 {
		out.TentativeDelay = float64(tDelaySum) / float64(out.TentativeFirings)
	}
	if out.DefiniteFirings > 0 {
		out.DefiniteDelay = float64(dDelaySum) / float64(out.DefiniteFirings)
	}
	return out
}

// E5ValidTime sweeps the maximum delay Delta and compares tentative vs
// definite firing counts and recognition delays.
func E5ValidTime(quick bool) Table {
	txns := 120
	if quick {
		txns = 40
	}
	t := Table{
		ID:     "E5",
		Title:  "valid time: tentative vs definite triggers under maximum delay Delta",
		Header: []string{"Delta", "tentative firings", "mean delay", "definite firings", "mean delay"},
		Notes: "definite triggers recognize the same instants no earlier than Delta after they " +
			"become definite, so their mean recognition delay exceeds Delta while the tentative " +
			"monitor's stays near zero. Shape per Section 9.2 (definite firing is inherently delayed).",
	}
	for _, delta := range []int64{0, 5, 10, 25, 50} {
		r := RunValidTime(delta, txns)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(delta),
			fmt.Sprint(r.TentativeFirings), fmt.Sprintf("%.1f", r.TentativeDelay),
			fmt.Sprint(r.DefiniteFirings), fmt.Sprintf("%.1f", r.DefiniteDelay),
		})
	}
	return t
}

// OnlineOfflineRun counts schedules where online and offline satisfaction
// diverge, in the valid-time view and on the collapsed history (the E6
// kernel).
func OnlineOfflineRun(schedules int, seed int64) (validDiverge, collapsedDiverge int) {
	reg := query.NewRegistry()
	// The ordering constraint of the paper's example: if u2 was ever set,
	// u1 was set at the same or an earlier instant.
	c := mustFormula(`not previously (item("u2") = 1 and not previously item("u1") = 1)`)
	for i := 0; i < schedules; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		s := randomOrderingStore(rng)
		on, err := vtime.OnlineSatisfied(s, reg, c)
		if err != nil {
			panic(err)
		}
		off, err := vtime.OfflineSatisfied(s, reg, c)
		if err != nil {
			panic(err)
		}
		if on != off {
			validDiverge++
		}
		cs := s.CollapsedStore()
		on2, err := vtime.OnlineSatisfied(cs, reg, c)
		if err != nil {
			panic(err)
		}
		off2, err := vtime.OfflineSatisfied(cs, reg, c)
		if err != nil {
			panic(err)
		}
		if on2 != off2 {
			collapsedDiverge++
		}
	}
	return
}

// randomOrderingStore builds a two-transaction schedule in the u1/u2 shape
// with randomized valid times and commit order.
func randomOrderingStore(rng *rand.Rand) *vtime.Store {
	base := history.EmptyDB().
		With("u1", value.NewInt(0)).
		With("u2", value.NewInt(0))
	s := vtime.NewStore(base, 0, vtime.Unlimited)
	_ = s.Begin(1)
	_ = s.Begin(2)
	v1 := int64(1 + rng.Intn(4))
	v2 := int64(1 + rng.Intn(4))
	if v1 == v2 {
		v2++
	}
	post := v1
	if v2 > post {
		post = v2
	}
	_ = s.Post(1, "u1", value.NewInt(1), v1, post)
	_ = s.Post(2, "u2", value.NewInt(1), v2, post)
	c1 := post + 1 + int64(rng.Intn(3))
	c2 := post + 1 + int64(rng.Intn(3))
	for c2 == c1 {
		c2++
	}
	if c1 < c2 {
		_ = s.Commit(1, c1)
		_ = s.Commit(2, c2)
	} else {
		_ = s.Commit(2, c2)
		_ = s.Commit(1, c1)
	}
	return s
}

// E6OnlineOffline measures how often the two satisfaction notions diverge
// on random schedules, and that they never diverge on collapsed histories
// (Theorem 2).
func E6OnlineOffline(quick bool) Table {
	n := 400
	if quick {
		n = 100
	}
	vd, cd := OnlineOfflineRun(n, 11)
	t := Table{
		ID:     "E6",
		Title:  "online vs offline constraint satisfaction (ordering constraint, random schedules)",
		Header: []string{"schedules", "diverging (valid time)", "diverging (collapsed)", "Theorem 2 holds"},
		Notes: "valid-time histories routinely distinguish the two notions (the u1/u2 effect); " +
			"collapsed (transaction-time) histories never do — Theorem 2.",
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprint(n),
		fmt.Sprintf("%d (%.0f%%)", vd, 100*float64(vd)/float64(n)),
		fmt.Sprint(cd),
		fmt.Sprint(cd == 0),
	})
	return t
}

// E7StateBlowup compares the event-expression automaton size against the
// PTL evaluator's retained state on the "k-th event from the end is a"
// family, where the DFA provably needs 2^k states while PTL needs a
// lasttime chain of length k.
func E7StateBlowup(quick bool) Table {
	maxK := 10
	if quick {
		maxK = 7
	}
	t := Table{
		ID:     "E7",
		Title:  "state blowup: event-expression DFA vs PTL evaluator ('a occurred k events ago')",
		Header: []string{"k", "EE NFA states", "EE DFA states", "EE min-DFA states", "PTL registers", "PTL peak nodes", "PTL us/event", "EE us/event"},
		Notes: "the determinization the event-expression formalism needs (negation, Section 10 / " +
			"[Stockmeyer 74]) costs 2^k automaton states; the PTL evaluator's incremental state " +
			"grows linearly in k. Per-event cost stays flat for both once compiled.",
	}
	alpha := ee.NewAlphabet("a", "b")
	n := 20000
	if quick {
		n = 4000
	}
	rng := rand.New(rand.NewSource(6))
	trace := make([]string, n)
	for i := range trace {
		trace[i] = []string{"a", "b"}[rng.Intn(2)]
	}
	for k := 2; k <= maxK; k++ {
		// EE: .* ; a ; .^(k-1)
		parts := []ee.Expr{&ee.Star{X: &ee.Any{}}, &ee.Sym{Name: "a"}}
		for i := 0; i < k-1; i++ {
			parts = append(parts, &ee.Any{})
		}
		expr := ee.Seq(parts...)
		nfa, err := ee.CompileNFA(expr, alpha)
		if err != nil {
			panic(err)
		}
		dfa := nfa.Determinize()
		min := dfa.Minimize()

		// PTL: lasttime^(k-1) @a — the k-th event from the end (the
		// current event is the 1st).
		var f ptl.Formula = ptl.Ev("a")
		for i := 0; i < k-1; i++ {
			f = &ptl.Lasttime{F: f}
		}
		reg := query.NewRegistry()
		ev, err := core.Compile(f, reg, nil)
		if err != nil {
			panic(err)
		}
		peak := 0
		b := history.NewBuilder(history.EmptyDB(), 0)
		start := time.Now()
		for i, sym := range trace {
			_ = b.Event(int64(i+1), event.New(sym))
			res, err := ev.Step(b.History().At(b.History().Len() - 1))
			if err != nil {
				panic(err)
			}
			_ = res
			if s := ev.StateSize(); s > peak {
				peak = s
			}
		}
		ptlDur := time.Since(start)

		m := ee.NewMatcher(dfa)
		start = time.Now()
		for _, sym := range trace {
			m.Step(sym)
			_ = m.Accepting()
		}
		eeDur := time.Since(start)

		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), fmt.Sprint(nfa.States()), fmt.Sprint(dfa.States()),
			fmt.Sprint(min.States()), fmt.Sprint(ev.Registers()), fmt.Sprint(peak),
			fmtDur(ptlDur, n), fmtDur(eeDur, n),
		})
	}
	return t
}

// RelevanceRun drives R event-gated rules over an event mix and returns
// evaluator steps plus wall time (the E8 kernel). The rules have no action;
// RelevanceRunActions adds the action and governance axes.
func RelevanceRun(rules, states int, sched adb.Scheduling) (steps int64, dur time.Duration) {
	return RelevanceRunActions(rules, states, sched, nil, false)
}

// RelevanceRunActions is RelevanceRun with act as every rule's action (nil
// for none). A non-nil act sends every firing through the action sandbox;
// governed additionally sets a circuit-breaker threshold, so the delta
// over a plain run is the overhead of the recover wrapper and the
// breaker's bookkeeping, not of any fault occurring.
func RelevanceRunActions(rules, states int, sched adb.Scheduling, act adb.Action, governed bool) (steps int64, dur time.Duration) {
	cfg := adb.Config{Initial: map[string]value.Value{"a": value.NewInt(1)}}
	if governed {
		cfg.MaxRuleFailures = 3
	}
	eng := adb.NewEngine(cfg)
	for i := 0; i < rules; i++ {
		cond := fmt.Sprintf(`@ev%d and item("a") > 0`, i)
		if err := eng.AddTrigger(fmt.Sprintf("r%d", i), cond, act, adb.WithScheduling(sched)); err != nil {
			panic(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	start := time.Now()
	for s := 0; s < states; s++ {
		// One of the gated events fires occasionally; most states are noise.
		var ev event.Event
		if rng.Intn(10) == 0 {
			ev = event.New(fmt.Sprintf("ev%d", rng.Intn(rules)))
		} else {
			ev = event.New("noise")
		}
		if err := eng.Emit(eng.Now()+1, ev); err != nil {
			panic(err)
		}
	}
	if sched == adb.Manual {
		if err := eng.Flush(); err != nil {
			panic(err)
		}
	}
	return eng.EvalSteps(), time.Since(start)
}

// E8RelevanceFiltering compares eager, relevance-filtered and batched
// (manual flush) trigger scheduling.
func E8RelevanceFiltering(quick bool) Table {
	states := 2000
	if quick {
		states = 500
	}
	t := Table{
		ID:     "E8",
		Title:  "execution model: relevance filtering and batching over event-gated rules",
		Header: []string{"rules", "eager steps", "eager ms", "relevant steps", "relevant ms", "batched steps"},
		Notes: "with relevance filtering, evaluator invocations scale with matching events " +
			"rather than rules x states; batching defers the same work to one flush. " +
			"Shape per Section 8.",
	}
	for _, rules := range []int{10, 50, 200} {
		es, ed := RelevanceRun(rules, states, adb.Eager)
		rs, rd := RelevanceRun(rules, states, adb.Relevant)
		bs, _ := RelevanceRun(rules, states, adb.Manual)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(rules),
			fmt.Sprint(es), fmtMs(ed),
			fmt.Sprint(rs), fmtMs(rd),
			fmt.Sprint(bs),
		})
	}
	return t
}

// TemporalActionRun executes the Section-7 BUY-STOCK temporal action and
// returns the number of buys plus wall time (the E9 kernel).
func TemporalActionRun(states int) (buys int64, dur time.Duration) {
	eng := adb.NewEngine(adb.Config{
		Initial: map[string]value.Value{
			"price":  value.NewFloat(100),
			"bought": value.NewInt(0),
		},
	})
	buy := func(ctx *adb.ActionContext) error {
		v, _ := ctx.DB().Get("bought")
		return ctx.Exec(map[string]value.Value{"bought": value.NewInt(v.AsInt() + 50)})
	}
	if err := eng.AddTrigger("buy_start",
		`item("price") < 60 and lasttime (item("price") >= 60)`, buy); err != nil {
		panic(err)
	}
	if err := eng.AddTrigger("buy_repeat",
		`executed(buy_start, T) and time - T <= 60 and (time - T) mod 10 = 0 and item("price") < 60`, buy); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(8))
	price := 100.0
	start := time.Now()
	for s := 0; s < states; s++ {
		price += (rng.Float64()*2 - 1) * 5
		if price < 1 {
			price = 1
		}
		if err := eng.Exec(eng.Now()+2, map[string]value.Value{"price": value.NewFloat(price)}); err != nil {
			panic(err)
		}
	}
	dur = time.Since(start)
	v, _ := eng.DB().Get("bought")
	return v.AsInt() / 50, dur
}

// E9TemporalActions measures the overhead of driving temporal actions
// through the executed predicate, against the same feed with plain rules
// only.
func E9TemporalActions(quick bool) Table {
	states := 3000
	if quick {
		states = 600
	}
	t := Table{
		ID:     "E9",
		Title:  "temporal actions via the executed predicate (BUY-STOCK every 10 units for an hour)",
		Header: []string{"states", "buys", "us/state (with temporal action)", "us/state (plain rule only)"},
		Notes: "the executed-predicate mechanism implements the Section-7 extended-transaction " +
			"pattern inside the rule system at a modest constant per-state overhead — no separate " +
			"extended-transaction manager.",
	}
	buys, dur := TemporalActionRun(states)

	// Baseline: the same feed with only the plain edge rule.
	eng := adb.NewEngine(adb.Config{
		Initial: map[string]value.Value{"price": value.NewFloat(100)},
	})
	if err := eng.AddTrigger("edge",
		`item("price") < 60 and lasttime (item("price") >= 60)`, nil); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(8))
	price := 100.0
	startT := time.Now()
	for s := 0; s < states; s++ {
		price += (rng.Float64()*2 - 1) * 5
		if price < 1 {
			price = 1
		}
		if err := eng.Exec(eng.Now()+2, map[string]value.Value{"price": value.NewFloat(price)}); err != nil {
			panic(err)
		}
	}
	base := time.Since(startT)
	t.Rows = append(t.Rows, []string{
		fmt.Sprint(states), fmt.Sprint(buys), fmtDur(dur, states), fmtDur(base, states),
	})
	return t
}

// orderedWithinExpr builds the event-expression encoding of the paper's
// Section-10 example — "three events a, b, c occur in that order within a
// span of k clock ticks". Event expressions have no relative-time
// operator; per the paper's suggestion the encoding counts a special
// clock-tick symbol: the window between a and c may contain at most k-1
// further symbols. The union over the possible split points makes the
// expression itself Theta(k^2) large — the conciseness gap the paper
// calls out ("certain types of relative time conditions cannot be
// expressed concisely").
func orderedWithinExpr(k int) ee.Expr {
	// .* ; a ; ( .^i ; b ; .^j ; c  for i+j <= k-2 ) ; .*
	var alts []ee.Expr
	for i := 0; i+2 <= k; i++ {
		for j := 0; i+j+2 <= k; j++ {
			parts := []ee.Expr{}
			for n := 0; n < i; n++ {
				parts = append(parts, &ee.Any{})
			}
			parts = append(parts, &ee.Sym{Name: "b"})
			for n := 0; n < j; n++ {
				parts = append(parts, &ee.Any{})
			}
			parts = append(parts, &ee.Sym{Name: "c"})
			alts = append(alts, ee.Seq(parts...))
		}
	}
	mid := alts[0]
	for _, a := range alts[1:] {
		mid = &ee.Alt{L: mid, R: a}
	}
	return ee.Seq(&ee.Star{X: &ee.Any{}}, &ee.Sym{Name: "a"}, mid, &ee.Star{X: &ee.Any{}})
}

// exprSize counts AST nodes of an event expression.
func exprSize(e ee.Expr) int {
	switch x := e.(type) {
	case *ee.Concat:
		return 1 + exprSize(x.L) + exprSize(x.R)
	case *ee.Alt:
		return 1 + exprSize(x.L) + exprSize(x.R)
	case *ee.Star:
		return 1 + exprSize(x.X)
	case *ee.Not:
		return 1 + exprSize(x.X)
	default:
		return 1
	}
}

// E7bRelativeTiming compares the encodings of "a, b, c in that order
// within k time units": the event-expression clock-tick counting vs the
// PTL bounded-operator formula.
func E7bRelativeTiming(quick bool) Table {
	// k = 12 is already near the determinization's practical limit (the
	// raw subset DFA grows ~70x per +4 on this family) — which is the
	// point.
	ks := []int{4, 6, 8, 10, 12}
	if quick {
		ks = []int{4, 6, 8}
	}
	t := Table{
		ID:     "E7b",
		Title:  "relative timing: 'a, b, c in order within k units' — EE clock-tick encoding vs PTL bounds",
		Header: []string{"k", "EE expr nodes", "EE DFA states", "EE min-DFA states", "PTL formula nodes", "PTL registers"},
		Notes: "the event-expression encoding must count clock ticks, so the expression is " +
			"Theta(k^2) and its automaton grows with k; the PTL formula states the same condition " +
			"in a fixed number of nodes — bounds are data, not structure. Shape per Section 10 " +
			"('certain types of relative time conditions cannot be expressed concisely').",
	}
	alpha := ee.NewAlphabet("a", "b", "c")
	for _, k := range ks {
		expr := orderedWithinExpr(k)
		nfa, err := ee.CompileNFA(expr, alpha)
		if err != nil {
			panic(err)
		}
		dfa := nfa.Determinize()
		min := dfa.Minimize()

		// PTL: within k of the a-occurrence, b then c follow in order.
		src := fmt.Sprintf(
			`previously <= %d (@c and previously <= %d (@b and previously <= %d @a))`, k, k, k)
		f := mustFormula(src)
		info, err := ptl.Check(f, query.NewRegistry())
		if err != nil {
			panic(err)
		}
		nodes := 0
		ptl.Walk(info.Normalized, func(ptl.Formula) { nodes++ })
		ev, err := core.New(info, query.NewRegistry(), nil)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), fmt.Sprint(exprSize(expr)), fmt.Sprint(dfa.States()),
			fmt.Sprint(min.States()), fmt.Sprint(nodes), fmt.Sprint(ev.Registers()),
		})
	}
	return t
}
