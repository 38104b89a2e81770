// Package ptlgen generates random PTL formulas and random system
// histories. The property tests across the repository use it to validate
// Theorem 1 (incremental == direct semantics), the desugaring rewrites and
// the simplifier; benchmarks use it for synthetic rule sets.
package ptlgen

import (
	"fmt"
	"math"
	"math/rand"

	"ptlactive/internal/event"
	"ptlactive/internal/history"
	"ptlactive/internal/ptl"
	"ptlactive/internal/query"
	"ptlactive/internal/value"
)

// Items are the integer database items the generated histories update and
// the generated formulas query via item("...").
var Items = []string{"a", "b", "c"}

// EventNames are the event symbols the generated histories emit: e0 takes
// no parameters, e1 takes one small integer, e2 takes two.
var EventNames = []string{"e0", "e1", "e2"}

// Registry returns a query registry suitable for generated formulas: just
// the built-ins (item, time).
func Registry() *query.Registry { return query.NewRegistry() }

// History generates a random valid transaction-time history with n states
// beyond the initial one. Timestamps advance by 1..3; roughly half the
// states are commits updating 1..2 items, the rest are event-only states;
// every state may carry random events.
func History(rng *rand.Rand, n int) *history.History { return build(rng, n, false) }

// MetricHistory is History for MetricFormula: an item update is a Float
// one time in four, Null one time in twelve, and one time in sixty each a
// string, a boolean, a relation, NaN, +Inf and -Inf, so values of mixed
// kinds and non-finite floats meet in comparisons and sums now and then.
// A third of the states are event-only, so they also follow a NaN.
func MetricHistory(rng *rand.Rand, n int) *history.History {
	b := history.NewBuilder(history.EmptyDB().With("a", value.NewInt(5)).With("b", value.NewInt(5)).With("c", value.NewInt(5)), 0)
	for i := 0; i < n; i++ {
		ts := b.Now() + int64(1+rng.Intn(3))
		events := randomEvents(rng, false)
		if rng.Intn(3) == 0 {
			if len(events) == 0 {
				events = append(events, event.New("tick"))
			}
			if err := b.Event(ts, events...); err != nil {
				panic(fmt.Sprintf("ptlgen: event: %v", err))
			}
			continue
		}
		updates := map[string]value.Value{}
		for k := 0; k < 1+rng.Intn(2); k++ {
			v := value.NewInt(int64(rng.Intn(10)))
			switch r := rng.Intn(60); {
			case r == 0:
				v = value.NewString("s")
			case r == 1:
				v = value.NewBool(rng.Intn(2) == 0)
			case r == 2:
				v = relation(rng)
			case r < 10:
				v = value.Value{}
			case r < 21:
				v = value.NewFloat(float64(rng.Intn(20)) / 2)
			case r == 21:
				v = value.NewFloat(math.NaN())
			case r == 22:
				v = value.NewFloat(math.Inf(1))
			case r == 23:
				v = value.NewFloat(math.Inf(-1))
			}
			updates[Items[rng.Intn(len(Items))]] = v
		}
		if err := b.Commit(ts, int64(i+1), updates, events...); err != nil {
			panic(fmt.Sprintf("ptlgen: commit: %v", err))
		}
	}
	return b.History()
}

// MetricFormula generates a closed formula of the shapes the fast path
// holds on metric registers, beside a few it does not: one to three of
// bounded since, previously (sometimes or'ed with a read of a value
// captured outside it) and throughout over closed bodies; the
// paper's doubled-within-d shape with a random item (or product of two),
// bound, coefficient, comparison, orientation and left side, sometimes
// without the bound, with a second conjunct or beside an atom inside the
// assignments; and windowed (sometimes started) sums, counts, minima and
// maxima over closed sampling formulas — joined by and, or and
// not, and one time in five conjoined to @e1(U), which gives the formula a
// parameter that crosses no temporal operator.
func MetricFormula(rng *rand.Rand) ptl.Formula {
	g := &gen{rng: rng}
	f := g.metric()
	for k := rng.Intn(3); k > 0; k-- {
		if rng.Intn(2) == 0 {
			f = &ptl.And{L: f, R: g.metric()}
		} else {
			f = &ptl.Or{L: &ptl.Not{F: f}, R: g.metric()}
		}
	}
	if rng.Intn(5) == 0 {
		f = &ptl.And{L: ptl.Ev("e1", ptl.V("U")), R: f}
	}
	return f
}

func (g *gen) metric() ptl.Formula {
	bound := int64(1 + g.rng.Intn(8))
	switch g.rng.Intn(8) {
	case 0:
		return &ptl.Since{L: g.formula(1, nil), R: g.formula(1, nil), Bound: bound}
	case 1:
		var f ptl.Formula = &ptl.Previously{F: g.formula(1+g.rng.Intn(2), nil), Bound: bound}
		if g.rng.Intn(4) == 0 { // beside a read of a value captured outside it
			f = ptl.Let("y", g.item(), &ptl.Or{L: f, R: ptl.Compare(value.GT, g.item(), ptl.V("y"))})
		}
		return f
	case 2:
		return &ptl.Throughout{F: g.formula(1, nil), Bound: bound}
	case 3, 4:
		fns := []ptl.AggFn{ptl.AggSum, ptl.AggCount, ptl.AggSum, ptl.AggCount, ptl.AggMin, ptl.AggMax}
		ops := []value.CmpOp{value.LT, value.LE, value.GT, value.GE}
		var a *ptl.Agg
		if g.rng.Intn(4) == 0 {
			a = ptl.NewAgg(fns[g.rng.Intn(len(fns))], g.item(), g.atom(nil), g.formula(1, nil))
		} else {
			a = ptl.NewWindowAgg(fns[g.rng.Intn(len(fns))], g.item(), int64(1+g.rng.Intn(12)), g.formula(1, nil))
		}
		return ptl.Compare(ops[g.rng.Intn(len(ops))], a, ptl.CInt(int64(g.rng.Intn(20))))
	default:
		return g.doubled(bound)
	}
}

// doubled is `[t <- time] [x <- q] (g since (item OP c * x and time >= t -
// d))` in its variations, the since sometimes or'ed with an atom or
// conjoined to one.
func (g *gen) doubled(d int64) ptl.Formula {
	ops := []value.CmpOp{value.LT, value.LE, value.GT, value.GE, value.LE, value.GE}
	coef := []ptl.Term{ptl.CFloat(0.5), ptl.CInt(2), ptl.CInt(1), ptl.CFloat(-1.5)}[g.rng.Intn(4)]
	item := ptl.Term(g.item())
	if g.rng.Intn(5) == 0 {
		item = &ptl.Arith{Op: value.Mul, L: item, R: g.item()}
	}
	outer := ptl.Term(&ptl.Arith{Op: value.Mul, L: coef, R: ptl.V("x")})
	if g.rng.Intn(4) == 0 {
		outer = ptl.V("x")
	}
	var h ptl.Formula = ptl.Compare(ops[g.rng.Intn(len(ops))], item, outer)
	if g.rng.Intn(3) == 0 {
		h = ptl.Compare(ops[g.rng.Intn(len(ops))], outer, item)
	}
	switch g.rng.Intn(6) {
	case 0: // unbounded: the frontier is one extremum
	case 1:
		h = &ptl.And{L: h, R: ptl.Compare(value.GT, ptl.Time(), &ptl.Arith{Op: value.Sub, L: ptl.V("t"), R: ptl.CInt(d)})}
	default:
		h = &ptl.And{L: h, R: ptl.Compare(value.GE, ptl.Time(), &ptl.Arith{Op: value.Sub, L: ptl.V("t"), R: ptl.CInt(d)})}
	}
	if g.rng.Intn(3) == 0 {
		h = &ptl.And{L: g.atom(nil), R: h}
	}
	left := ptl.TTrue
	if g.rng.Intn(3) == 0 {
		left = g.formula(1, nil)
	}
	q := ptl.Term(item)
	if g.rng.Intn(4) == 0 {
		q = g.item()
	}
	var f ptl.Formula = &ptl.Since{L: left, R: h, Bound: ptl.Unbounded}
	switch g.rng.Intn(12) { // a connective inside the assignments
	case 0:
		f = &ptl.Or{L: f, R: g.atom(nil)}
	case 1:
		f = &ptl.And{L: g.atom(nil), R: f}
	}
	return ptl.Let("t", ptl.Time(), ptl.Let("x", q, f))
}

// ParamHistory is History for ParamFormula: event arguments are Null one
// time in five, and item "rel" holds a one-column relation of small
// integers, sometimes with a Null row, that some commits replace.
func ParamHistory(rng *rand.Rand, n int) *history.History { return build(rng, n, true) }

func build(rng *rand.Rand, n int, param bool) *history.History {
	db := history.EmptyDB()
	for _, it := range Items {
		db = db.With(it, value.NewInt(int64(rng.Intn(10))))
	}
	if param {
		db = db.With("rel", relation(rng))
	}
	b := history.NewBuilder(db, 0)
	txn := int64(0)
	for i := 0; i < n; i++ {
		ts := b.Now() + int64(1+rng.Intn(3))
		events := randomEvents(rng, param)
		if rng.Intn(2) == 0 {
			txn++
			updates := map[string]value.Value{}
			for k := 0; k < 1+rng.Intn(2); k++ {
				updates[Items[rng.Intn(len(Items))]] = value.NewInt(int64(rng.Intn(10)))
			}
			if param && rng.Intn(3) == 0 {
				updates["rel"] = relation(rng)
			}
			if err := b.Commit(ts, txn, updates, events...); err != nil {
				panic(fmt.Sprintf("ptlgen: commit: %v", err))
			}
		} else {
			if len(events) == 0 {
				events = append(events, event.New("tick"))
			}
			if err := b.Event(ts, events...); err != nil {
				panic(fmt.Sprintf("ptlgen: event: %v", err))
			}
		}
	}
	return b.History()
}

// relation draws a one-column relation over 0..2, with a Null row one
// time in eight. The Null row rides on the first draw's high bits:
// rng.Intn(16)&1 is the rng.Intn(2) it stands for (both take one Int31),
// so no other draw changes.
func relation(rng *rand.Rand) value.Value {
	var rows [][]value.Value
	first := rng.Intn(16)
	for i := int64(0); i < 3; i++ {
		d := first
		if i > 0 {
			d = rng.Intn(2)
		}
		if d&1 == 0 {
			rows = append(rows, []value.Value{value.NewInt(i)})
		}
	}
	if first>>1 == 0 {
		rows = append(rows, []value.Value{{}})
	}
	return value.NewRelation(rows)
}

func randomEvents(rng *rand.Rand, nulls bool) []event.Event {
	arg := func() value.Value {
		if nulls && rng.Intn(5) == 0 {
			return value.Value{}
		}
		return value.NewInt(int64(rng.Intn(3)))
	}
	var out []event.Event
	for _, name := range EventNames {
		if rng.Intn(3) != 0 {
			continue
		}
		switch name {
		case "e0":
			out = append(out, event.New("e0"))
		case "e1":
			out = append(out, event.New("e1", arg()))
		case "e2":
			out = append(out, event.New("e2", arg(), arg()))
		}
	}
	return out
}

// Log is an execution log; ParamFormula's executed atoms read rule r1's.
type Log []ptl.Execution

// Executions implements ptl.ExecLog.
func (l Log) Executions(rule string, before int64) []ptl.Execution {
	var out []ptl.Execution
	for _, ex := range l {
		if ex.Rule == rule && ex.Time < before {
			out = append(out, ex)
		}
	}
	return out
}

// ParamLog records an execution of r1, with one parameter in 0..2, at
// about one state in three of h.
func ParamLog(rng *rand.Rand, h *history.History) Log {
	var l Log
	for i := 0; i < h.Len(); i++ {
		if rng.Intn(3) == 0 {
			l = append(l, ptl.Execution{Rule: "r1", Params: []value.Value{value.NewInt(int64(rng.Intn(3)))}, Time: h.At(i).TS})
		}
	}
	return l
}

// ParamFormula generates a rule with parameters: a binder that gives U (and
// sometimes V or T) its values — an event, an executed record, a relation
// row, an item's value or, for a class formula, a login-style since — and,
// conjoined, a body mixing closed atoms with parameterised events (Null and
// repeated arguments included), executed, memberships and U = c / U ≠ c
// atoms under not, and, or, since, lasttime and previously. In a class
// formula (half of them) U also crosses temporal operators, in event
// arguments and = / ≠ atoms only; otherwise only closed formulas do. One
// formula in eight lets U cross them in an ordering atom, outside the fast
// evaluator's class. One formula in five is `binder or body` instead: it
// holds for infinitely many values of U unless the body binds U too, so
// naive cannot check it, but the evaluators must agree on it.
func ParamFormula(rng *rand.Rand, depth int) ptl.Formula {
	g := &gen{rng: rng, class: rng.Intn(2) == 0, wild: rng.Intn(8) == 0}
	if rng.Intn(5) == 0 {
		return &ptl.Or{L: g.binder(), R: g.param(depth, false)}
	}
	return &ptl.And{L: g.binder(), R: g.param(depth, false)}
}

func (g *gen) binder() ptl.Formula {
	u, k := ptl.V("U"), ptl.CInt(int64(g.rng.Intn(3)))
	switch g.rng.Intn(9) {
	case 0:
		return ptl.Ev("e2", u, ptl.V("V"))
	case 1:
		return &ptl.Executed{Rule: "r1", Args: []ptl.Term{u}, TimeArg: ptl.V("T")}
	case 2:
		return &ptl.Member{Elems: []ptl.Term{u}, Rel: ptl.Q("item", ptl.CStr("rel"))}
	case 3:
		return ptl.Compare(value.EQ, u, g.item())
	case 4, 5:
		if g.class {
			return &ptl.Since{L: &ptl.Not{F: ptl.Ev("e1", u)}, R: ptl.Ev("e2", u, k), Bound: ptl.Unbounded}
		}
	case 6:
		if g.class {
			return &ptl.Previously{F: ptl.Ev("e1", u), Bound: g.bound()}
		}
	}
	return ptl.Ev("e1", u)
}

// param is the body: under a temporal operator (in) U appears only where
// the formula's kind allows it.
func (g *gen) param(depth int, in bool) ptl.Formula {
	if depth <= 0 {
		return g.paramAtom(in)
	}
	sub := func() ptl.Formula { return g.param(depth-1, in) }
	temporal := func() ptl.Formula {
		if g.class || g.wild {
			return g.param(depth-1, true)
		}
		return g.formula(depth-1, nil)
	}
	switch g.rng.Intn(8) {
	case 0:
		return &ptl.Not{F: sub()}
	case 1:
		return &ptl.And{L: sub(), R: sub()}
	case 2:
		return &ptl.Or{L: sub(), R: sub()}
	case 3:
		return &ptl.Since{L: temporal(), R: temporal(), Bound: ptl.Unbounded}
	case 4:
		return &ptl.Lasttime{F: temporal()}
	case 5:
		return &ptl.Previously{F: temporal(), Bound: ptl.Unbounded}
	default:
		return g.paramAtom(in)
	}
}

func (g *gen) paramAtom(in bool) ptl.Formula {
	u, k := ptl.V("U"), ptl.CInt(int64(g.rng.Intn(3)))
	n := 10
	if in && !g.wild {
		n = 6
	}
	switch g.rng.Intn(n) {
	case 0:
		return ptl.Ev("e1", u)
	case 1:
		return ptl.Ev("e2", u, k)
	case 2:
		return ptl.Ev("e2", u, u)
	case 3:
		return ptl.Compare(value.EQ, u, k)
	case 4:
		return ptl.Compare(value.NE, k, u)
	case 5:
		return g.atom(nil)
	case 6:
		return &ptl.Executed{Rule: "r1", Args: []ptl.Term{u}, TimeArg: ptl.Q("item", ptl.CStr("a"))}
	case 7:
		return &ptl.Member{Elems: []ptl.Term{u}, Rel: ptl.Q("item", ptl.CStr("rel"))}
	case 8:
		return ptl.Compare(value.GT, u, k)
	default:
		return g.atom(nil)
	}
}

// Formula generates a random closed formula of the given depth. Closed
// means no free variables: every variable is bound by an assignment. The
// result always passes ptl.Check against Registry().
func Formula(rng *rand.Rand, depth int) ptl.Formula {
	g := &gen{rng: rng}
	return g.formula(depth, nil)
}

// FormulaWithAggregates is Formula but may also nest temporal aggregate
// terms (which are more expensive to generate and check, so they are kept
// out of the default generator).
func FormulaWithAggregates(rng *rand.Rand, depth int) ptl.Formula {
	g := &gen{rng: rng, aggs: true}
	return g.formula(depth, nil)
}

// LinearFormula generates a closed formula of the family whose since-chains
// retain clauses of one shape: under [x1 <- time] [x2 <- item(...)], mostly
// linear atoms of the paper's doubled-within-d form — an item against x2
// plus a small constant, the time against x1 minus a small one — under not,
// lasttime, since, previously and or, beside near misses (another operator,
// offset or side) and Formula's own atoms and subformulas.
func LinearFormula(rng *rand.Rand, depth int) ptl.Formula {
	g := &gen{rng: rng, vars: 2}
	return ptl.Let("x1", ptl.Time(), ptl.Let("x2", g.item(), g.linear(depth, []string{"x1", "x2"})))
}

func (g *gen) linear(depth int, scope []string) ptl.Formula {
	if depth <= 0 {
		return g.clause(scope)
	}
	switch g.rng.Intn(8) {
	case 0:
		return &ptl.Not{F: g.linear(depth-1, scope)}
	case 1:
		return &ptl.Lasttime{F: g.linear(depth-1, scope)}
	case 2:
		return &ptl.Since{L: g.linear(depth-1, scope), R: g.linear(depth-1, scope), Bound: g.bound()}
	case 3, 4:
		return &ptl.Previously{F: g.linear(depth-1, scope), Bound: g.bound()}
	case 5:
		return &ptl.Or{L: g.linear(depth-1, scope), R: g.linear(depth-1, scope)}
	case 6:
		return g.formula(depth-1, scope)
	default:
		return g.clause(scope)
	}
}

// clause is a linear atom or the conjunction of two.
func (g *gen) clause(scope []string) ptl.Formula {
	if g.rng.Intn(2) == 0 {
		return &ptl.And{L: g.linearAtom(scope), R: g.linearAtom(scope)}
	}
	return g.linearAtom(scope)
}

func (g *gen) linearAtom(scope []string) ptl.Formula {
	ops := []value.CmpOp{value.LE, value.LE, value.GE, value.GE, value.LT, value.GT, value.EQ, value.NE}
	op := ops[g.rng.Intn(len(ops))]
	k := ptl.CInt(int64(g.rng.Intn(3) - 1))
	switch g.rng.Intn(6) {
	case 0:
		return ptl.Compare(op, ptl.Time(), &ptl.Arith{Op: value.Sub, L: ptl.V(scope[0]), R: ptl.CInt(int64(1 + g.rng.Intn(4)))})
	case 1:
		return ptl.Compare(op, &ptl.Arith{Op: value.Add, L: ptl.V(scope[1]), R: k}, g.item())
	case 2:
		return ptl.Compare(op, g.item(), &ptl.Arith{Op: value.Mul, L: ptl.CFloat(0.5), R: ptl.V(scope[1])})
	case 3:
		return g.atom(scope)
	default:
		return ptl.Compare(op, g.item(), &ptl.Arith{Op: value.Add, L: ptl.V(scope[1]), R: k})
	}
}

// item queries the first item two times in three, so clauses over one item
// meet in an or.
func (g *gen) item() ptl.Term {
	return ptl.Q("item", ptl.CStr(Items[max(0, g.rng.Intn(len(Items)+3)-3)]))
}

type gen struct {
	rng  *rand.Rand
	aggs bool
	vars int
	// class and wild are ParamFormula's: U may cross temporal operators,
	// in = and ≠ atoms (class) or anywhere (wild).
	class, wild bool
}

// term generates a term over the bound variables in scope.
func (g *gen) term(scope []string, depth int) ptl.Term {
	switch g.rng.Intn(6) {
	case 0:
		return ptl.CInt(int64(g.rng.Intn(10)))
	case 1:
		return ptl.Q("item", ptl.CStr(Items[g.rng.Intn(len(Items))]))
	case 2:
		return ptl.Time()
	case 3:
		if len(scope) > 0 {
			return ptl.V(scope[g.rng.Intn(len(scope))])
		}
		return ptl.CInt(int64(g.rng.Intn(10)))
	case 4:
		if depth > 0 {
			ops := []value.ArithOp{value.Add, value.Sub, value.Mul}
			return &ptl.Arith{Op: ops[g.rng.Intn(len(ops))], L: g.term(scope, depth-1), R: g.term(scope, depth-1)}
		}
		return ptl.CInt(int64(g.rng.Intn(10)))
	default:
		if g.aggs && depth > 0 && g.rng.Intn(4) == 0 {
			return g.aggregate(depth - 1)
		}
		return ptl.Q("item", ptl.CStr(Items[g.rng.Intn(len(Items))]))
	}
}

func (g *gen) aggregate(depth int) ptl.Term {
	fns := []ptl.AggFn{ptl.AggSum, ptl.AggCount, ptl.AggAvg, ptl.AggMin, ptl.AggMax}
	fn := fns[g.rng.Intn(len(fns))]
	q := ptl.Q("item", ptl.CStr(Items[g.rng.Intn(len(Items))]))
	sample := g.formula(min(depth, 1), nil)
	if g.rng.Intn(2) == 0 {
		return ptl.NewWindowAgg(fn, q, int64(1+g.rng.Intn(20)), sample)
	}
	start := g.formula(min(depth, 1), nil)
	return ptl.NewAgg(fn, q, start, sample)
}

func (g *gen) atom(scope []string) ptl.Formula {
	switch g.rng.Intn(8) {
	case 0:
		return ptl.TTrue
	case 1:
		return ptl.TFalse
	case 2:
		return ptl.Ev("e0")
	case 3:
		return ptl.Ev("e1", ptl.CInt(int64(g.rng.Intn(3))))
	case 4:
		return ptl.Ev("e2", ptl.CInt(int64(g.rng.Intn(3))), ptl.CInt(int64(g.rng.Intn(3))))
	default:
		ops := []value.CmpOp{value.EQ, value.NE, value.LT, value.LE, value.GT, value.GE}
		return ptl.Compare(ops[g.rng.Intn(len(ops))], g.term(scope, 1), g.term(scope, 1))
	}
}

func (g *gen) formula(depth int, scope []string) ptl.Formula {
	if depth <= 0 {
		return g.atom(scope)
	}
	switch g.rng.Intn(10) {
	case 0:
		return &ptl.Not{F: g.formula(depth-1, scope)}
	case 1:
		return &ptl.And{L: g.formula(depth-1, scope), R: g.formula(depth-1, scope)}
	case 2:
		return &ptl.Or{L: g.formula(depth-1, scope), R: g.formula(depth-1, scope)}
	case 3:
		return &ptl.Since{L: g.formula(depth-1, scope), R: g.formula(depth-1, scope), Bound: g.bound()}
	case 4:
		return &ptl.Lasttime{F: g.formula(depth-1, scope)}
	case 5:
		return &ptl.Previously{F: g.formula(depth-1, scope), Bound: g.bound()}
	case 6:
		return &ptl.Throughout{F: g.formula(depth-1, scope), Bound: g.bound()}
	case 7:
		// Assignment binding a variable to an item or the time.
		g.vars++
		name := fmt.Sprintf("x%d", g.vars)
		var q ptl.Term
		if g.rng.Intn(3) == 0 {
			q = ptl.Time()
		} else {
			q = ptl.Q("item", ptl.CStr(Items[g.rng.Intn(len(Items))]))
		}
		inner := append(append([]string{}, scope...), name)
		return ptl.Let(name, q, g.formula(depth-1, inner))
	default:
		return g.atom(scope)
	}
}

func (g *gen) bound() int64 {
	if g.rng.Intn(2) == 0 {
		return ptl.Unbounded
	}
	return int64(1 + g.rng.Intn(10))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
