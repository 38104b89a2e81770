// Package ptlgen generates random PTL formulas and random system
// histories. The property tests across the repository use it to validate
// Theorem 1 (incremental == direct semantics), the desugaring rewrites and
// the simplifier; benchmarks use it for synthetic rule sets.
package ptlgen

import (
	"fmt"
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
func History(rng *rand.Rand, n int) *history.History {
	db := history.EmptyDB()
	for _, it := range Items {
		db = db.With(it, value.NewInt(int64(rng.Intn(10))))
	}
	b := history.NewBuilder(db, 0)
	txn := int64(0)
	for i := 0; i < n; i++ {
		ts := b.Now() + int64(1+rng.Intn(3))
		events := randomEvents(rng)
		if rng.Intn(2) == 0 {
			txn++
			updates := map[string]value.Value{}
			for k := 0; k < 1+rng.Intn(2); k++ {
				updates[Items[rng.Intn(len(Items))]] = value.NewInt(int64(rng.Intn(10)))
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

func randomEvents(rng *rand.Rand) []event.Event {
	var out []event.Event
	for _, name := range EventNames {
		if rng.Intn(3) != 0 {
			continue
		}
		switch name {
		case "e0":
			out = append(out, event.New("e0"))
		case "e1":
			out = append(out, event.New("e1", value.NewInt(int64(rng.Intn(3)))))
		case "e2":
			out = append(out, event.New("e2", value.NewInt(int64(rng.Intn(3))), value.NewInt(int64(rng.Intn(3)))))
		}
	}
	return out
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
