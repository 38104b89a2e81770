// Package agg implements the Section-6.1.1 processing of temporal
// aggregates by rule rewriting: every aggregate f(q; phi; psi) in a rule
// condition is replaced by a reference to a fresh database item F, and two
// maintenance rules are installed — r1 resets F when the starting formula
// phi holds, r2 accumulates the query value when the sampling formula psi
// holds. The paper's worked example rewrites
//
//	(Avg(price(IBM); time = 9AM; update_stocks) > 70) -> A
//
// into three rules over the items CUM_PRICE and TOTAL_UPDATES.
//
// The package also implements the indexed-family construction for
// aggregates with a free variable ("we need to have multiple database
// items, indexed with different values for the free variables"): the
// family is kept as a relation-valued item (key, sum, count, avg) and rule
// conditions access it through membership atoms, which bind the key as a
// rule parameter.
//
// The rewriting is eventually consistent by construction: maintenance
// actions commit one state after the sampled state, so the rewritten rule
// observes the new aggregate value one commit later than the direct
// evaluation of internal/core does. That delay is inherent to the paper's
// construction ("the action part of the rule was committed by the time t")
// and is measured in EXPERIMENTS.md E3.
package agg

import (
	"fmt"

	"ptlactive/internal/adb"
	"ptlactive/internal/history"
	"ptlactive/internal/ptl"
	"ptlactive/internal/value"
)

// RewriteCondition replaces every starting-formula aggregate in the
// condition with a database-item reference and installs the maintenance
// rules into the engine. It returns the rewritten condition, to be
// registered as the rule's condition by the caller. Supported aggregate
// functions: sum, count, avg. Windowed aggregates and min/max are not part
// of the paper's rewriting; evaluate them directly with internal/core.
//
// The maintenance rules are installed before the caller registers the
// rewritten rule, so within each sweep resets and accumulations execute
// before the consuming rule's next evaluation.
func RewriteCondition(eng *adb.Engine, ruleName string, condition ptl.Formula) (ptl.Formula, error) {
	r := &rewriter{eng: eng, rule: ruleName}
	r.ff, r.tf = r.formula, r.term
	out := r.formula(condition)
	if r.err != nil {
		return nil, r.err
	}
	return out, nil
}

type rewriter struct {
	eng  *adb.Engine
	rule string
	n    int
	// err is the first aggregate that could not be rewritten; once set,
	// no further maintenance rule is installed.
	err error
	// ff and tf are the formula and term methods, bound once.
	ff func(ptl.Formula) ptl.Formula
	tf func(ptl.Term) ptl.Term
}

// fresh names a maintenance item. Rule names are unique within an engine
// and n counts within the rule, so the name is too — and it depends on
// nothing else, so the same rule reads the same items (and logs the same
// addrule bytes) in every process.
func (r *rewriter) fresh(kind string) string {
	r.n++
	return fmt.Sprintf("$agg_%s_%s_%d", r.rule, kind, r.n)
}

func (r *rewriter) formula(f ptl.Formula) ptl.Formula { return ptl.MapChildren(f, r.ff, r.tf) }

func (r *rewriter) term(t ptl.Term) ptl.Term {
	switch x := t.(type) {
	case *ptl.Agg:
		if r.err != nil {
			return t
		}
		out, err := r.rewriteAgg(x)
		if err != nil {
			r.err = err
			return t
		}
		return out
	default:
		return ptl.MapTermChildren(t, r.ff, r.tf)
	}
}

// rewriteAgg installs r1/r2 for one aggregate occurrence and returns the
// replacement term item("F").
func (r *rewriter) rewriteAgg(a *ptl.Agg) (ptl.Term, error) {
	if a.Window >= 0 {
		return nil, fmt.Errorf("agg: windowed aggregates have no rule rewriting in the paper; evaluate them directly")
	}
	switch a.Fn {
	case ptl.AggSum, ptl.AggCount, ptl.AggAvg:
	default:
		return nil, fmt.Errorf("agg: %s has no rule rewriting (resets cannot be maintained in O(1)); evaluate it directly", a.Fn)
	}
	probe := &ptl.Cmp{Op: value.EQ, L: a.Q, R: ptl.CInt(0)}
	if len(ptl.FreeVars(a.Start)) > 0 || len(ptl.FreeVars(a.Sample)) > 0 || len(ptl.FreeVars(probe)) > 0 {
		return nil, fmt.Errorf("agg: aggregate with free variables needs InstallIndexed")
	}
	sumItem := r.fresh("sum")
	cntItem := r.fresh("count")
	avgItem := r.fresh("avg")
	qTerm := a.Q

	// r1: starting formula -> reset. The value item for avg is deleted so
	// the empty aggregate reads as undefined (Null), matching the direct
	// semantics.
	reset := func(ctx *adb.ActionContext) error {
		tx := ctx.Begin()
		tx.Set(sumItem, value.NewFloat(0))
		tx.Set(cntItem, value.NewInt(0))
		tx.Delete(avgItem)
		// The start state is itself a sampling candidate: when the
		// sampling formula holds at the same state, the accumulate rule
		// (registered after this one) runs next and sees the reset values.
		return tx.Commit(ctx.Now() + 1)
	}
	r1 := fmt.Sprintf("%s$reset%d", r.rule, r.n)
	if err := r.eng.AddTriggerFormula(r1, a.Start, reset); err != nil {
		return nil, fmt.Errorf("agg: installing reset rule: %w", err)
	}

	// r2: sampling formula -> accumulate. Samples before the first reset
	// are ignored (the aggregate is undefined until phi holds), hence the
	// presence check.
	eng := r.eng
	accumulate := func(ctx *adb.ActionContext) error {
		db := ctx.DB()
		s, ok := db.Get(sumItem)
		if !ok {
			return nil // not started yet
		}
		c, _ := db.Get(cntItem)
		qv, err := evalGroundTerm(eng, qTerm)
		if err != nil || !qv.IsNumeric() { // anything else, Null included, is no sample
			return err
		}
		ns := value.NewFloat(s.AsFloat() + qv.AsFloat())
		nc := value.NewInt(c.AsInt() + 1)
		tx := ctx.Begin()
		tx.Set(sumItem, ns)
		tx.Set(cntItem, nc)
		tx.Set(avgItem, value.NewFloat(ns.AsFloat()/float64(nc.AsInt())))
		return tx.Commit(ctx.Now() + 1)
	}
	r2 := fmt.Sprintf("%s$accum%d", r.rule, r.n)
	if err := r.eng.AddTriggerFormula(r2, a.Sample, accumulate); err != nil {
		return nil, fmt.Errorf("agg: installing accumulate rule: %w", err)
	}

	switch a.Fn {
	case ptl.AggSum:
		return ptl.Q("aggval", ptl.CStr(sumItem)), nil
	case ptl.AggCount:
		return ptl.Q("aggval", ptl.CStr(cntItem)), nil
	default: // avg
		return ptl.Q("aggval", ptl.CStr(avgItem)), nil
	}
}

// evalGroundTerm evaluates a ground term against the engine's newest
// state.
func evalGroundTerm(e *adb.Engine, t ptl.Term) (value.Value, error) {
	st, ok := e.History().Last()
	if !ok {
		return value.Value{}, fmt.Errorf("agg: empty history")
	}
	switch x := t.(type) {
	case *ptl.Const:
		return x.V, nil
	case *ptl.Call:
		args := make([]value.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := evalGroundTerm(e, a)
			if err != nil {
				return value.Value{}, err
			}
			args[i] = v
		}
		return e.Registry().Eval(x.Fn, st, args)
	case *ptl.Arith:
		l, err := evalGroundTerm(e, x.L)
		if err != nil {
			return value.Value{}, err
		}
		r, err := evalGroundTerm(e, x.R)
		return value.Arith(x.Op, l, r), err
	case *ptl.Neg:
		v, err := evalGroundTerm(e, x.X)
		return value.Arith(value.Sub, value.NewInt(0), v), err
	default:
		return value.Value{}, fmt.Errorf("agg: term %T is not ground", t)
	}
}

// EnsureAggVal registers the "aggval" query on the engine's registry if it
// is not present: aggval(name) reads a database item but yields the
// undefined value (Null) when the item is absent, so conditions over
// not-yet-started aggregates are simply false. Call it once per engine
// before rules produced by RewriteCondition are registered.
func EnsureAggVal(eng *adb.Engine) error {
	reg := eng.Registry()
	if reg.Has("aggval") {
		return nil
	}
	return reg.Register("aggval", 1, func(st history.SystemState, args []value.Value) (value.Value, error) {
		if args[0].Kind() != value.String {
			return value.Value{}, fmt.Errorf("agg: aggval wants a string item name")
		}
		v, ok := st.GetItem(args[0].AsString())
		if !ok {
			return value.Value{}, nil
		}
		return v, nil
	})
}

// Rewrite is the one-call convenience: ensure the aggval query, rewrite
// the condition, and register the rule.
func Rewrite(eng *adb.Engine, name, condition string, action adb.Action, opts ...adb.RuleOption) error {
	f, err := ptl.Parse(condition)
	if err != nil {
		return err
	}
	if err := EnsureAggVal(eng); err != nil {
		return err
	}
	rw, err := RewriteCondition(eng, name, f)
	if err != nil {
		return err
	}
	return eng.AddTriggerFormula(name, rw, action, opts...)
}

// IndexedSpec describes an indexed aggregate family F(x) maintained as a
// relation item with rows (key, value): one aggregate per index value,
// per the free-variable construction of Section 6.1.1.
type IndexedSpec struct {
	// Item is the relation item to maintain, rows (key, value).
	Item string
	// Fn is sum, count or avg.
	Fn ptl.AggFn
	// SampleEvent is the event whose occurrences are sampling points; the
	// event's first parameter is the index key.
	SampleEvent string
	// Value computes the sampled quantity for a key against the current
	// database (e.g. price(x)); ignored for count. A value that is not a
	// number is no sample: no sum or count moves and nothing is published.
	Value func(e *adb.Engine, key value.Value) (value.Value, error)
	// Start is a PTL condition (concrete syntax) resetting the whole
	// family; empty means never reset.
	Start string
}

// InstallIndexed installs the maintenance rules for an indexed aggregate
// family. Rule conditions consume the family through membership:
//
//	(X, A) in item("F") and A > 70
//
// which binds the index X and aggregate value A as rule parameters.
func InstallIndexed(eng *adb.Engine, spec IndexedSpec) error {
	if spec.Item == "" || spec.SampleEvent == "" {
		return fmt.Errorf("agg: indexed spec needs Item and SampleEvent")
	}
	switch spec.Fn {
	case ptl.AggSum, ptl.AggCount, ptl.AggAvg:
	default:
		return fmt.Errorf("agg: indexed family for %s is not supported", spec.Fn)
	}
	if spec.Fn != ptl.AggCount && spec.Value == nil {
		return fmt.Errorf("agg: indexed %s needs a Value function", spec.Fn)
	}
	sums := map[string]float64{}
	counts := map[string]int64{}
	keys := map[string]value.Value{}

	publish := func(ctx *adb.ActionContext) error {
		rows := make([][]value.Value, 0, len(keys))
		for k, key := range keys {
			var v value.Value
			switch spec.Fn {
			case ptl.AggSum:
				v = value.NewFloat(sums[k])
			case ptl.AggCount:
				v = value.NewInt(counts[k])
			default:
				v = value.NewFloat(sums[k] / float64(counts[k]))
			}
			rows = append(rows, []value.Value{key, v})
		}
		return ctx.Exec(map[string]value.Value{spec.Item: value.NewRelation(rows)})
	}

	sample := func(ctx *adb.ActionContext) error {
		key, ok := ctx.Param("K$")
		if !ok {
			return fmt.Errorf("agg: indexed sample firing without key")
		}
		k := key.Key()
		if spec.Fn != ptl.AggCount {
			v, err := spec.Value(eng, key)
			if err != nil || !v.IsNumeric() {
				// A value that is not a number, Null included, is no
				// sample, as core's aggregate machine decides.
				return err
			}
			sums[k] += v.AsFloat()
		}
		keys[k] = key
		counts[k]++
		return publish(ctx)
	}
	cond := &ptl.EventAtom{Name: spec.SampleEvent, Args: []ptl.Term{ptl.V("K$")}}
	if err := eng.AddTriggerFormula(spec.Item+"$sample", cond, sample); err != nil {
		return err
	}
	if spec.Start != "" {
		reset := func(ctx *adb.ActionContext) error {
			sums = map[string]float64{}
			counts = map[string]int64{}
			keys = map[string]value.Value{}
			return ctx.Exec(map[string]value.Value{spec.Item: value.NewRelation(nil)})
		}
		if err := eng.AddTrigger(spec.Item+"$reset", spec.Start, reset); err != nil {
			return err
		}
	}
	return nil
}
