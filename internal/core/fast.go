package core

import (
	"fmt"
	"slices"

	"ptlactive/internal/history"
	"ptlactive/internal/ptl"
	"ptlactive/internal/query"
	"ptlactive/internal/value"
)

// FastEvaluator is a specialized incremental evaluator for the
// *decomposable* subclass of PTL — the subclass the paper's Sybase
// prototype implemented ([Deng 94]): closed conditions in which no
// variable crosses a temporal operator. For these, every F_{g,i} collapses
// to a truth value, so instead of constraint graphs the evaluator keeps
// exactly one boolean per temporal occurrence. It computes the same
// recurrences as Evaluator:
//
//	reg[g since h] = F_h(i) || (F_g(i) && reg[g since h])
//	reg[lasttime g] is read, then overwritten with F_g(i)
//
// The ablation experiment (bench_test.go, BenchmarkAblationDecomposable)
// measures what the general constraint-graph machinery costs on
// conditions that do not need it.
type FastEvaluator struct {
	info *ptl.Info
	reg  *query.Registry
	log  ptl.ExecLog

	// regs holds every register, the nSince since occurrences then the
	// lasttime ones in temporalOccurrences order (the encoded order). undo is
	// Mark's copy of regs and steps.
	regs      []bool
	nSince    int
	steps     int
	undo      []bool
	undoSteps int
	st        history.SystemState

	// root is the normalized condition compiled once by NewFast (compile
	// below): closures over pointers into regs, slots of qc and slots of
	// vars, which holds the value each enclosing assignment bound.
	root fastCond
	qc   queryCache
	vars []value.Value
}

// NewFast compiles a checked condition into a fast evaluator. It returns
// an error when the condition is outside the decomposable subclass
// (parameters, variables crossing temporal operators, or aggregates —
// evaluate those with New).
func NewFast(info *ptl.Info, reg *query.Registry, log ptl.ExecLog) (*FastEvaluator, error) {
	if info == nil {
		return nil, fmt.Errorf("core: nil condition info")
	}
	if log == nil {
		log = ptl.NoExecutions{}
	}
	if !ptl.Decomposable(info.Source) {
		return nil, fmt.Errorf("core: condition is not decomposable; use the general evaluator")
	}
	hasAgg := false
	ptl.WalkTerms(info.Normalized, func(t ptl.Term) {
		if _, ok := t.(*ptl.Agg); ok {
			hasAgg = true
		}
	})
	if hasAgg {
		return nil, fmt.Errorf("core: fast evaluator does not support aggregates; use the general evaluator")
	}
	sinces, lasts := temporalOccurrences(info.Normalized)
	n := len(sinces) + len(lasts)
	both := make([]bool, 2*n)
	e := &FastEvaluator{
		info:   info,
		reg:    reg,
		log:    log,
		regs:   both[:n:n],
		nSince: len(sinces),
		undo:   both[n:],
		qc:     newQueryCache(info.Normalized, reg),
	}
	c := fastCompiler{e: e, since: make(map[*ptl.Since]*bool, len(sinces)), last: make(map[*ptl.Lasttime]*bool, len(lasts))}
	for i, x := range sinces {
		c.since[x] = &e.regs[i]
	}
	for i, x := range lasts {
		c.last[x] = &e.regs[len(sinces)+i]
	}
	e.root = c.cond(info.Normalized)
	return e, nil
}

// CompileFast checks a formula and builds a fast evaluator.
func CompileFast(f ptl.Formula, reg *query.Registry, log ptl.ExecLog) (*FastEvaluator, error) {
	info, err := ptl.Check(f, reg)
	if err != nil {
		return nil, err
	}
	return NewFast(info, reg, log)
}

// Registers returns the number of boolean temporal registers.
func (e *FastEvaluator) Registers() int { return len(e.regs) }

// Steps returns the number of states processed.
func (e *FastEvaluator) Steps() int { return e.steps }

// Step feeds the next system state and reports whether the condition is
// satisfied at it.
func (e *FastEvaluator) Step(st history.SystemState) (bool, error) {
	return e.stepHinted(st, false)
}

func (e *FastEvaluator) stepHinted(st history.SystemState, dbUnchanged bool) (bool, error) {
	if !dbUnchanged {
		e.qc.reset()
	}
	e.st = st
	fired, err := e.root()
	if err != nil {
		return false, err
	}
	e.steps++
	return fired, nil
}

// fastCond and fastTerm are a compiled subformula and term: they read the
// state being stepped from the evaluator they close over.
type (
	fastCond func() (bool, error)
	fastTerm func() (value.Value, error)
)

// fastCompiler turns the normalized condition into closures, once. What a
// tree walk would look up at every step is resolved here: the register of
// each temporal occurrence, the cache slot of each call, and — scope[i] being
// the variable whose assignment is i levels deep — where a variable's value
// sits in e.vars. A node that cannot be evaluated (an unbound variable, an
// unsupported node) is no compile error: its closure reports it when, and
// if, a step reaches it.
type fastCompiler struct {
	e     *FastEvaluator
	since map[*ptl.Since]*bool
	last  map[*ptl.Lasttime]*bool
	scope []string
}

func (c *fastCompiler) terms(ts []ptl.Term) []fastTerm {
	out := make([]fastTerm, len(ts))
	for i, t := range ts {
		out[i] = c.term(t)
	}
	return out
}

// evalTerms evaluates ts in order into a fresh slice.
func evalTerms(ts []fastTerm) ([]value.Value, error) {
	out := make([]value.Value, len(ts))
	for i, t := range ts {
		v, err := t()
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (c *fastCompiler) cond(f ptl.Formula) fastCond {
	e := c.e
	switch x := f.(type) {
	case *ptl.BoolConst:
		v := x.V
		return func() (bool, error) { return v, nil }
	case *ptl.Cmp:
		op, lt, rt := x.Op, c.term(x.L), c.term(x.R)
		return func() (bool, error) {
			l, err := lt()
			if err != nil {
				return false, err
			}
			r, err := rt()
			if err != nil {
				return false, err
			}
			if l.IsNull() || r.IsNull() {
				return false, nil
			}
			return value.Cmp(op, l, r)
		}
	case *ptl.EventAtom:
		name, argts := x.Name, c.terms(x.Args)
		return func() (bool, error) {
			args, err := evalTerms(argts)
			if err != nil {
				return false, err
			}
			for _, ev := range e.st.Events.ByName(name) {
				if slices.EqualFunc(ev.Args, args, value.Value.Equal) {
					return true, nil
				}
			}
			return false, nil
		}
	case *ptl.Executed:
		rule, argts, timet := x.Rule, c.terms(x.Args), c.term(x.TimeArg)
		return func() (bool, error) {
			args, err := evalTerms(argts)
			if err != nil {
				return false, err
			}
			tv, err := timet()
			if err != nil {
				return false, err
			}
			for _, ex := range e.log.Executions(rule, e.st.TS) {
				if value.NewInt(ex.Time).Equal(tv) && slices.EqualFunc(ex.Params, args, value.Value.Equal) {
					return true, nil
				}
			}
			return false, nil
		}
	case *ptl.Member:
		relt, elemts := c.term(x.Rel), c.terms(x.Elems)
		return func() (bool, error) {
			rel, err := relt()
			if err != nil {
				return false, err
			}
			if rel.IsNull() {
				return false, nil
			}
			if rel.Kind() != value.Relation {
				return false, fmt.Errorf("core: membership in %s", rel.Kind())
			}
			elems, err := evalTerms(elemts)
			if err != nil {
				return false, err
			}
			want := value.NewTuple(elems...)
			for _, row := range rel.Rows() {
				if value.NewTuple(row...).Equal(want) {
					return true, nil
				}
			}
			return false, nil
		}
	case *ptl.Not:
		g := c.cond(x.F)
		return func() (bool, error) {
			b, err := g()
			return !b, err
		}
	case *ptl.And:
		lf, rf := c.cond(x.L), c.cond(x.R)
		return func() (bool, error) {
			l, err := lf()
			if err != nil {
				return false, err
			}
			r, err := rf()
			if err != nil {
				return false, err
			}
			return l && r, nil
		}
	case *ptl.Or:
		lf, rf := c.cond(x.L), c.cond(x.R)
		return func() (bool, error) {
			l, err := lf()
			if err != nil {
				return false, err
			}
			r, err := rf()
			if err != nil {
				return false, err
			}
			return l || r, nil
		}
	case *ptl.Since:
		gf, hf, reg := c.cond(x.L), c.cond(x.R), c.since[x]
		return func() (bool, error) {
			fg, err := gf()
			if err != nil {
				return false, err
			}
			fh, err := hf()
			if err != nil {
				return false, err
			}
			*reg = fh || (fg && *reg)
			return *reg, nil
		}
	case *ptl.Lasttime:
		g, reg := c.cond(x.F), c.last[x]
		return func() (bool, error) {
			ret := *reg
			cur, err := g()
			if err != nil {
				return false, err
			}
			*reg = cur
			return ret, nil
		}
	case *ptl.Assign:
		q, slot := c.term(x.Q), len(c.scope)
		if slot == len(e.vars) {
			e.vars = append(e.vars, value.Value{})
		}
		c.scope = append(c.scope, x.Var)
		body := c.cond(x.Body)
		c.scope = c.scope[:slot]
		return func() (bool, error) {
			v, err := q()
			if err != nil {
				return false, err
			}
			e.vars[slot] = v
			return body()
		}
	default:
		return func() (bool, error) { return false, fmt.Errorf("core: fast evaluator: unsupported %T", f) }
	}
}

func (c *fastCompiler) term(t ptl.Term) fastTerm {
	e := c.e
	switch x := t.(type) {
	case *ptl.Const:
		v := x.V
		return func() (value.Value, error) { return v, nil }
	case *ptl.Var:
		for slot := len(c.scope) - 1; slot >= 0; slot-- {
			if c.scope[slot] == x.Name {
				return func() (value.Value, error) { return e.vars[slot], nil }
			}
		}
		return func() (value.Value, error) {
			return value.Value{}, fmt.Errorf("core: fast evaluator: unbound variable %s", x.Name)
		}
	case *ptl.Call:
		fn, argts, slot := x.Fn, c.terms(x.Args), e.qc.slotOf(x)
		call := func() (value.Value, error) {
			args, err := evalTerms(argts)
			if err != nil {
				return value.Value{}, err
			}
			return e.reg.Eval(fn, e.st, args)
		}
		if slot < 0 {
			return call
		}
		return func() (value.Value, error) {
			if v, hit := e.qc.get(slot); hit {
				return v, nil
			}
			v, err := call()
			if err == nil {
				e.qc.put(slot, v)
			}
			return v, err
		}
	case *ptl.Arith:
		op, lt, rt := x.Op, c.term(x.L), c.term(x.R)
		return func() (value.Value, error) {
			l, err := lt()
			if err != nil {
				return value.Value{}, err
			}
			r, err := rt()
			if err != nil {
				return value.Value{}, err
			}
			if l.IsNull() || r.IsNull() || divByZero(op, r) {
				return value.Value{}, nil
			}
			return value.Arith(op, l, r)
		}
	case *ptl.Neg:
		xt := c.term(x.X)
		return func() (value.Value, error) {
			v, err := xt()
			if err != nil || v.IsNull() {
				return value.Value{}, err
			}
			return value.Arith(value.Sub, value.NewInt(0), v)
		}
	default:
		return func() (value.Value, error) {
			return value.Value{}, fmt.Errorf("core: fast evaluator: unsupported term %T", t)
		}
	}
}

// Mark implements ConditionEvaluator: a copy of a few booleans, no
// allocation.
func (e *FastEvaluator) Mark() {
	copy(e.undo, e.regs)
	e.undoSteps = e.steps
}

// Rollback implements ConditionEvaluator.
func (e *FastEvaluator) Rollback() {
	copy(e.regs, e.undo)
	e.steps = e.undoSteps
	e.qc.reset()
}

// StepResult adapts Step to the general evaluator's Result shape, so the
// engine can use either implementation behind one interface.
func (e *FastEvaluator) StepResult(st history.SystemState) (Result, error) {
	return e.StepResultHinted(st, false)
}

// StepResultHinted implements HintedEvaluator.
func (e *FastEvaluator) StepResultHinted(st history.SystemState, dbUnchanged bool) (Result, error) {
	ok, err := e.stepHinted(st, dbUnchanged)
	if err != nil {
		return Result{}, err
	}
	if ok {
		return Result{Fired: true, Bindings: []Binding{{}}}, nil
	}
	return Result{}, nil
}

// ConditionEvaluator is the common interface of the general and fast
// incremental evaluators; the engine selects the implementation per rule.
//
// Mark and Rollback make one step tentative — how the engine puts a
// constraint to a commit attempt (Section 8: an abort leaves no trace in
// the temporal component). Mark records what the next step overwrites (the
// F_{g since h,i-1} and F_{g,i-1} registers, the aggregate machines, the
// step counter) in scratch the evaluator owns. Rollback, at most once per
// Mark and whether or not the step failed half-way, puts it back and empties
// the query cache, which may describe the discarded state. A step that is
// kept needs no further call.
type ConditionEvaluator interface {
	StepResult(st history.SystemState) (Result, error)
	Mark()
	Rollback()
}

// StepResult adapts the general evaluator to ConditionEvaluator.
func (e *Evaluator) StepResult(st history.SystemState) (Result, error) {
	return e.Step(st)
}

// StepResultHinted implements HintedEvaluator.
func (e *Evaluator) StepResultHinted(st history.SystemState, dbUnchanged bool) (Result, error) {
	return e.stepHinted(st, dbUnchanged)
}

// CompileAuto builds the best evaluator for the condition: the boolean
// fast path when the condition is in the decomposable subclass (and free
// of aggregates), the general constraint-graph evaluator otherwise.
func CompileAuto(info *ptl.Info, reg *query.Registry, log ptl.ExecLog) (ConditionEvaluator, error) {
	if fast, err := NewFast(info, reg, log); err == nil {
		return fast, nil
	}
	return New(info, reg, log)
}
