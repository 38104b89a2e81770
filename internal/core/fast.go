package core

import (
	"fmt"

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

	// regs holds every register, the since occurrences then the lasttime
	// ones in temporalOccurrences order (the encoded order); sinceReg and
	// lastReg point into it. undo is Mark's copy of regs and steps.
	regs      []bool
	sinceReg  map[*ptl.Since]*bool
	lastReg   map[*ptl.Lasttime]*bool
	steps     int
	undo      []bool
	undoSteps int
	st        history.SystemState

	// Query cache, valid while the database is unchanged (qcache.go);
	// cacheable is immutable after NewFast.
	qcache    map[*ptl.Call]value.Value
	cacheable map[*ptl.Call]bool
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
		info:      info,
		reg:       reg,
		log:       log,
		regs:      both[:n:n],
		undo:      both[n:],
		sinceReg:  make(map[*ptl.Since]*bool, len(sinces)),
		lastReg:   make(map[*ptl.Lasttime]*bool, len(lasts)),
		cacheable: cacheableCalls(info.Normalized, reg),
	}
	for i, x := range sinces {
		e.sinceReg[x] = &e.regs[i]
	}
	for i, x := range lasts {
		e.lastReg[x] = &e.regs[len(sinces)+i]
	}
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
		clear(e.qcache)
	}
	e.st = st
	fired, err := e.eval(e.info.Normalized, nil)
	if err != nil {
		return false, err
	}
	e.steps++
	return fired, nil
}

type fastEnv struct {
	name string
	v    value.Value
	next *fastEnv
}

func (env *fastEnv) lookup(name string) (value.Value, bool) {
	for e := env; e != nil; e = e.next {
		if e.name == name {
			return e.v, true
		}
	}
	return value.Value{}, false
}

func (e *FastEvaluator) eval(f ptl.Formula, env *fastEnv) (bool, error) {
	switch x := f.(type) {
	case *ptl.BoolConst:
		return x.V, nil
	case *ptl.Cmp:
		l, err := e.term(x.L, env)
		if err != nil {
			return false, err
		}
		r, err := e.term(x.R, env)
		if err != nil {
			return false, err
		}
		if l.IsNull() || r.IsNull() {
			return false, nil
		}
		return value.Cmp(x.Op, l, r)
	case *ptl.EventAtom:
		args := make([]value.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := e.term(a, env)
			if err != nil {
				return false, err
			}
			args[i] = v
		}
		for _, ev := range e.st.Events.ByName(x.Name) {
			if len(ev.Args) != len(args) {
				continue
			}
			match := true
			for i := range args {
				if !ev.Args[i].Equal(args[i]) {
					match = false
					break
				}
			}
			if match {
				return true, nil
			}
		}
		return false, nil
	case *ptl.Executed:
		args := make([]value.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := e.term(a, env)
			if err != nil {
				return false, err
			}
			args[i] = v
		}
		tv, err := e.term(x.TimeArg, env)
		if err != nil {
			return false, err
		}
		for _, ex := range e.log.Executions(x.Rule, e.st.TS) {
			if !value.NewInt(ex.Time).Equal(tv) || len(ex.Params) != len(args) {
				continue
			}
			match := true
			for i := range args {
				if !ex.Params[i].Equal(args[i]) {
					match = false
					break
				}
			}
			if match {
				return true, nil
			}
		}
		return false, nil
	case *ptl.Member:
		rel, err := e.term(x.Rel, env)
		if err != nil {
			return false, err
		}
		if rel.IsNull() {
			return false, nil
		}
		if rel.Kind() != value.Relation {
			return false, fmt.Errorf("core: membership in %s", rel.Kind())
		}
		elems := make([]value.Value, len(x.Elems))
		for i, el := range x.Elems {
			v, err := e.term(el, env)
			if err != nil {
				return false, err
			}
			elems[i] = v
		}
		want := value.NewTuple(elems...)
		for _, row := range rel.Rows() {
			if value.NewTuple(row...).Equal(want) {
				return true, nil
			}
		}
		return false, nil
	case *ptl.Not:
		b, err := e.eval(x.F, env)
		return !b, err
	case *ptl.And:
		l, err := e.eval(x.L, env)
		if err != nil {
			return false, err
		}
		r, err := e.eval(x.R, env)
		if err != nil {
			return false, err
		}
		return l && r, nil
	case *ptl.Or:
		l, err := e.eval(x.L, env)
		if err != nil {
			return false, err
		}
		r, err := e.eval(x.R, env)
		if err != nil {
			return false, err
		}
		return l || r, nil
	case *ptl.Since:
		fg, err := e.eval(x.L, env)
		if err != nil {
			return false, err
		}
		fh, err := e.eval(x.R, env)
		if err != nil {
			return false, err
		}
		reg := e.sinceReg[x]
		cur := fh || (fg && *reg)
		*reg = cur
		return cur, nil
	case *ptl.Lasttime:
		reg := e.lastReg[x]
		ret := *reg
		cur, err := e.eval(x.F, env)
		if err != nil {
			return false, err
		}
		*reg = cur
		return ret, nil
	case *ptl.Assign:
		v, err := e.term(x.Q, env)
		if err != nil {
			return false, err
		}
		return e.eval(x.Body, &fastEnv{name: x.Var, v: v, next: env})
	default:
		return false, fmt.Errorf("core: fast evaluator: unsupported %T", f)
	}
}

func (e *FastEvaluator) term(t ptl.Term, env *fastEnv) (value.Value, error) {
	switch x := t.(type) {
	case *ptl.Const:
		return x.V, nil
	case *ptl.Var:
		v, ok := env.lookup(x.Name)
		if !ok {
			return value.Value{}, fmt.Errorf("core: fast evaluator: unbound variable %s", x.Name)
		}
		return v, nil
	case *ptl.Call:
		if e.cacheable[x] {
			if v, hit := e.qcache[x]; hit {
				return v, nil
			}
		}
		args := make([]value.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := e.term(a, env)
			if err != nil {
				return value.Value{}, err
			}
			args[i] = v
		}
		v, err := e.reg.Eval(x.Fn, e.st, args)
		if err != nil {
			return value.Value{}, err
		}
		if e.cacheable[x] {
			if e.qcache == nil {
				e.qcache = make(map[*ptl.Call]value.Value)
			}
			e.qcache[x] = v
		}
		return v, nil
	case *ptl.Arith:
		l, err := e.term(x.L, env)
		if err != nil {
			return value.Value{}, err
		}
		r, err := e.term(x.R, env)
		if err != nil {
			return value.Value{}, err
		}
		if l.IsNull() || r.IsNull() || divByZero(x.Op, r) {
			return value.Value{}, nil
		}
		return value.Arith(x.Op, l, r)
	case *ptl.Neg:
		v, err := e.term(x.X, env)
		if err != nil || v.IsNull() {
			return value.Value{}, err
		}
		return value.Arith(value.Sub, value.NewInt(0), v)
	default:
		return value.Value{}, fmt.Errorf("core: fast evaluator: unsupported term %T", t)
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
	clear(e.qcache)
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
