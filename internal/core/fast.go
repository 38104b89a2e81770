package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"ptlactive/internal/history"
	"ptlactive/internal/ptl"
	"ptlactive/internal/query"
	"ptlactive/internal/value"
)

// FastEvaluator is a specialized incremental evaluator for the subclass of
// PTL in which no value the history must remember crosses a temporal
// operator (ptl.FastShape): the *decomposable* conditions the paper's
// Sybase prototype implemented ([Deng 94]), and rule parameters under the
// same discipline. For a closed condition every F_{g,i} collapses to a
// truth value, so instead of constraint graphs the evaluator keeps exactly
// one boolean per temporal occurrence. It computes the same recurrences as
// Evaluator:
//
//	reg[g since h] = F_h(i) || (F_g(i) && reg[g since h])
//	reg[lasttime g] is read, then overwritten with F_g(i)
//
// A parameter that crosses no temporal operator is evaluated like an
// assigned variable, once per candidate value this state offers (its event
// arguments, executed records, relation rows and equalities), in the order
// the general evaluator enumerates; one of those atoms binds it, so no
// other value satisfies the condition. One parameter may cross temporal
// operators in = and ≠ atoms against constants: every value those atoms do
// not mention evolves alike, so the evaluator keeps a default register
// vector, and one vector per value the history mentioned until it returns
// to the default — §6.1.1's "free variables index a family of items",
// applied to the registers.
//
// A since whose h bounds the time or compares the state with a value
// captured outside it — every bounded operator desugars to that — runs on a
// metric register instead of a boolean (metric.go), and an aggregate over
// formulas of this class on its window machine behind fast evaluators.
//
// The ablation experiment (bench_test.go, BenchmarkAblationDecomposable)
// measures what the general constraint-graph machinery costs on
// conditions that do not need it.
type FastEvaluator struct {
	info *ptl.Info
	reg  *query.Registry
	log  ptl.ExecLog

	// regs holds every register, the nSince since occurrences then the
	// lasttime ones in temporalOccurrences order (the encoded order): the
	// default vector when there is a class parameter, whose classes step
	// through it. undo is Mark's copy of regs.
	regs   []bool
	nSince int
	undo   []bool
	st     history.SystemState

	// pure marks a closed condition whose step reads only its cached
	// queries, its registers and, through metric time bounds, the clock
	// (NewFast): no parameter, aggregate, event or execution atom, a cache
	// slot for every call but a capture of time. A step that rewrites a
	// boolean register sets moved. fixed records that the last full step of
	// a pure condition moved none, last its verdict, and until its metric
	// registers' earliest deadline (metricReg.step): a hinted step before it
	// gives the same registers, re-stamped, and verdict: fires replays it.
	pure, moved, fixed, last bool
	undoFixed, undoLast      bool
	until, undoUntil         int64

	// root is the normalized condition compiled once by NewFast (compile
	// below): closures over pointers into regs, slots of qc and slots of
	// vars, which holds each parameter's value, then the value each
	// enclosing assignment bound.
	root fastCond
	qc   queryCache
	vars []value.Value

	// metrics holds the registers of the since occurrences whose h holds a
	// ptl.Metric, in register order (metric.go); aggs the aggregate
	// machines, in the general evaluator's aggOrder: the window registers.
	metrics []*metricReg
	aggs    []*aggState

	*params // nil for a closed condition
}

// params is the part of a FastEvaluator a parameterised condition uses.
// The parameters are info.Free, in vars[:len(names)]; class indexes the one
// that crosses temporal operators, -1 if none.
type params struct {
	names []string
	class int
	// pre steps the temporal occurrences, inner ones first, into out; the
	// condition then only reads out, so it can be evaluated once per binding.
	pre []func() error
	out []bool
	// sources append this state's candidates to cands, keyed back to back
	// in keys; bounds[p] is where parameter p's start once they are sorted.
	sources []func() error
	cands   []cand
	keys    []byte
	bounds  []int
	// classes holds the values of the class parameter with a vector of
	// their own; order, sorted by key, is its domain at this step.
	// undoClasses and undoRegs are Mark's copy of classes.
	classes     map[string]*valueClass
	order       []*valueClass
	def         []bool
	undoClasses []*valueClass
	undoRegs    []bool
}

// cand is a candidate value v of parameter p, keyed by keys[k0:k1].
type cand struct {
	p      int
	v      value.Value
	k0, k1 int
}

// valueClass is a value of the class parameter with registers of its own.
type valueClass struct {
	v         value.Value
	key       string
	regs, out []bool
	mentioned bool
}

// NewFast compiles a checked condition into a fast evaluator. It returns
// an error when the condition is outside ptl.FastShape (evaluate those
// with New).
func NewFast(info *ptl.Info, reg *query.Registry, log ptl.ExecLog) (*FastEvaluator, error) {
	if info == nil {
		return nil, fmt.Errorf("core: nil condition info")
	}
	if log == nil {
		log = ptl.NoExecutions{}
	}
	class, metrics, ok := ptl.FastShape(info.Normalized, info.Free)
	if !ok {
		return nil, fmt.Errorf("core: condition is outside the fast evaluator's class; use the general evaluator")
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
		vars:   make([]value.Value, len(info.Free)),
	}
	var err error
	ptl.WalkTerms(info.Normalized, func(t ptl.Term) {
		if a, ok := t.(*ptl.Agg); ok && err == nil && !slices.ContainsFunc(e.aggs, func(s *aggState) bool { return s.agg == a }) {
			var s *aggState
			s, err = newAggState(a, func(f ptl.Formula) (aggMachine, error) { return CompileFast(f, reg, log) })
			e.aggs = append(e.aggs, s)
		}
	})
	if err != nil {
		return nil, err
	}
	if len(info.Free) > 0 {
		e.params = &params{names: info.Free, class: slices.Index(info.Free, class), out: make([]bool, n)}
		if e.class >= 0 {
			e.classes = map[string]*valueClass{}
		}
	}
	c := fastCompiler{e: e, since: make(map[*ptl.Since]int, len(sinces)), last: make(map[*ptl.Lasttime]int, len(lasts)),
		scope: slices.Clone(info.Free), metrics: metrics}
	for i, x := range sinces {
		c.since[x] = i
	}
	for i, x := range lasts {
		c.last[x] = len(sinces) + i
	}
	e.root = c.cond(info.Normalized)
	e.pure = e.params == nil && len(e.aggs) == 0 && !c.impure
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

// StateSize returns the number of register vectors kept — the default, and
// one per value of the class parameter that has its own — plus the samples
// the frontiers and the aggregate windows hold.
func (e *FastEvaluator) StateSize() int {
	n := 1
	if e.params != nil {
		n += len(e.classes)
	}
	for _, m := range e.metrics {
		for i := range m.q {
			n += len(m.q[i].live())
		}
	}
	for _, a := range e.aggs {
		samples, _ := a.live()
		n += len(samples)
	}
	return n
}

// Shape counts the registers by kind: the since and lasttime occurrences,
// the time bounds and frontiers among the since ones (metric.go), and the
// aggregate windows.
func (e *FastEvaluator) Shape() (since, lasttime, timestamp, frontier, window int) {
	for _, m := range e.metrics {
		if m.bound != 0 {
			timestamp++
		}
		if m.front != nil {
			frontier++
		}
	}
	return e.nSince, len(e.regs) - e.nSince, timestamp, frontier, len(e.aggs)
}

// Fixpoint reports whether a step hinted dbUnchanged at a time before until
// would replay the last verdict (fires), and that verdict.
func (e *FastEvaluator) Fixpoint() (fixed, last bool, until int64) { return e.fixed, e.last, e.until }

// Restamp re-stamps with ts the sample each metric register's fixed step
// entered: all a replay at ts, or a run of them ending at ts, does to the
// evaluator.
func (e *FastEvaluator) Restamp(ts int64) {
	for _, m := range e.metrics {
		if s := m.q[max(m.restamp-1, 0)].s; m.restamp > 0 {
			s[len(s)-1].t = ts
		}
	}
}

// Step feeds the next system state and reports whether the condition is
// satisfied at it (for some binding of its parameters).
func (e *FastEvaluator) Step(st history.SystemState) (bool, error) {
	if e.params != nil {
		res, err := e.stepParams(st, false)
		return res.Fired, err
	}
	return e.fires(st, false)
}

func (e *FastEvaluator) fires(st history.SystemState, dbUnchanged bool) (bool, error) {
	if dbUnchanged && e.fixed && st.TS < e.until {
		e.Restamp(st.TS)
		return e.last, nil
	}
	if !dbUnchanged {
		e.qc.reset()
	}
	for _, a := range e.aggs {
		if err := a.step(st, dbUnchanged); err != nil {
			return false, err
		}
	}
	e.st, e.moved, e.until = st, false, math.MaxInt64
	fired, err := e.root()
	e.st = history.SystemState{}
	if err != nil {
		e.fixed = false
		return false, err
	}
	e.fixed, e.last = e.pure && !e.moved, fired
	return fired, nil
}

// stepParams steps a parameterised condition: it gathers the candidates,
// advances the registers and evaluates the condition once per combination
// of candidates — the general evaluator's resolve, without its graph.
func (e *FastEvaluator) stepParams(st history.SystemState, dbUnchanged bool) (Result, error) {
	if !dbUnchanged {
		e.qc.reset()
	}
	e.st = st
	defer func() { e.st = history.SystemState{} }()
	e.cands, e.keys, e.bounds = e.cands[:0], e.keys[:0], e.bounds[:0]
	for _, src := range e.sources {
		if err := src(); err != nil {
			return Result{}, err
		}
	}
	key := func(c cand) []byte { return e.keys[c.k0:c.k1] }
	slices.SortStableFunc(e.cands, func(a, b cand) int { return cmp.Or(a.p-b.p, bytes.Compare(key(a), key(b))) })
	e.cands = slices.CompactFunc(e.cands, func(a, b cand) bool { return a.p == b.p && bytes.Equal(key(a), key(b)) })
	for p, i := 0, 0; p <= len(e.names); p++ {
		for i < len(e.cands) && e.cands[i].p < p {
			i++
		}
		e.bounds = append(e.bounds, i)
	}
	if err := e.stepRegisters(); err != nil {
		return Result{}, err
	}
	total := 1
	for p := range e.names {
		if total *= e.domain(p); total > enumerationLimit {
			return Result{}, fmt.Errorf("core: parameter enumeration exceeds %d combinations", enumerationLimit)
		}
	}
	if total == 0 {
		// No firing, but the condition's own errors surface, as the
		// general evaluator meets them building its graph.
		clear(e.vars[:len(e.names)])
		if _, err := e.root(); err != nil {
			return Result{}, err
		}
	}
	var res Result
	err := e.enumerate(0, &res)
	res.Fired = len(res.Bindings) > 0
	return res, err
}

// domain is the number of candidates of parameter p at this step.
func (e *FastEvaluator) domain(p int) int {
	if p == e.class {
		return len(e.order)
	}
	return e.bounds[p+1] - e.bounds[p]
}

// enumerate binds parameters p onwards to each combination of their
// candidates, the last varying fastest, and adds the satisfying ones to res.
func (e *FastEvaluator) enumerate(p int, res *Result) error {
	if p == len(e.names) {
		ok, err := e.root()
		if ok && err == nil {
			b := make(Binding, len(e.names))
			for i, name := range e.names {
				b[name] = e.vars[i]
			}
			res.Bindings = append(res.Bindings, b)
		}
		return err
	}
	for i := 0; i < e.domain(p); i++ {
		if p == e.class {
			e.vars[p] = e.order[i].v
			copy(e.out, e.order[i].out)
		} else {
			e.vars[p] = e.cands[e.bounds[p]+i].v
		}
		if err := e.enumerate(p+1, res); err != nil {
			return err
		}
	}
	return nil
}

// stepRegisters advances every register vector by the current state.
// Without a class parameter there is one. Otherwise each value this state
// mentions steps on its own vector (a copy of the default's if it had
// none); every other vector takes the no-mention transition, under NaN,
// which equals nothing; the default steps last; and a vector that ends
// equal to the default's is dropped. A class steps through regs, which
// holds the default between steps.
func (e *FastEvaluator) stepRegisters() error {
	if e.class < 0 {
		return e.runPre()
	}
	e.def = append(e.def[:0], e.regs...)
	for _, c := range e.cands[e.bounds[e.class]:e.bounds[e.class+1]] {
		cl := e.classes[string(e.keys[c.k0:c.k1])]
		if cl == nil {
			cl = e.newClass(c.v, string(e.keys[c.k0:c.k1]), e.def)
		}
		cl.mentioned = true
	}
	e.order = e.order[:0]
	for _, cl := range e.classes {
		e.order = append(e.order, cl)
	}
	slices.SortFunc(e.order, func(a, b *valueClass) int { return strings.Compare(a.key, b.key) })
	nan := value.NewFloat(math.NaN())
	for _, cl := range e.order {
		v := nan
		if cl.mentioned {
			v = cl.v
		}
		copy(e.regs, cl.regs)
		e.vars[e.class] = v
		err := e.runPre()
		copy(cl.regs, e.regs)
		copy(cl.out, e.out)
		if err != nil {
			copy(e.regs, e.def)
			return err
		}
	}
	copy(e.regs, e.def)
	e.vars[e.class] = nan
	if err := e.runPre(); err != nil {
		return err
	}
	for _, cl := range e.order {
		if cl.mentioned = false; slices.Equal(cl.regs, e.regs) {
			delete(e.classes, cl.key)
		}
	}
	return nil
}

// newClass enters value v of the class parameter with a copy of regs.
func (e *FastEvaluator) newClass(v value.Value, key string, regs []bool) *valueClass {
	cl := &valueClass{v: v, key: key, regs: slices.Clone(regs), out: make([]bool, len(regs))}
	e.classes[key] = cl
	return cl
}

func (e *FastEvaluator) runPre() error {
	for _, step := range e.pre {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
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
// sits in e.vars; and the since occurrences that run on metric registers
// (ptl.FastShape). A node that cannot be evaluated (an unbound variable, an
// unsupported node) is no compile error: its closure reports it when, and
// if, a step reaches it. impure records a node that reads the state past
// its cached queries: an event or execution atom, an uncached call but a
// capture of time, or a read of a variable named in clocks, captured so.
type fastCompiler struct {
	e       *FastEvaluator
	since   map[*ptl.Since]int
	last    map[*ptl.Lasttime]int
	scope   []string
	clocks  []string
	metrics []ptl.Metric
	impure  bool
}

func (c *fastCompiler) terms(ts []ptl.Term) []fastTerm {
	out := make([]fastTerm, len(ts))
	for i, t := range ts {
		out[i] = c.term(t)
	}
	return out
}

// evalTerms evaluates ts in order into out, which it returns.
func evalTerms(out []value.Value, ts []fastTerm) ([]value.Value, error) {
	for i, t := range ts {
		v, err := t()
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// matches reports whether a recorded argument list equals args as the
// general evaluator's equality atoms decide it: a Null matches nothing.
func matches(have, args []value.Value) bool {
	if len(have) != len(args) {
		return false
	}
	for i, a := range args {
		if !value.Cmp(value.EQ, a, have[i]) {
			return false
		}
	}
	return true
}

func (c *fastCompiler) cond(f ptl.Formula) fastCond {
	e := c.e
	switch x := f.(type) {
	case *ptl.BoolConst:
		v := x.V
		return func() (bool, error) { return v, nil }
	case *ptl.Cmp:
		op, lt, rt := x.Op, c.term(x.L), c.term(x.R)
		for _, s := range []struct {
			v, other ptl.Term
			t        fastTerm
		}{{x.L, x.R, rt}, {x.R, x.L, lt}} {
			if v, ok := s.v.(*ptl.Var); ok && e.params != nil && ptl.Ground(s.other) && (op == value.EQ || op == value.NE && slices.Index(e.names, v.Name) == e.class) {
				c.bind([]ptl.Term{v}, func(emit func([]value.Value, value.Value)) error {
					w, err := s.t()
					if err == nil {
						emit(nil, w)
					}
					return err
				})
			}
		}
		return func() (bool, error) {
			l, err := lt()
			if err != nil {
				return false, err
			}
			r, err := rt()
			return value.Cmp(op, l, r), err
		}
	case *ptl.EventAtom:
		c.impure = true
		name, argts := x.Name, c.terms(x.Args)
		buf := make([]value.Value, len(argts))
		c.bind(x.Args, func(emit func([]value.Value, value.Value)) error {
			for _, ev := range e.st.Events.Events() {
				if ev.Name == name && len(ev.Args) == len(buf) {
					emit(ev.Args, value.Value{})
				}
			}
			return nil
		})
		return func() (bool, error) {
			args, err := evalTerms(buf, argts)
			if err != nil {
				return false, err
			}
			for _, ev := range e.st.Events.Events() {
				if ev.Name == name && matches(ev.Args, args) {
					return true, nil
				}
			}
			return false, nil
		}
	case *ptl.Executed:
		c.impure = true
		rule, argts, timet := x.Rule, c.terms(x.Args), c.term(x.TimeArg)
		buf := make([]value.Value, len(argts))
		c.bind(append(slices.Clip(x.Args), x.TimeArg), func(emit func([]value.Value, value.Value)) error {
			for _, ex := range e.log.Executions(rule, e.st.TS) {
				if len(ex.Params) == len(buf) {
					emit(ex.Params, value.NewInt(ex.Time))
				}
			}
			return nil
		})
		return func() (bool, error) {
			args, err := evalTerms(buf, argts)
			if err != nil {
				return false, err
			}
			tv, err := timet()
			if err != nil {
				return false, err
			}
			for _, ex := range e.log.Executions(rule, e.st.TS) {
				if value.Cmp(value.EQ, value.NewInt(ex.Time), tv) && matches(ex.Params, args) {
					return true, nil
				}
			}
			return false, nil
		}
	case *ptl.Member:
		relt, elemts := c.term(x.Rel), c.terms(x.Elems)
		buf := make([]value.Value, len(elemts))
		c.bind(x.Elems, func(emit func([]value.Value, value.Value)) error {
			rel, err := relt()
			if err != nil || rel.Kind() != value.Relation {
				return err
			}
			for _, row := range rel.Rows() {
				if len(row) == len(buf) {
					emit(row, value.Value{})
				}
			}
			return nil
		})
		return func() (bool, error) {
			rel, err := relt()
			if err != nil || rel.Kind() != value.Relation { // Null or a scalar holds no row
				return false, err
			}
			elems, err := evalTerms(buf, elemts)
			if err != nil {
				return false, err
			}
			for _, row := range rel.Rows() {
				if matches(row, elems) {
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
		if i := slices.IndexFunc(c.metrics, func(m ptl.Metric) bool { return m.Since == x }); i >= 0 {
			return c.metric(x, c.metrics[i])
		}
		gf, hf, k := c.cond(x.L), c.cond(x.R), c.since[x]
		reg := &e.regs[k]
		return c.occurrence(k, func() (bool, error) {
			fg, err := gf()
			if err != nil {
				return false, err
			}
			fh, err := hf()
			if err != nil {
				return false, err
			}
			next := fh || (fg && *reg)
			e.moved = e.moved || next != *reg
			*reg = next
			return next, nil
		})
	case *ptl.Lasttime:
		g, k := c.cond(x.F), c.last[x]
		reg := &e.regs[k]
		return c.occurrence(k, func() (bool, error) {
			ret := *reg
			cur, err := g()
			if err != nil {
				return false, err
			}
			e.moved = e.moved || cur != ret
			*reg = cur
			return ret, nil
		})
	case *ptl.Assign:
		impure := c.impure
		q, slot := c.term(x.Q), len(c.scope)
		if slot == len(e.vars) {
			e.vars = append(e.vars, value.Value{})
		}
		if call, ok := x.Q.(*ptl.Call); ok && call.Fn == "time" { // metric bounds read the timestamp themselves
			c.impure, c.clocks = impure, append(c.clocks, x.Var)
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

// occurrence is the closure of temporal occurrence k, given the one that
// steps its register and returns its value. In a parameterised condition
// the occurrences step in pre, inner ones first, before the condition is
// evaluated per binding, and its closure only reads the value stepped.
func (c *fastCompiler) occurrence(k int, step fastCond) fastCond {
	e := c.e
	if e.params == nil {
		return step
	}
	out := &e.out[k]
	e.pre = append(e.pre, func() (err error) {
		*out, err = step()
		return err
	})
	return func() (bool, error) { return *out, nil }
}

// bind gives the parameters among an atom's arguments ts a source of
// candidates: rows calls emit on each argument list the state records for
// the atom (extra standing for the one past its end, an execution's time),
// and emit offers the values at the parameters' positions. They cover the
// constants the general evaluator's equalities would hold
// (collectCandidates), and may be more: the condition decides each.
func (c *fastCompiler) bind(ts []ptl.Term, rows func(emit func(row []value.Value, extra value.Value)) error) {
	e := c.e
	if e.params == nil {
		return
	}
	var pos, par []int
	for i, t := range ts {
		if v, ok := t.(*ptl.Var); ok && slices.Contains(e.names, v.Name) {
			pos, par = append(pos, i), append(par, slices.Index(e.names, v.Name))
		}
	}
	if pos == nil {
		return
	}
	emit := func(row []value.Value, extra value.Value) {
		for j, i := range pos {
			v := extra
			if i < len(row) {
				v = row[i]
			}
			e.addCand(par[j], v)
		}
	}
	e.sources = append(e.sources, func() error { return rows(emit) })
}

// addCand appends candidate v of parameter p, keying it into keys. A Null
// is no candidate: it satisfies no equality.
func (e *FastEvaluator) addCand(p int, v value.Value) {
	if v.IsNull() {
		return
	}
	k0 := len(e.keys)
	e.keys = v.AppendKey(e.keys)
	e.cands = append(e.cands, cand{p: p, v: v, k0: k0, k1: len(e.keys)})
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
				c.impure = c.impure || slices.Contains(c.clocks, x.Name)
				return func() (value.Value, error) { return e.vars[slot], nil }
			}
		}
		return func() (value.Value, error) {
			return value.Value{}, fmt.Errorf("core: fast evaluator: unbound variable %s", x.Name)
		}
	case *ptl.Call:
		fn, argts, slot := x.Fn, c.terms(x.Args), e.qc.slotOf(x)
		buf := make([]value.Value, len(argts))
		call := func() (value.Value, error) {
			args, err := evalTerms(buf, argts)
			if err != nil {
				return value.Value{}, err
			}
			return e.reg.Eval(fn, e.st, args)
		}
		if slot < 0 {
			c.impure = true
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
			return value.Arith(op, l, r), err
		}
	case *ptl.Agg:
		a := e.aggs[slices.IndexFunc(e.aggs, func(a *aggState) bool { return a.agg == x })]
		return func() (value.Value, error) { return a.value(), nil }
	case *ptl.Neg:
		xt := c.term(x.X)
		return func() (value.Value, error) {
			v, err := xt()
			return value.Arith(value.Sub, value.NewInt(0), v), err
		}
	default:
		return func() (value.Value, error) {
			return value.Value{}, fmt.Errorf("core: fast evaluator: unsupported term %T", t)
		}
	}
}

// Mark implements ConditionEvaluator: a copy of a few booleans, of each
// value class's, and of the frontiers' and windows' samples.
func (e *FastEvaluator) Mark() {
	copy(e.undo, e.regs)
	e.undoFixed, e.undoLast, e.undoUntil = e.fixed, e.last, e.until
	for _, m := range e.metrics {
		m.mark()
	}
	for _, a := range e.aggs {
		a.mark()
	}
	if e.params != nil && e.classes != nil {
		e.undoClasses, e.undoRegs = e.undoClasses[:0], e.undoRegs[:0]
		for _, cl := range e.classes {
			e.undoClasses, e.undoRegs = append(e.undoClasses, cl), append(e.undoRegs, cl.regs...)
		}
	}
}

// Rollback implements ConditionEvaluator.
func (e *FastEvaluator) Rollback() {
	copy(e.regs, e.undo)
	e.fixed, e.last, e.until = e.undoFixed, e.undoLast, e.undoUntil
	e.qc.reset()
	for _, m := range e.metrics {
		m.rollback()
	}
	for _, a := range e.aggs {
		a.rollback()
	}
	if e.params != nil && e.classes != nil {
		clear(e.classes)
		for i, cl := range e.undoClasses {
			copy(cl.regs, e.undoRegs[i*len(e.regs):])
			cl.mentioned, e.classes[cl.key] = false, cl
		}
	}
}

// StepResult adapts Step to the general evaluator's Result shape, so the
// engine can use either implementation behind one interface.
func (e *FastEvaluator) StepResult(st history.SystemState) (Result, error) {
	return e.StepResultHinted(st, false)
}

// StepResultHinted implements HintedEvaluator.
func (e *FastEvaluator) StepResultHinted(st history.SystemState, dbUnchanged bool) (Result, error) {
	if e.params != nil {
		return e.stepParams(st, dbUnchanged)
	}
	ok, err := e.fires(st, dbUnchanged)
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
// fixpoint) in scratch the evaluator owns. Rollback, at most once per
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

func (e *Evaluator) fires(st history.SystemState, dbUnchanged bool) (bool, error) {
	res, err := e.stepHinted(st, dbUnchanged)
	return res.Fired, err
}

// CompileAuto builds the best evaluator for the condition, chosen from the
// condition alone: the register fast path when it is in ptl.FastShape's
// class — closed decomposable conditions, parameters bound by an atom that
// offers their values and kept off temporal operators or used there only
// in = and ≠ atoms, bounded operators and captured values on metric
// registers, and aggregates over such formulas — and the general
// constraint-graph evaluator otherwise.
func CompileAuto(info *ptl.Info, reg *query.Registry, log ptl.ExecLog) (ConditionEvaluator, error) {
	if fast, err := NewFast(info, reg, log); err == nil {
		return fast, nil
	}
	return New(info, reg, log)
}
