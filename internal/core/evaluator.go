package core

import (
	"fmt"
	"math"
	"sort"

	"ptlactive/internal/history"
	"ptlactive/internal/ptl"
	"ptlactive/internal/query"
	"ptlactive/internal/value"
)

// enumerationLimit caps the number of candidate parameter combinations
// tried when a rule has free variables.
const enumerationLimit = 100000

// Binding is one satisfying assignment of a condition's free variables;
// the values pass to the rule's action part.
type Binding map[string]value.Value

// Result is the outcome of feeding one system state to the evaluator.
type Result struct {
	// Fired reports whether the condition is satisfied at this state.
	Fired bool
	// Bindings holds one entry per satisfying parameter assignment. For a
	// closed condition it contains a single empty binding when fired.
	Bindings []Binding
}

// Evaluator incrementally evaluates one PTL condition over an evolving
// system history, implementing the Section-5 algorithm. Feed each new
// system state to Step; the evaluator never looks at older states again —
// per-update cost is independent of history length (Theorem 1 is verified
// against the naive whole-history semantics by the package tests).
//
// An Evaluator is not safe for concurrent use.
type Evaluator struct {
	info *ptl.Info
	reg  *query.Registry
	log  ptl.ExecLog

	// Stored constraint formulas F_{g,i-1} per temporal occurrence.
	sincePrev map[*ptl.Since]*cnode
	lastPrev  map[*ptl.Lasttime]*cnode
	// Aggregate state machines per aggregate occurrence. aggOrder fixes the
	// iteration order to the formula-walk order so per-step effects (and
	// error reporting when several machines fail) are deterministic; the
	// slice is immutable after New and shared by clones.
	aggs     map[*ptl.Agg]*aggState
	aggOrder []*ptl.Agg

	// optimize enables the time-bound pruning of Section 5 and subsumption;
	// disabled only by the ablation that measures their effect (E2).
	optimize bool

	// undo is Mark's record (clone.go); nil until the first Mark.
	undo *evalUndo
	// current state during a Step call.
	st history.SystemState
	// tab interns every term and node this evaluator builds and holds its
	// step scratch (intern.go); nil until the first step.
	tab *interner
	// qc holds results of cacheable query calls, valid while the database
	// is unchanged (see qcache.go).
	qc queryCache
}

// Option configures an Evaluator.
type Option func(*Evaluator)

// WithoutStateBounding disables the time-bound optimization and the
// subsumption of same-shape disjuncts; used by the E2 ablation.
func WithoutStateBounding() Option {
	return func(e *Evaluator) { e.optimize = false }
}

// New compiles a checked condition into an incremental evaluator. A nil
// log means the executed predicate sees no executions.
func New(info *ptl.Info, reg *query.Registry, log ptl.ExecLog, opts ...Option) (*Evaluator, error) {
	if info == nil {
		return nil, fmt.Errorf("core: nil condition info")
	}
	if log == nil {
		log = ptl.NoExecutions{}
	}
	e := &Evaluator{
		info:      info,
		reg:       reg,
		log:       log,
		sincePrev: make(map[*ptl.Since]*cnode),
		lastPrev:  make(map[*ptl.Lasttime]*cnode),
		aggs:      make(map[*ptl.Agg]*aggState),
		optimize:  true,
	}
	for _, o := range opts {
		o(e)
	}
	// Pre-register temporal occurrences and aggregate machines so Step
	// never allocates map entries for fresh pointers.
	var regErr error
	walkRegisters(info.Normalized, func(g ptl.Formula) {
		switch x := g.(type) {
		case *ptl.Since:
			e.sincePrev[x] = nodeFalse
		case *ptl.Lasttime:
			e.lastPrev[x] = nodeFalse
		}
	})
	ptl.WalkTerms(info.Normalized, func(t ptl.Term) {
		if a, ok := t.(*ptl.Agg); ok && regErr == nil {
			if _, dup := e.aggs[a]; dup {
				return
			}
			st, err := newAggState(a, func(f ptl.Formula) (aggMachine, error) { return Compile(f, reg, log, opts...) })
			if err != nil {
				regErr = err
				return
			}
			e.aggs[a] = st
			e.aggOrder = append(e.aggOrder, a)
		}
	})
	if regErr != nil {
		return nil, regErr
	}
	e.qc = newQueryCache(info.Normalized, reg)
	return e, nil
}

// Compile is a convenience that checks a formula and builds its evaluator.
func Compile(f ptl.Formula, reg *query.Registry, log ptl.ExecLog, opts ...Option) (*Evaluator, error) {
	info, err := ptl.Check(f, reg)
	if err != nil {
		return nil, err
	}
	return New(info, reg, log, opts...)
}

// Info returns the compiled condition's static information.
func (e *Evaluator) Info() *ptl.Info { return e.info }

// StateSize returns the number of distinct constraint nodes currently
// retained across all temporal subformulas — the metric the paper's
// optimization discussion is about, benched in E2 and E7.
func (e *Evaluator) StateSize() int { return e.nodes(make(map[*cnode]struct{})) }

// nodes counts the nodes e retains that are not in seen.
func (e *Evaluator) nodes(seen map[*cnode]struct{}) int {
	total := 0
	for _, n := range e.sincePrev {
		total += nodeSize(n, seen)
	}
	for _, n := range e.lastPrev {
		total += nodeSize(n, seen)
	}
	for _, a := range e.aggs {
		total += a.stateSize(seen)
	}
	return total
}

// Registers returns the number of temporal storage slots the compiled
// condition keeps (one per since/lasttime occurrence) — the static
// component of the evaluator's space, linear in formula size. StateSize
// reports the dynamic constraint-graph nodes those slots reference.
func (e *Evaluator) Registers() int {
	total := len(e.sincePrev) + len(e.lastPrev)
	for _, a := range e.aggs {
		if a.start != nil {
			total += a.start.Registers()
		}
		total += a.samp.Registers()
	}
	return total
}

// Step feeds the next system state (the result of the i-th update) to the
// evaluator and reports whether the condition fires at that state,
// together with the satisfying parameter bindings.
func (e *Evaluator) Step(st history.SystemState) (Result, error) {
	return e.stepHinted(st, false)
}

// stepHinted is Step with the database-unchanged hint of HintedEvaluator:
// when dbUnchanged is false any cached query results are discarded first.
func (e *Evaluator) stepHinted(st history.SystemState, dbUnchanged bool) (Result, error) {
	if !dbUnchanged {
		e.qc.reset()
	}
	// Aggregate machines advance first: the aggregate value at state i
	// includes state i itself as a potential start/sample point.
	for _, a := range e.aggOrder {
		if err := e.aggs[a].step(st, dbUnchanged); err != nil {
			return Result{}, err
		}
	}
	e.st = st
	defer func() { e.st = history.SystemState{} }()
	if e.tab == nil || len(e.tab.terms)+len(e.tab.nodes) > e.tab.limit {
		e.reseed() // between steps, when only the registers hold nodes
	}
	clear(e.tab.pruneMemo)
	if a, ok := e.info.Normalized.(*ptl.Assign); ok && len(e.info.Free) == 0 {
		return e.fire(a)
	}
	node, err := e.build(e.info.Normalized)
	if err != nil {
		return Result{}, err
	}
	return e.resolve(node)
}

// fire steps a closed condition that opens with assignments [v1 <- q1] ...
// [vk <- qk] g. Nothing stores what flows out of the chain, so instead of
// substituting into g's graph, rebuilding every retained clause, it
// evaluates the graph under {v1: q1, ..., vk: qk}: the substitution's
// verdict, as every atom is false where undefined under both.
func (e *Evaluator) fire(a *ptl.Assign) (Result, error) {
	in := e.tab
	clear(in.env)
	clear(in.evalMemo)
	var g ptl.Formula = a
	for a, ok := g.(*ptl.Assign); ok; a, ok = g.(*ptl.Assign) {
		qt, err := e.buildTerm(a.Q)
		if err != nil {
			return Result{}, err
		}
		if in.env[a.Var], err = qt.ground(); err != nil { // an inner assignment shadows an outer one
			return Result{}, err
		}
		g = a.Body
	}
	node, err := e.build(g)
	if err != nil {
		return Result{}, err
	}
	return e.resolve(nodeBool(evaluate(node, in.env, in.evalMemo)))
}

// resolve turns the final constraint formula into a firing decision.
func (e *Evaluator) resolve(node *cnode) (Result, error) {
	switch node.kind {
	case nkTrue:
		return Result{Fired: true, Bindings: []Binding{{}}}, nil
	case nkFalse:
		return Result{}, nil
	}
	free := e.info.Free
	if len(free) == 0 {
		// Closed condition but unresolved constraint: should be impossible
		// since every variable is either assigned (substituted) or free.
		return Result{}, fmt.Errorf("core: internal: closed condition left residual constraint %s", node)
	}
	// Active-domain enumeration: candidates come from equality atoms.
	cands := make(map[string]map[string]value.Value)
	collectCandidates(node, cands)
	domains := make([][]value.Value, len(free))
	total := 1
	for i, v := range free {
		m := cands[v]
		if len(m) == 0 {
			// No candidate for this parameter at this state: no firing.
			return Result{}, nil
		}
		dom := make([]value.Value, 0, len(m))
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			dom = append(dom, m[k])
		}
		domains[i] = dom
		total *= len(dom)
		if total > enumerationLimit {
			return Result{}, fmt.Errorf("core: parameter enumeration exceeds %d combinations", enumerationLimit)
		}
	}
	var res Result
	env := make(map[string]value.Value, len(free))
	var walk func(i int)
	walk = func(i int) {
		if i == len(free) {
			if evaluate(node, env, nil) {
				b := make(Binding, len(free))
				for k, v := range env {
					b[k] = v
				}
				res.Bindings = append(res.Bindings, b)
			}
			return
		}
		for _, v := range domains[i] {
			env[free[i]] = v
			walk(i + 1)
		}
		delete(env, free[i])
	}
	walk(0)
	res.Fired = len(res.Bindings) > 0
	return res, nil
}

// build computes F_{g,i} for the subformula g at the current state,
// updating stored temporal state along the way.
func (e *Evaluator) build(f ptl.Formula) (*cnode, error) {
	switch x := f.(type) {
	case *ptl.BoolConst:
		return nodeBool(x.V), nil
	case *ptl.Cmp:
		l, err := e.buildTerm(x.L)
		if err != nil {
			return nil, err
		}
		r, err := e.buildTerm(x.R)
		if err != nil {
			return nil, err
		}
		return e.tab.mkAtom(x.Op, l, r), nil
	case *ptl.EventAtom:
		return e.buildEvent(x)
	case *ptl.Executed:
		return e.buildExecuted(x)
	case *ptl.Member:
		elems := make([]*cterm, len(x.Elems))
		for i, el := range x.Elems {
			t, err := e.buildTerm(el)
			if err != nil {
				return nil, err
			}
			elems[i] = t
		}
		rel, err := e.buildTerm(x.Rel)
		if err != nil {
			return nil, err
		}
		return e.tab.mkMember(elems, rel)
	case *ptl.Not:
		n, err := e.build(x.F)
		if err != nil {
			return nil, err
		}
		return e.tab.mkNot(n), nil
	case *ptl.And:
		l, err := e.build(x.L)
		if err != nil {
			return nil, err
		}
		if l == nodeFalse {
			// Still must advance temporal state on the right side; the
			// result is discarded because the conjunction is already false.
			if _, err := e.build(x.R); err != nil {
				return nil, err
			}
			return nodeFalse, nil
		}
		r, err := e.build(x.R)
		if err != nil {
			return nil, err
		}
		return e.tab.mkAnd(l, r), nil
	case *ptl.Or:
		l, err := e.build(x.L)
		if err != nil {
			return nil, err
		}
		r, err := e.build(x.R)
		if err != nil {
			return nil, err
		}
		return e.tab.mkOr(l, r), nil
	case *ptl.Since:
		// F_{g since h, i} = F_{h,i} OR (F_{g,i} AND F_{g since h, i-1}).
		fg, err := e.build(x.L)
		if err != nil {
			return nil, err
		}
		fh, err := e.build(x.R)
		if err != nil {
			return nil, err
		}
		prev := e.sincePrev[x]
		if e.optimize {
			prev = e.tab.timeBoundPrune(prev, e.st.TS, e.info.TimeVars, e.tab.pruneMemo)
		}
		cur := e.tab.mkOr(fh, e.tab.mkAnd(fg, prev))
		e.sincePrev[x] = cur
		return cur, nil
	case *ptl.Lasttime:
		// F_{lasttime g, i} = F_{g, i-1}; store F_{g,i} for the next state.
		ret := e.lastPrev[x]
		cur, err := e.build(x.F)
		if err != nil {
			return nil, err
		}
		e.lastPrev[x] = cur
		if e.optimize {
			ret = e.tab.timeBoundPrune(ret, e.st.TS, e.info.TimeVars, e.tab.pruneMemo)
		}
		return ret, nil
	case *ptl.Assign:
		// F_{[x <- q] g, i} = F_{g,i}[x := value_i(q)]. The stored state
		// beneath keeps x symbolic; only the formula flowing upward is
		// substituted (see the worked IBM example in Section 5).
		qt, err := e.buildTerm(x.Q)
		if err != nil {
			return nil, err
		}
		qv, err := qt.ground()
		if err != nil {
			return nil, err
		}
		body, err := e.build(x.Body)
		if err != nil {
			return nil, err
		}
		return e.tab.subst(body, x.Var, qv)
	default:
		return nil, fmt.Errorf("core: unsupported formula %T (did it pass ptl.Check?)", f)
	}
}

// buildTerm lowers a PTL term to a constraint term, evaluating queries and
// aggregates against the current state.
func (e *Evaluator) buildTerm(t ptl.Term) (*cterm, error) {
	switch x := t.(type) {
	case *ptl.Const:
		return e.tab.constTerm(x.V), nil
	case *ptl.Var:
		return e.tab.varTerm(x.Name), nil
	case *ptl.Call:
		slot := e.qc.slotOf(x)
		if slot >= 0 {
			if v, hit := e.qc.get(slot); hit {
				return e.tab.constTerm(v), nil
			}
		}
		args := make([]value.Value, len(x.Args))
		for i, a := range x.Args {
			at, err := e.buildTerm(a)
			if err != nil {
				return nil, err
			}
			if args[i], err = at.ground(); err != nil {
				return nil, err
			}
		}
		v, err := e.reg.Eval(x.Fn, e.st, args)
		if err != nil {
			return nil, err
		}
		if slot >= 0 {
			e.qc.put(slot, v)
		}
		return e.tab.constTerm(v), nil
	case *ptl.Arith:
		l, err := e.buildTerm(x.L)
		if err != nil {
			return nil, err
		}
		r, err := e.buildTerm(x.R)
		if err != nil {
			return nil, err
		}
		return e.tab.arithTerm(x.Op, l, r), nil
	case *ptl.Neg:
		inner, err := e.buildTerm(x.X)
		if err != nil {
			return nil, err
		}
		return e.tab.arithTerm(value.Sub, e.tab.constTerm(value.NewInt(0)), inner), nil
	case *ptl.Agg:
		a, ok := e.aggs[x]
		if !ok {
			return nil, fmt.Errorf("core: internal: unregistered aggregate %s", x)
		}
		return e.tab.constTerm(a.value()), nil
	default:
		return nil, fmt.Errorf("core: unsupported term %T", t)
	}
}

// buildEvent folds an event atom against the current state's event set:
// the disjunction over matching occurrences of per-argument equality
// constraints.
func (e *Evaluator) buildEvent(x *ptl.EventAtom) (*cnode, error) {
	args := make([]*cterm, len(x.Args))
	for i, a := range x.Args {
		t, err := e.buildTerm(a)
		if err != nil {
			return nil, err
		}
		args[i] = t
	}
	var disjuncts []*cnode
	for _, ev := range e.st.Events.Events() {
		if ev.Name != x.Name || len(ev.Args) != len(args) {
			continue
		}
		conj := make([]*cnode, len(args))
		ok := true
		for k := range args {
			atom := e.tab.mkAtom(value.EQ, args[k], e.tab.constTerm(ev.Args[k]))
			if atom == nodeFalse {
				ok = false
				break
			}
			conj[k] = atom
		}
		if ok {
			disjuncts = append(disjuncts, e.tab.mkAnd(conj...))
		}
	}
	return e.tab.mkOr(disjuncts...), nil
}

// buildExecuted folds the executed predicate against the execution log:
// occurrences strictly before the current time, each yielding equality
// constraints on the parameter terms and the time term.
func (e *Evaluator) buildExecuted(x *ptl.Executed) (*cnode, error) {
	args := make([]*cterm, len(x.Args))
	for i, a := range x.Args {
		t, err := e.buildTerm(a)
		if err != nil {
			return nil, err
		}
		args[i] = t
	}
	tArg, err := e.buildTerm(x.TimeArg)
	if err != nil {
		return nil, err
	}
	var disjuncts []*cnode
	for _, ex := range e.log.Executions(x.Rule, e.st.TS) {
		if len(ex.Params) != len(args) {
			continue
		}
		conj := make([]*cnode, 0, len(args)+1)
		ok := true
		for k := range args {
			atom := e.tab.mkAtom(value.EQ, args[k], e.tab.constTerm(ex.Params[k]))
			if atom == nodeFalse {
				ok = false
				break
			}
			conj = append(conj, atom)
		}
		if !ok {
			continue
		}
		atom := e.tab.mkAtom(value.EQ, tArg, e.tab.constTerm(value.NewInt(ex.Time)))
		if atom == nodeFalse {
			continue
		}
		conj = append(conj, atom)
		disjuncts = append(disjuncts, e.tab.mkAnd(conj...))
	}
	return e.tab.mkOr(disjuncts...), nil
}

// aggState maintains one aggregate occurrence incrementally: sub-evaluators
// decide the start and sample formulas per state — general ones under the
// general evaluator, whose Clone, StateSize and snapshots take them whole,
// fast ones under the fast evaluator — and the sample buffer supports O(1)
// amortized updates. For a windowed aggregate it is a timestamped deque:
// the live samples are samples[head:], and the dead prefix is compacted
// away once it is more than half the buffer.
type aggState struct {
	agg         *ptl.Agg
	start, samp aggMachine                                     // start is nil for windowed aggregates
	q           func(history.SystemState) (value.Value, error) // the query at the state samp just stepped
	undo        *aggState                                      // what mark saved

	started bool
	samples []value.Value
	times   []int64 // parallel to samples; used for window eviction
	head    int
	sum     value.Value
	count   int64
}

// aggMachine is what runs an aggregate's start or sampling formula.
type aggMachine interface {
	ConditionEvaluator
	fires(st history.SystemState, dbUnchanged bool) (bool, error)
	Registers() int
	generalForm() (*evalState, error) // its state as the general evaluator writes it
}

// live returns the samples in the window and their times.
func (s *aggState) live() ([]value.Value, []int64) { return s.samples[s.head:], s.times[s.head:] }

// newAggState builds the machine of aggregate a on the sub-evaluators
// compile builds.
func newAggState(a *ptl.Agg, compile func(ptl.Formula) (aggMachine, error)) (*aggState, error) {
	st := &aggState{agg: a, sum: value.NewInt(0)}
	var err error
	if a.Window < 0 {
		if st.start, err = compile(a.Start); err != nil {
			return nil, fmt.Errorf("core: aggregate start formula: %w", err)
		}
	}
	if st.samp, err = compile(a.Sample); err != nil {
		return nil, fmt.Errorf("core: aggregate sampling formula: %w", err)
	}
	st.bindQuery()
	return st, nil
}

// bindQuery sets q to read the query through the sampling evaluator, which
// keeps no state between steps: q lends it the state for the read.
func (s *aggState) bindQuery() {
	switch samp := s.samp.(type) {
	case *FastEvaluator:
		t := (&fastCompiler{e: samp}).term(s.agg.Q)
		s.q = func(st history.SystemState) (value.Value, error) {
			samp.st = st
			defer func() { samp.st = history.SystemState{} }()
			return t()
		}
	case *Evaluator:
		s.q = func(st history.SystemState) (value.Value, error) {
			samp.st = st
			defer func() { samp.st = history.SystemState{} }()
			qt, err := samp.buildTerm(s.agg.Q)
			if err != nil {
				return value.Value{}, err
			}
			return qt.ground()
		}
	}
}

func (s *aggState) step(st history.SystemState, dbUnchanged bool) error {
	if s.agg.Window >= 0 {
		s.started = true
		// Evict samples that fell out of the window.
		cutoff, head := st.TS-s.agg.Window, s.head
		for s.head < len(s.times) && s.times[s.head] < cutoff {
			s.sum = value.Arith(value.Sub, s.sum, s.samples[s.head])
			s.count--
			s.head++
		}
		if f := s.sum.AsFloat(); s.head > head && (math.IsNaN(f) || math.IsInf(f, 0)) {
			// An infinity or NaN that left cannot be subtracted out
			// (∞ - ∞ is NaN): sum the live samples afresh.
			s.sum = value.NewInt(0)
			for _, v := range s.samples[s.head:] {
				s.sum = value.Arith(value.Add, s.sum, v)
			}
		}
		if 2*s.head > len(s.times) {
			n := copy(s.samples, s.samples[s.head:])
			copy(s.times, s.times[s.head:])
			s.samples, s.times, s.head = s.samples[:n], s.times[:n], 0
		}
	} else {
		started, err := s.start.fires(st, dbUnchanged)
		if err != nil {
			return err
		}
		if started {
			s.started = true
			s.samples, s.times, s.head = s.samples[:0], s.times[:0], 0
			s.sum = value.NewInt(0)
			s.count = 0
		}
	}
	sampled, err := s.samp.fires(st, dbUnchanged)
	if err != nil {
		return err
	}
	if sampled && s.started {
		// Evaluate the aggregate's query at this state, with the evaluator
		// that just stepped over it; a value that is not a number, Null
		// included, is no sample.
		v, err := s.q(st)
		if err != nil || !v.IsNumeric() {
			return err
		}
		s.samples = append(s.samples, v)
		s.times = append(s.times, st.TS)
		s.sum = value.Arith(value.Add, s.sum, v)
		s.count++
	}
	return nil
}

// mark and rollback are the evaluators' Mark and Rollback for the machine.
func (s *aggState) mark() {
	if s.undo == nil {
		s.undo = &aggState{}
	}
	u := s.undo
	samples, times := s.live()
	u.started, u.sum, u.count = s.started, s.sum, s.count
	u.samples, u.times = append(u.samples[:0], samples...), append(u.times[:0], times...)
	if s.start != nil {
		s.start.Mark()
	}
	s.samp.Mark()
}

func (s *aggState) rollback() {
	u := s.undo
	s.started, s.sum, s.count = u.started, u.sum, u.count
	s.samples, s.times, s.head = append(s.samples[:0], u.samples...), append(s.times[:0], u.times...), 0
	if s.start != nil {
		s.start.Rollback()
	}
	s.samp.Rollback()
}

// value returns the aggregate's current value; Null when undefined: before
// a start, for the avg, min or max of no sample, and for an unknown
// function (ptl.Check admits none).
func (s *aggState) value() value.Value {
	samples, _ := s.live()
	switch {
	case !s.started:
	case s.agg.Fn == ptl.AggSum:
		return s.sum
	case s.agg.Fn == ptl.AggCount:
		return value.NewInt(s.count)
	case s.agg.Fn == ptl.AggAvg:
		return value.Arith(value.Div, value.NewFloat(s.sum.AsFloat()), value.NewFloat(float64(s.count)))
	case len(samples) > 0 && (s.agg.Fn == ptl.AggMin || s.agg.Fn == ptl.AggMax):
		best, sign := samples[0], 1
		if s.agg.Fn == ptl.AggMin {
			sign = -1
		}
		for _, v := range samples[1:] {
			if c, _ := v.Compare(best); c*sign > 0 { // samples are numbers
				best = v
			}
		}
		return best
	}
	return value.Value{}
}

func (s *aggState) stateSize(seen map[*cnode]struct{}) int {
	samples, _ := s.live()
	total := len(samples)
	for _, m := range []aggMachine{s.start, s.samp} {
		if g, ok := m.(*Evaluator); ok {
			total += g.nodes(seen)
		}
	}
	return total
}
