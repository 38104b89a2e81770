package adb

import (
	"fmt"
	"sort"

	"ptlactive/internal/core"
	"ptlactive/internal/persist"
	"ptlactive/internal/ptl"
)

// Scheduling selects when a trigger's condition is (re)evaluated
// (Section 8).
type Scheduling int

const (
	// Eager evaluates the condition at every new system state.
	Eager Scheduling = iota
	// Relevant evaluates only when a state carries one of the condition's
	// event symbols, or a transaction commit for conditions that read the
	// database. Pending states are then processed in order (catch-up), so
	// firing is delayed, never lost — "trigger firing may be delayed, but
	// not go unrecognized".
	Relevant
	// Manual evaluates only on an explicit Flush; this is the batched
	// invocation mode ("the temporal component invocation can be executed
	// for multiple events at the same time").
	Manual
)

// rule is the engine-internal compiled form.
type rule struct {
	name       string
	condition  ptl.Formula
	info       *ptl.Info
	ev         core.ConditionEvaluator
	action     Action
	constraint bool
	sched      Scheduling
	events     map[string]bool
	readsDB    bool
	cursor     int // next history index this rule's evaluator will see
	paramOrder []string
	// health is the rule's isolated failure record (guarded by Engine.mu);
	// health.quarantined suppresses the action, never the condition.
	health ruleHealth

	// Scheduling-index metadata (see readset.go). rs and class are fixed at
	// registration; contiguous marks rules whose evaluator steps every
	// state in order (temporal, Eager or Manual — never the non-temporal
	// Relevant jump), the precondition for the dbUnchanged hint. hinted is
	// ev when it supports hinted stepping.
	rs         readSet
	class      ruleClass
	contiguous bool
	hinted     core.HintedEvaluator
	// seq is the position in Engine.rules (jobs merge in seq order) and wake
	// the wake list the indexed sweep finds the rule through, both fixed at
	// registration. parked (guarded by Engine.mu) means the rule's cursor is
	// Engine.parkedCursor, not the cursor field. indexed: itemIndex lists the
	// rule, so stampDirty marks it.
	seq     int
	wake    wakeKind
	parked  bool
	indexed bool
	// wakeGen / dirtyGen are sweep-generation marks stamped through the
	// event and item indexes: "one of my events is in this state", "this
	// commit changed an item I read". Only the sweep goroutine touches them.
	wakeGen  uint64
	dirtyGen uint64
	// Quiescent-replay memo (guarded by Engine.mu): the outcome of the last
	// evaluation at a commit state. While every later commit leaves the
	// rule's read set untouched, re-evaluating would reproduce exactly this
	// outcome, so the sweep replays it instead. Persisted in snapshots so a
	// recovered engine evaluates the same states the original did.
	memoValid    bool
	memoFired    bool
	memoBindings []core.Binding
}

// RuleOption configures a rule at registration.
type RuleOption func(*rule)

// WithScheduling sets the trigger's evaluation scheduling.
func WithScheduling(s Scheduling) RuleOption {
	return func(r *rule) { r.sched = s }
}

// AddTrigger registers a trigger with a PTL condition in concrete syntax.
// The action may be nil, in which case firings are only recorded.
func (e *Engine) AddTrigger(name, condition string, action Action, opts ...RuleOption) error {
	f, err := ptl.Parse(condition)
	if err != nil {
		return err
	}
	return e.AddTriggerFormula(name, f, action, opts...)
}

// AddTriggerFormula registers a trigger from an AST condition.
func (e *Engine) AddTriggerFormula(name string, condition ptl.Formula, action Action, opts ...RuleOption) error {
	return e.add(name, condition, action, false, opts...)
}

// AddConstraint registers a temporal integrity constraint: a PTL formula
// that must be satisfied at every commit point (Section 3). Internally
// this is the rule "attempts_to_commit(X) and not constraint -> abort(X)":
// the engine evaluates the negated condition against the tentative commit
// state and aborts the transaction when it is violated.
func (e *Engine) AddConstraint(name, constraint string, opts ...RuleOption) error {
	f, err := ptl.Parse(constraint)
	if err != nil {
		return err
	}
	return e.AddConstraintFormula(name, f, opts...)
}

// AddConstraintFormula registers an integrity constraint from an AST.
func (e *Engine) AddConstraintFormula(name string, constraint ptl.Formula, opts ...RuleOption) error {
	return e.add(name, &ptl.Not{F: constraint}, nil, true, opts...)
}

func (e *Engine) add(name string, condition ptl.Formula, action Action, isConstraint bool, opts ...RuleOption) error {
	if err := e.Degraded(); err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("adb: empty rule name")
	}
	if _, dup := e.index[name]; dup {
		return fmt.Errorf("adb: rule %q already registered", name)
	}
	info, err := ptl.Check(condition, e.reg)
	if err != nil {
		return fmt.Errorf("adb: rule %s: %w", name, err)
	}
	if isConstraint && len(info.Free) > 0 {
		return fmt.Errorf("adb: constraint %s must not have free variables (found %v)", name, info.Free)
	}
	// Decomposable, aggregate-free conditions — the subclass the paper's
	// prototype implemented — get the boolean fast path.
	ev, err := core.CompileAuto(info, e.reg, e)
	if err != nil {
		return fmt.Errorf("adb: rule %s: %w", name, err)
	}
	r := &rule{
		name:       name,
		condition:  condition,
		info:       info,
		ev:         ev,
		action:     action,
		constraint: isConstraint,
		events:     map[string]bool{},
		paramOrder: append([]string(nil), info.Free...),
	}
	sort.Strings(r.paramOrder)
	for _, n := range info.Events {
		r.events[n] = true
	}
	ptl.WalkTerms(info.Normalized, func(t ptl.Term) {
		if c, ok := t.(*ptl.Call); ok && c.Fn != "time" {
			r.readsDB = true
		}
	})
	for _, o := range opts {
		o(r)
	}
	// Classification reads the scheduling, so it runs after the options.
	r.rs = extractReadSet(info, e.reg)
	r.class = classify(r)
	if e.coarse {
		r.class = classExact
	}
	r.contiguous = r.info.Temporal || r.sched != Relevant
	if h, ok := ev.(core.HintedEvaluator); ok {
		r.hinted = h
	}
	// Encode the registration for the WAL before committing it, so an
	// unencodable condition fails the whole registration.
	var walRec *persist.Record
	if e.logging() {
		cond, err := ptl.EncodeFormula(condition)
		if err != nil {
			return fmt.Errorf("adb: rule %s: %w", name, err)
		}
		walRec = &persist.Record{
			Kind:       persist.KindAddRule,
			Name:       name,
			Cond:       cond,
			Constraint: isConstraint,
			Sched:      int(r.sched),
		}
	}
	// A brand-new rule starts observing at the state current when it is
	// entered: "when the trigger condition f is first entered at time T,
	// R_x is set to the relation retrieved by q on the database at that
	// time" (Section 5). Earlier history is invisible to it.
	e.mu.Lock()
	r.cursor = e.hist.Len() - 1
	r.seq = len(e.rules)
	e.rules = append(e.rules, r)
	e.index[name] = r
	e.enlist(r)
	e.mu.Unlock()
	if walRec != nil {
		return e.logRecord(walRec)
	}
	return nil
}

// RuleInfo describes a registered rule for inspection.
type RuleInfo struct {
	Name       string
	Condition  string
	Constraint bool
	Scheduling Scheduling
	Parameters []string
	Events     []string
	Temporal   bool
	// PendingStates is how many history states the rule's evaluator has
	// not yet processed (nonzero under Relevant/Manual scheduling).
	PendingStates int
}

// Rule returns information about a registered rule; ok is false for
// unknown names. Safe for concurrent use.
func (e *Engine) Rule(name string) (RuleInfo, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	r, ok := e.index[name]
	if !ok {
		return RuleInfo{}, false
	}
	return RuleInfo{
		Name:          r.name,
		Condition:     r.condition.String(),
		Constraint:    r.constraint,
		Scheduling:    r.sched,
		Parameters:    append([]string(nil), r.info.Free...),
		Events:        append([]string(nil), r.info.Events...),
		Temporal:      r.info.Temporal,
		PendingStates: e.hist.Len() - e.cursorOf(r),
	}, true
}

// RuleNames returns the registered rule names in registration order. Safe
// for concurrent use.
func (e *Engine) RuleNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, len(e.rules))
	for i, r := range e.rules {
		out[i] = r.name
	}
	return out
}
