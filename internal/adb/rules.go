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

// checkScheduling refuses a scheduling outside Eager..Manual. Registration
// and recovery both run it, so a log the live engine writes is always one
// recovery accepts.
func checkScheduling(s Scheduling) error {
	if s < Eager || s > Manual {
		return fmt.Errorf("unknown scheduling %d", s)
	}
	return nil
}

// rule is the engine-internal compiled form.
type rule struct {
	name       string
	condition  ptl.Formula
	info       *ptl.Info
	ev         core.HintedEvaluator
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
	// execs is the rule's executed-predicate log (guarded by Engine.mu), in
	// time order: one record per committed action, stamped when it
	// committed. A rule without an action never executes.
	execs []ptl.Execution

	// Scheduling-index metadata (see readset.go). rs and class are fixed at
	// registration; contiguous marks rules whose evaluator steps every
	// state in order (temporal, Eager or Manual — never the non-temporal
	// Relevant jump), the precondition for the dbUnchanged hint.
	rs         readSet
	class      ruleClass
	contiguous bool
	// seq is the position in Engine.rules (jobs merge in seq order), wake
	// the wake list the indexed sweep finds the rule through and group its
	// rest group, all fixed at registration: Engine.parkedConstraints for a
	// constraint, Engine.parked for a trigger. parked (guarded by Engine.mu)
	// means the rule's cursor is its group's, not the cursor field
	// (cursorOf): a gated or quiescent rule a commit would only bump, a
	// resting trigger (wakeCommit) or a resting constraint. A resting rule's
	// cursor field stays where it came to rest, so that settle can tell
	// whether the group's cursor has passed a state since. indexed: itemIndex
	// lists the rule, so stampDirty marks it.
	seq     int
	wake    wakeKind
	group   *restGroup
	parked  bool
	indexed bool
	// wakeGen / dirtyGen are sweep-generation marks stamped through the
	// event and item indexes: "one of my events is in this state", "this
	// commit changed an item I read". Only the sweep goroutine touches them.
	wakeGen  uint64
	dirtyGen uint64
	// rest (only the mutating goroutine touches it) is the outcome r's next
	// step would replay if the state it steps leaves r's read set untouched
	// (Section 8: a state that does not concern the rule). A quiescent
	// rule's is its step at the last commit state, invalid if that step
	// failed: it stands until a commit writes the read set, which wakes the
	// rule through itemIndex, so any later commit may replay it. A fast
	// evaluator's is its Fixpoint as of the last step the engine took or
	// undid (step, rollbackConstraints): valid for the next state only,
	// when that is the rule's one pending state, before its deadline. The
	// sweep replays a valid record instead of stepping (replay), and a
	// trigger or constraint whose record is valid, false and without a
	// deadline rests. Persisted for the quiescent
	// class in snapshots (as its memo), so a recovered engine evaluates the
	// same states the original did; every other rule restores without one.
	rest restRecord
}

// restRecord is a rule's rest record: ok, whether it is valid, the outcome
// it replays — fired and its bindings — and until, its deadline.
type restRecord struct {
	ok       bool
	fired    bool
	bindings []core.Binding
	until    int64
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
	return e.add(name, f, action, false, opts...)
}

// AddTriggerFormula registers a trigger from an AST condition. The WAL and
// snapshots store a rule as its printed condition, so a condition whose
// text does not parse back to it (a Null, non-finite, tuple or relation
// constant, say) is refused.
func (e *Engine) AddTriggerFormula(name string, condition ptl.Formula, action Action, opts ...RuleOption) error {
	if err := reparses(name, condition); err != nil {
		return err
	}
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
	return e.add(name, &ptl.Not{F: f}, nil, true, opts...)
}

// reparses refuses a condition that would not survive the WAL and
// snapshots, which store it as its printed text. Parse(f.String()) equals
// f for every condition the parser produces, so only hand-built ASTs need
// the check.
func reparses(name string, condition ptl.Formula) error {
	text := condition.String()
	if back, err := ptl.Parse(text); err != nil || !ptl.Equal(condition, back) {
		return fmt.Errorf("adb: rule %s: condition %s does not parse back from its text", name, text)
	}
	return nil
}

func (e *Engine) add(name string, condition ptl.Formula, action Action, isConstraint bool, opts ...RuleOption) error {
	if err := e.refused(); err != nil {
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
	// Conditions in ptl.FastShape's class — the decomposable subclass the
	// paper's prototype implemented, parameters, and bounded operators,
	// captured values and windowed aggregates on metric registers — get
	// the fast path. Both evaluators take the dbUnchanged hint.
	ev, err := core.CompileAuto(info, e.reg, e)
	if err != nil {
		return fmt.Errorf("adb: rule %s: %w", name, err)
	}
	r := &rule{
		name:       name,
		condition:  condition,
		info:       info,
		ev:         ev.(core.HintedEvaluator),
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
	if err := checkScheduling(r.sched); err != nil {
		return fmt.Errorf("adb: rule %s: %w", name, err)
	}
	// Classification reads the scheduling, so it runs after the options.
	r.rs = extractReadSet(info, e.reg)
	r.class = classify(r)
	if e.coarse {
		r.class = classExact
	}
	r.contiguous = r.info.Temporal || r.sched != Relevant
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
	if !e.logging() {
		return nil
	}
	return e.logRecord(&persist.Record{
		Kind:       persist.KindAddRule,
		Name:       name,
		Text:       condition.String(),
		Constraint: isConstraint,
		Sched:      int(r.sched),
	})
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
