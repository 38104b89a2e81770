package adb

// Read-set extraction and rule classification for the scheduling index.
//
// Section 8 prescribes evaluating a rule only on states that concern it.
// The engine's wake conditions (see relevant) are sound but coarse: every
// database-reading rule wakes on every commit. This file extracts, at
// registration time, a static read set from the compiled condition — the
// database items, event names and executed() targets the condition can
// observe — and classifies each rule by how its wake set can be refined
// without changing a single firing:
//
//   - classExact: evaluated exactly when the coarse filter wakes it.
//     Temporal rules (their F_{g,i} registers must see every woken
//     state), rules with an unanalyzable footprint, time-dependent
//     conditions, and event rules the gate analysis cannot discharge.
//   - classGated: non-temporal rules whose condition is provably false on
//     any state carrying none of their events (a three-valued fold). On
//     commits without their events the evaluation is skipped outright —
//     the result is known to be "no firing" — and only the cursor moves.
//   - classQuiescent: non-temporal, event-free, database-reading rules
//     with a fully analyzable, time-independent footprint. On commits
//     that touch no item in the footprint the rule's rest record — the
//     outcome of its step at the last commit state — is replayed (same
//     bindings, new timestamp) instead of re-evaluated; the firings are
//     byte-identical to re-evaluation because the condition's value
//     depends only on the untouched items. The contiguous fast-path rules
//     replay the same record, their evaluator's fixpoint, one state at a
//     time (see rule.rest).

import (
	"sort"

	"ptlactive/internal/ptl"
	"ptlactive/internal/query"
	"ptlactive/internal/value"
)

// ruleClass is the scheduling refinement a rule admits.
type ruleClass int

const (
	classExact ruleClass = iota
	classGated
	classQuiescent
)

// readSet is the statically extracted footprint of a condition.
type readSet struct {
	// items names the database items the condition can read, complete
	// only when analyzable is true.
	items map[string]bool
	// analyzable reports that items is the complete database footprint:
	// every query call either is item() with a constant name or declares
	// its reads (query.Registry.ReadSet).
	analyzable bool
	// timeDep reports a dependency on the state timestamp (a time() call
	// or an impure query), so the condition's value can change between
	// states even with an untouched database.
	timeDep bool
	// execRules names the executed() targets; their executions feed the
	// condition, so states recording them concern the rule. (Executed is
	// a temporal operator, so such rules are classExact regardless.)
	execRules map[string]bool
	// hasEventAtoms reports whether any event atom occurs in the
	// condition (info.Events carries the names).
	hasEventAtoms bool
}

// extractReadSet walks the normalized condition (including aggregate
// subformulas — ptl.Walk and ptl.WalkTerms recurse into them).
func extractReadSet(info *ptl.Info, reg *query.Registry) readSet {
	rs := readSet{
		items:      map[string]bool{},
		analyzable: true,
		execRules:  map[string]bool{},
	}
	ptl.Walk(info.Normalized, func(f ptl.Formula) {
		switch x := f.(type) {
		case *ptl.EventAtom:
			rs.hasEventAtoms = true
		case *ptl.Executed:
			rs.execRules[x.Rule] = true
		}
	})
	ptl.WalkTerms(info.Normalized, func(t ptl.Term) {
		c, ok := t.(*ptl.Call)
		if !ok {
			return
		}
		switch {
		case c.Fn == "time":
			rs.timeDep = true
		case c.Fn == "item":
			if len(c.Args) == 1 {
				if k, isConst := c.Args[0].(*ptl.Const); isConst && k.V.Kind() == value.String {
					rs.items[k.V.AsString()] = true
					return
				}
			}
			// item(<non-constant>): the footprint depends on runtime
			// values.
			rs.analyzable = false
		default:
			if reads, known := reg.ReadSet(c.Fn); known {
				for _, item := range reads {
					rs.items[item] = true
				}
				return
			}
			rs.analyzable = false
			if !reg.Pure(c.Fn) {
				// An impure query may read anything, including the
				// clock; force evaluation at every woken state.
				rs.timeDep = true
			}
		}
	})
	return rs
}

// EventUse is one event-atom shape a condition observes: the symbol name
// and the atom's arity. Two atoms of the same symbol at different arities
// are distinct uses (an occurrence matches an atom only at equal arity).
type EventUse struct {
	Name  string
	Arity int
}

// Footprint is the externally usable form of a condition's static read
// set: the database items and event atoms it can observe. The cluster
// router uses it as its placement oracle — a rule whose items all hash to
// one shard is pinned there, and its remote event uses become forwarding
// subscriptions. Items and Events are sorted; Items is complete only when
// Analyzable is true.
type Footprint struct {
	Items []string
	// Analyzable reports that Items is the complete database footprint.
	Analyzable bool
	// TimeDep reports a dependency on the state timestamp or an impure
	// query.
	TimeDep bool
	// Temporal reports that the condition uses temporal operators, so its
	// value depends on the whole state sequence it observes, not just the
	// current state.
	Temporal bool
	// Events lists the distinct event-atom uses, sorted by name then arity.
	Events []EventUse
	// ExecRules lists the executed() targets, sorted; their executions
	// feed the condition, so they must be observable where it runs.
	ExecRules []string
}

// ConditionFootprint parses and checks a condition and extracts its
// Footprint. It accepts exactly the condition strings AddTrigger and
// AddConstraint accept (a constraint's implicit negation does not change
// its footprint). reg supplies the query functions; nil means just the
// built-ins.
func ConditionFootprint(condition string, reg *query.Registry) (Footprint, error) {
	if reg == nil {
		reg = query.NewRegistry()
	}
	f, err := ptl.Parse(condition)
	if err != nil {
		return Footprint{}, err
	}
	info, err := ptl.Check(f, reg)
	if err != nil {
		return Footprint{}, err
	}
	rs := extractReadSet(info, reg)
	fp := Footprint{
		Analyzable: rs.analyzable,
		TimeDep:    rs.timeDep,
		Temporal:   info.Temporal,
	}
	for item := range rs.items {
		fp.Items = append(fp.Items, item)
	}
	sort.Strings(fp.Items)
	for rule := range rs.execRules {
		fp.ExecRules = append(fp.ExecRules, rule)
	}
	sort.Strings(fp.ExecRules)
	seen := map[EventUse]bool{}
	ptl.Walk(info.Normalized, func(g ptl.Formula) {
		if atom, ok := g.(*ptl.EventAtom); ok {
			seen[EventUse{Name: atom.Name, Arity: len(atom.Args)}] = true
		}
	})
	for use := range seen {
		fp.Events = append(fp.Events, use)
	}
	sort.Slice(fp.Events, func(i, j int) bool {
		if fp.Events[i].Name != fp.Events[j].Name {
			return fp.Events[i].Name < fp.Events[j].Name
		}
		return fp.Events[i].Arity < fp.Events[j].Arity
	})
	return fp, nil
}

// gateValue is a three-valued truth value for the event-gate fold.
type gateValue int

const (
	gateFalse gateValue = iota
	gateUnknown
	gateTrue
)

func (v gateValue) not() gateValue {
	switch v {
	case gateFalse:
		return gateTrue
	case gateTrue:
		return gateFalse
	default:
		return gateUnknown
	}
}

func gateMin(a, b gateValue) gateValue {
	if a < b {
		return a
	}
	return b
}

func gateMax(a, b gateValue) gateValue {
	if a > b {
		return a
	}
	return b
}

// gatedByEvents reports whether the (non-temporal) condition is provably
// false at any state carrying none of its events: a Kleene fold with
// every event atom pinned to false and every other atom unknown. On an
// event-free state an event atom folds to an empty disjunction — false —
// so a gateFalse verdict means no binding can satisfy the condition
// there, whatever the database holds.
func gatedByEvents(f ptl.Formula) bool {
	return gateFold(f) == gateFalse
}

func gateFold(f ptl.Formula) gateValue {
	switch x := f.(type) {
	case *ptl.BoolConst:
		if x.V {
			return gateTrue
		}
		return gateFalse
	case *ptl.EventAtom:
		return gateFalse
	case *ptl.Not:
		return gateFold(x.F).not()
	case *ptl.And:
		return gateMin(gateFold(x.L), gateFold(x.R))
	case *ptl.Or:
		return gateMax(gateFold(x.L), gateFold(x.R))
	case *ptl.Assign:
		return gateFold(x.Body)
	default:
		// Comparisons, membership, executed, temporal operators: value
		// unknown without evaluating.
		return gateUnknown
	}
}

// classify picks the scheduling refinement for a rule. Only Relevant
// triggers are refined: Eager means "evaluate at every state" by
// contract, Manual only advances on Flush, and constraints have their
// own commit/abort cadence.
func classify(r *rule) ruleClass {
	if r.constraint || r.sched != Relevant || r.info.Temporal {
		return classExact
	}
	if r.rs.hasEventAtoms {
		if gatedByEvents(r.info.Normalized) {
			return classGated
		}
		return classExact
	}
	if r.readsDB && r.rs.analyzable && !r.rs.timeDep {
		return classQuiescent
	}
	return classExact
}
