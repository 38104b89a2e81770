package adb

import (
	"fmt"

	"ptlactive/internal/core"
	"ptlactive/internal/event"
	"ptlactive/internal/history"
	"ptlactive/internal/ptl"
	"ptlactive/internal/value"
)

// ActionContext is passed to trigger actions. Actions run after the rule
// sweep of the state that fired them; they may run further transactions
// and emit events through it. An action runs to completion on the
// committing goroutine; the engine is reachable only through the
// context's methods.
type ActionContext struct {
	Rule    string
	Binding core.Binding
	// FiredAt is the timestamp of the state satisfying the condition.
	FiredAt int64

	engine *Engine
	// state is the database of the state that satisfied the condition.
	state history.DBState
}

// Param returns a bound condition parameter by name.
func (c *ActionContext) Param(name string) (value.Value, bool) {
	v, ok := c.Binding[name]
	return v, ok
}

// Exec runs a transaction on behalf of the action: updates are applied and
// committed as a new system state (with the given extra events) at the
// next clock tick.
func (c *ActionContext) Exec(updates map[string]value.Value, events ...event.Event) error {
	return c.engine.Exec(c.engine.now+1, updates, events...)
}

// Begin opens a transaction on behalf of the action, for multi-item
// commits that Exec's one-shot form cannot express.
func (c *ActionContext) Begin() *Txn { return c.engine.Begin() }

// DB returns the current database state (an immutable snapshot).
func (c *ActionContext) DB() history.DBState { return c.engine.DB() }

// Now returns the timestamp of the latest system state.
func (c *ActionContext) Now() int64 { return c.engine.Now() }

// AsOf returns the value item had in the state that satisfied this
// firing's condition (Null, with ok true, if it did not exist there).
// Actions run after the firing state's sweep — possibly much later under
// Relevant or Manual scheduling — so the current database may have moved
// on; AsOf reads the firing state the action was queued with instead.
func (c *ActionContext) AsOf(item string) (value.Value, bool) {
	v, _ := c.state.Get(item)
	return v, true
}

// Action is the action part of a trigger.
type Action func(ctx *ActionContext) error

// cascadeLimit bounds chains of action-triggered firings per external
// operation. Every init record carries it ("cascade"), and recovery
// refuses a log written with any other limit.
const cascadeLimit = 1000

// drainActions executes queued actions inside the per-rule sandbox;
// actions may commit transactions, which append states and queue further
// firings (bounded by the cascade limit).
//
// A failing action — an error or a recovered panic — is an isolated
// per-rule fault: it is recorded in the rule's health (and counts toward
// quarantine), the failed firing is not entered in the executed-predicate
// log, and the drain continues with the remaining firings, so no other
// rule's behavior is perturbed. Only engine-level
// failures (the cascade limit, a sealed engine) abort the drain.
func (e *Engine) drainActions() error {
	for len(e.pending) > 0 {
		p := e.pending[0]
		e.pending = e.pending[1:]
		f := p.Firing
		r := e.index[f.Rule]
		// The breaker state is read under the lock: ReviveRule may run
		// concurrently with a sweep's reader accessors.
		e.mu.RLock()
		h := r.health
		e.mu.RUnlock()
		if h.quarantined {
			// Condition maintained, firing recorded, action suppressed.
			e.reportFault(r.name, f.Time, &QuarantineError{Rule: r.name, Failures: h.consecutive, Cause: h.lastErr})
			continue
		}
		e.cascade++
		if e.cascade > cascadeLimit {
			return fmt.Errorf("adb: action cascade exceeded %d firings (rule %s)", cascadeLimit, f.Rule)
		}
		// Operations the action runs are cascade-derived: replaying the
		// external operation that fired it re-derives them, so they must
		// not be logged themselves.
		e.suppress++
		err := e.runAction(r, p)
		e.suppress--
		if err != nil {
			e.recordFailure(r, f.Time, err)
			continue
		}
		e.recordSuccess(r)
		e.recordExecution(r, f)
	}
	return nil
}

// recordExecution appends to r's executed-predicate log. The execution
// time is when the action's effects committed (Section 7: "the action part
// of the rule was committed by the time t"); e.now never decreases, so the
// log stays in time order.
func (e *Engine) recordExecution(r *rule, f Firing) {
	params := make([]value.Value, len(r.paramOrder))
	for i, name := range r.paramOrder {
		params[i] = f.Binding[name]
	}
	e.mu.Lock()
	r.execs = append(r.execs, ptl.Execution{Rule: r.name, Params: params, Time: e.now})
	e.mu.Unlock()
}
