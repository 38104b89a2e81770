package adb

import (
	"context"
	"fmt"

	"ptlactive/internal/core"
	"ptlactive/internal/event"
	"ptlactive/internal/history"
	"ptlactive/internal/ptl"
	"ptlactive/internal/value"
)

// ActionContext is passed to trigger actions. Actions run after the rule
// sweep of the state that fired them; they may run further transactions
// and emit events through it. The engine is reachable only through the
// context's methods: every mutating path (Exec, Begin-transactions) is
// guarded by the deadline gate, so a timed-out action's leaked goroutine
// is refused instead of racing the resumed sweep.
type ActionContext struct {
	Rule    string
	Binding core.Binding
	// FiredAt is the timestamp of the state satisfying the condition.
	FiredAt int64

	engine *Engine
	// ctx carries the Config.ActionTimeout deadline (Background without
	// one); gate refuses engine mutations after the deadline fires.
	ctx  context.Context
	gate actionGate
}

// Param returns a bound condition parameter by name.
func (c *ActionContext) Param(name string) (value.Value, bool) {
	v, ok := c.Binding[name]
	return v, ok
}

// Context returns the action's deadline context (Config.ActionTimeout);
// long-running actions should observe its cancellation. Without a timeout
// it never cancels.
func (c *ActionContext) Context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// Exec runs a transaction on behalf of the action: updates are applied and
// committed as a new system state (with the given extra events) at the
// next clock tick. After the action's deadline has expired the engine has
// moved on, so the mutation is refused with ErrActionTimeout.
func (c *ActionContext) Exec(updates map[string]value.Value, events ...event.Event) error {
	c.gate.mu.Lock()
	defer c.gate.mu.Unlock()
	if c.gate.expired {
		return &TimeoutError{Rule: c.Rule, Timeout: c.engine.actionTimeout}
	}
	return c.engine.Exec(c.engine.now+1, updates, events...)
}

// Begin opens a transaction on behalf of the action, for multi-item
// commits that Exec's one-shot form cannot express. The transaction is
// bound to the action's deadline gate: Commit and Abort after the
// deadline are refused with ErrActionTimeout.
func (c *ActionContext) Begin() *Txn {
	c.gate.mu.Lock()
	defer c.gate.mu.Unlock()
	if c.gate.expired {
		return &Txn{
			e:       c.engine,
			updates: map[string]value.Value{},
			deletes: map[string]bool{},
			refused: &TimeoutError{Rule: c.Rule, Timeout: c.engine.actionTimeout},
		}
	}
	tx := c.engine.Begin()
	tx.owner = c
	return tx
}

// DB returns the current database state (an immutable snapshot).
func (c *ActionContext) DB() history.DBState { return c.engine.DB() }

// Now returns the timestamp of the latest system state.
func (c *ActionContext) Now() int64 { return c.engine.Now() }

// AsOf returns the value a tracked item (Config.TrackItems) had at the
// instant this firing's condition was satisfied. Actions run after the
// firing state's sweep — possibly much later under Relevant or Manual
// scheduling — so the current database may have moved on; AsOf reads the
// auxiliary relation instead.
func (c *ActionContext) AsOf(item string) (value.Value, bool) {
	return c.engine.ItemAsOf(item, c.FiredAt)
}

// Action is the action part of a trigger.
type Action func(ctx *ActionContext) error

// drainActions executes queued actions inside the per-rule sandbox;
// actions may commit transactions, which append states and queue further
// firings (bounded by the cascade limit).
//
// A failing action — an error, a recovered panic, an exceeded deadline —
// is an isolated per-rule fault: it is recorded in the rule's health (and
// counts toward quarantine), the failed firing is not entered in the
// executed-predicate log, and the drain continues with the remaining
// firings, so no other rule's behavior is perturbed. Only engine-level
// failures (the cascade limit, a sealed engine) abort the drain.
func (e *Engine) drainActions() error {
	for len(e.pending) > 0 {
		f := e.pending[0]
		e.pending = e.pending[1:]
		r := e.index[f.Rule]
		if r == nil || r.action == nil {
			e.recordExecution(r, f, f.Time)
			continue
		}
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
		if e.cascade > e.cascadeTo {
			return fmt.Errorf("adb: action cascade exceeded %d firings (rule %s)", e.cascadeTo, f.Rule)
		}
		// Operations the action runs are cascade-derived: replaying the
		// external operation that fired it re-derives them, so they must
		// not be logged themselves.
		e.suppress++
		err := e.runAction(r, f)
		e.suppress--
		if err != nil {
			e.recordFailure(r, f.Time, err)
			continue
		}
		e.recordSuccess(r)
		e.recordExecution(r, f, e.now)
	}
	return nil
}

// recordExecution appends to the executed-predicate log. The execution
// time is when the action's effects committed (Section 7: "the action part
// of the rule was committed by the time t").
func (e *Engine) recordExecution(r *rule, f Firing, ts int64) {
	if r == nil {
		return
	}
	params := make([]value.Value, len(r.paramOrder))
	for i, name := range r.paramOrder {
		params[i] = f.Binding[name]
	}
	ex := ptl.Execution{Rule: f.Rule, Params: params, Time: ts}
	e.mu.Lock()
	// execs is the source of truth (snapshots serialize it); execIdx is
	// derived.
	e.execs = append(e.execs, ex)
	e.execIdx[ex.Rule] = append(e.execIdx[ex.Rule], ex)
	e.mu.Unlock()
}
