// Rule fault isolation and resource governance: the action sandbox
// (recovered panics, deadlines), the per-rule circuit breaker and the
// rule-health surface. A misbehaving action is an isolated per-rule fault,
// never a sweep failure: the firing semantics of Theorem 1 — every other
// rule fires iff its PTL condition holds — are unaffected, because
// conditions are evaluated before actions run and faults never reach the
// temporal component.
package adb

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"ptlactive/internal/persist"
)

// RuleFault is one isolated action failure (or suppression), reported to
// Config.OnRuleFault as it happens. Time is the firing instant of the
// affected rule.
type RuleFault struct {
	Rule string
	Time int64
	Err  error
}

// RuleHealth is the inspection view of a rule's failure record.
type RuleHealth struct {
	Rule string
	// Quarantined reports whether the circuit breaker has tripped: the
	// condition is still incrementally maintained and firings recorded,
	// but the action is suppressed until ReviveRule.
	Quarantined bool
	// ConsecutiveFailures is the current run of action failures without an
	// intervening success; Config.MaxRuleFailures of these trip the breaker.
	ConsecutiveFailures int
	// TotalFailures counts every action failure over the rule's lifetime.
	TotalFailures int
	// LastError is the most recent action failure (nil if none ever).
	LastError error
	// LastFailureAt is the firing instant of the most recent failure.
	LastFailureAt int64
}

// ruleHealth is the engine-internal failure record, guarded by Engine.mu.
type ruleHealth struct {
	consecutive int
	total       int
	quarantined bool
	lastErr     error
	lastAt      int64
}

// RuleHealth returns the failure record of a registered rule; ok is false
// for unknown names. Safe for concurrent use.
func (e *Engine) RuleHealth(name string) (RuleHealth, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	r, ok := e.index[name]
	if !ok {
		return RuleHealth{}, false
	}
	return RuleHealth{
		Rule:                r.name,
		Quarantined:         r.health.quarantined,
		ConsecutiveFailures: r.health.consecutive,
		TotalFailures:       r.health.total,
		LastError:           r.health.lastErr,
		LastFailureAt:       r.health.lastAt,
	}, true
}

// QuarantinedRules returns the quarantined rules in registration order.
// Safe for concurrent use.
func (e *Engine) QuarantinedRules() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []string
	for _, r := range e.rules {
		if r.health.quarantined {
			out = append(out, r.name)
		}
	}
	return out
}

// ReviveRule re-arms a rule: the quarantine is lifted and the consecutive
// failure count reset (the lifetime total and last error are kept for
// forensics). Reviving a healthy rule just resets its failure run.
//
// Revival re-enables suppressed actions — a behavior-shaping mutation —
// so on a durable engine it is written to the WAL and replayed at the
// same point during recovery, and a degraded engine refuses it like any
// other mutator.
func (e *Engine) ReviveRule(name string) error {
	if err := e.Degraded(); err != nil {
		return err
	}
	e.mu.Lock()
	r, ok := e.index[name]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("adb: unknown rule %q", name)
	}
	r.health.quarantined = false
	r.health.consecutive = 0
	e.mu.Unlock()
	return e.logRecord(&persist.Record{Kind: persist.KindRevive, Name: name})
}

// recordFailure notes one isolated action failure and trips the circuit
// breaker after MaxRuleFailures consecutive ones.
func (e *Engine) recordFailure(r *rule, at int64, err error) {
	e.mu.Lock()
	r.health.consecutive++
	r.health.total++
	r.health.lastErr = err
	r.health.lastAt = at
	tripped := false
	if e.maxFailures > 0 && r.health.consecutive >= e.maxFailures && !r.health.quarantined {
		r.health.quarantined = true
		tripped = true
	}
	failures := r.health.consecutive
	e.mu.Unlock()
	e.reportFault(r.name, at, err)
	if tripped {
		e.reportFault(r.name, at, &QuarantineError{Rule: r.name, Failures: failures, Cause: err})
	}
}

// recordSuccess ends the rule's failure run.
func (e *Engine) recordSuccess(r *rule) {
	e.mu.Lock()
	r.health.consecutive = 0
	e.mu.Unlock()
}

// reportFault delivers one fault to the observer callback.
func (e *Engine) reportFault(rule string, at int64, err error) {
	if e.onRuleFault != nil {
		e.onRuleFault(RuleFault{Rule: rule, Time: at, Err: err})
	}
}

// runAction executes one action inside the sandbox: panics become typed
// errors, and with Config.ActionTimeout set the action runs under a
// deadline. A timed-out action cannot be killed, but it is neutered: its
// ActionContext expires, so further engine mutations through it are
// refused, and the expiry handshake (the context mutex) guarantees no
// mutation is in flight when control returns to the sweep.
func (e *Engine) runAction(r *rule, f Firing) error {
	ctx := &ActionContext{engine: e, Rule: f.Rule, Binding: f.Binding, FiredAt: f.Time, ctx: context.Background()}
	if e.actionTimeout <= 0 {
		return e.invokeAction(r, ctx)
	}
	cctx, cancel := context.WithTimeout(context.Background(), e.actionTimeout)
	defer cancel()
	ctx.ctx = cctx
	done := make(chan error, 1)
	go func() { done <- e.invokeAction(r, ctx) }()
	select {
	case err := <-done:
		return err
	case <-cctx.Done():
		// Prefer a completion that raced the deadline.
		select {
		case err := <-done:
			return err
		default:
		}
		ctx.expire()
		return &TimeoutError{Rule: r.name, Timeout: e.actionTimeout}
	}
}

// invokeAction is the recover wrapper around the user action.
func (e *Engine) invokeAction(r *rule, ctx *ActionContext) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &ActionPanicError{Rule: r.name, Value: p, Stack: debug.Stack()}
		}
	}()
	return r.action(ctx)
}

// actionGate is the expiry handshake embedded in ActionContext. Engine
// mutations by the action hold the mutex; the timeout path marks expiry
// under the same mutex, so once expire returns, no mutation is in flight
// and none can start.
type actionGate struct {
	mu      sync.Mutex
	expired bool
}

// expire marks the gate, waiting out any in-flight mutation.
func (c *ActionContext) expire() {
	c.gate.mu.Lock()
	c.gate.expired = true
	c.gate.mu.Unlock()
}
