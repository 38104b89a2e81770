package adb

import (
	"errors"
	"fmt"
)

// Sentinel errors of the fault-isolation layer. Concrete failures are
// carried by the typed errors below; these sentinels are what callers
// match with errors.Is.
var (
	// ErrRuleQuarantined reports a rule whose action is suppressed by the
	// per-rule circuit breaker (Config.MaxRuleFailures); its condition is
	// still maintained and its firings still recorded.
	ErrRuleQuarantined = errors.New("rule quarantined")
	// ErrActionPanic reports a user action that panicked; the panic was
	// recovered by the sandbox and the sweep continued.
	ErrActionPanic = errors.New("action panicked")
	// ErrDegraded reports an engine sealed into read-only degraded mode
	// (after a durability fault or a broken internal invariant): reader
	// accessors keep working on the intact in-memory state, mutating
	// operations are refused.
	ErrDegraded = errors.New("engine degraded (read-only)")
	// ErrReentrant reports a mutator called while the engine runs code it
	// does not own on the committing goroutine: an OnFiring observer, or a
	// registered query function a rule or constraint step calls. Those
	// only observe; the one way to update from a firing is the rule's
	// action, which runs after the temporal component (Section 8).
	ErrReentrant = errors.New("engine mutator called from inside its temporal component")
	// ErrReservedItem reports a transaction that writes or deletes the item
	// time, which every state answers with its timestamp, or an initial
	// state (Config.Initial) that sets it.
	ErrReservedItem = errors.New("the reserved item time cannot be written")
	// ErrInternal reports a broken engine invariant (a must-not-fail encode
	// path that failed anyway).
	ErrInternal = errors.New("internal invariant violated")
)

// ActionPanicError is the sandboxed form of a panic recovered from a user
// action: the recovered value plus the goroutine stack at the panic site.
type ActionPanicError struct {
	Rule  string
	Value any
	Stack []byte
}

// Error describes the panic.
func (e *ActionPanicError) Error() string {
	return fmt.Sprintf("adb: action of %s: %v: %v", e.Rule, ErrActionPanic, e.Value)
}

// Unwrap yields ErrActionPanic for errors.Is.
func (e *ActionPanicError) Unwrap() error { return ErrActionPanic }

// QuarantineError reports a firing whose action was suppressed because the
// rule is quarantined; Cause is the failure that tripped the breaker.
type QuarantineError struct {
	Rule     string
	Failures int
	Cause    error
}

// Error describes the suppression.
func (e *QuarantineError) Error() string {
	return fmt.Sprintf("adb: rule %s: %v after %d consecutive action failures", e.Rule, ErrRuleQuarantined, e.Failures)
}

// Unwrap yields ErrRuleQuarantined and the tripping failure for
// errors.Is/As.
func (e *QuarantineError) Unwrap() []error {
	if e.Cause == nil {
		return []error{ErrRuleQuarantined}
	}
	return []error{ErrRuleQuarantined, e.Cause}
}

// DegradedError seals the engine read-only; Cause is the durability fault
// or invariant violation that forced the seal.
type DegradedError struct {
	Cause error
}

// Error describes the seal.
func (e *DegradedError) Error() string {
	return fmt.Sprintf("adb: %v: %v", ErrDegraded, e.Cause)
}

// Unwrap yields ErrDegraded and the sealing cause for errors.Is/As.
func (e *DegradedError) Unwrap() []error { return []error{ErrDegraded, e.Cause} }

// InternalError reports a failure on a path the engine's invariants say
// cannot fail (the initial-database encode); it wraps the cause.
type InternalError struct {
	Op  string
	Err error
}

// Error describes the violation.
func (e *InternalError) Error() string {
	return fmt.Sprintf("adb: %s: %v: %v", e.Op, ErrInternal, e.Err)
}

// Unwrap yields ErrInternal and the cause for errors.Is/As.
func (e *InternalError) Unwrap() []error { return []error{ErrInternal, e.Err} }
