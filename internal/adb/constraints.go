package adb

import (
	"errors"
	"fmt"

	"ptlactive/internal/history"
)

// ErrConstraintViolation is returned (wrapped) by Txn.Commit when a
// temporal integrity constraint rejects the transaction.
var ErrConstraintViolation = errors.New("integrity constraint violated")

// ConstraintError carries the violated constraint's name.
type ConstraintError struct {
	Constraint string
	Txn        int64
}

// Error describes the violation.
func (e *ConstraintError) Error() string {
	return fmt.Sprintf("adb: transaction %d aborted: %s: %v", e.Txn, e.Constraint, ErrConstraintViolation)
}

// Unwrap yields ErrConstraintViolation for errors.Is.
func (e *ConstraintError) Unwrap() error { return ErrConstraintViolation }

// checkConstraints puts the tentative commit state, which writes the items
// in changed, to every constraint: it catches up whichever evaluators lag
// (after Emit states, or registered since the last commit), then marks and
// steps each constraint's own evaluator over the state. It returns the
// first violated constraint in rule registration order (nil when the commit
// may proceed). On a violation or an evaluator error every step is rolled
// back, so the attempt leaves no trace in the temporal component; an
// accepted step stands — appendState moves the cursors past the state once
// it is in the history, and no sweep evaluates it again.
// Every constraint is stepped whether or not an earlier one already
// rejected, so a rejected commit charges each constraint one step.
func (e *Engine) checkConstraints(tentative history.SystemState, changed []string) (*rule, error) {
	constraints := e.constraints
	if len(constraints) == 0 {
		return nil, nil
	}
	for _, r := range constraints {
		if r.cursor < e.hist.Len() {
			if err := e.advanceRules(constraints, e.hist.Len()); err != nil {
				return nil, err
			}
			break
		}
	}
	d := dirtySet{known: true, items: changed}
	at := e.hist.Len() // the index the state will have if it is accepted
	e.stampDirty(at, changed, false)
	var violated *rule
	var firstErr error
	for _, r := range constraints {
		r.ev.Mark()
		res, err := e.step(r, tentative, at, d)
		if violated == nil && firstErr == nil {
			switch {
			case err != nil:
				firstErr = fmt.Errorf("adb: constraint %s: %w", r.name, err)
			case res.Fired:
				violated = r
			}
		}
	}
	e.mu.Lock() // concurrent EvalSteps readers
	e.evalSteps += int64(len(constraints))
	e.mu.Unlock()
	if violated != nil || firstErr != nil {
		e.rollbackConstraints()
	}
	return violated, firstErr
}

// rollbackConstraints undoes the tentative step checkConstraints took.
func (e *Engine) rollbackConstraints() {
	for _, r := range e.constraints {
		r.ev.Rollback()
	}
}
