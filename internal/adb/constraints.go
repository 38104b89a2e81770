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
// rejected, so the verdict, the constraint named and the step count never
// depend on the worker count or on goroutine scheduling.
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
	s := e.takeScratch()
	defer e.putScratch(s)
	s.verdicts = sized(s.verdicts, len(constraints))
	verdicts := s.verdicts
	d := dirtySet{known: true, items: changed}
	at := e.hist.Len() // the index the state will have if it is accepted
	e.stampDirty(at, changed, false)
	e.deal(len(constraints), func(i int) {
		r := constraints[i]
		r.ev.Mark()
		res, err := e.step(r, tentative, at, d)
		verdicts[i] = verdict{fired: res.Fired, err: err}
	})
	e.mu.Lock() // concurrent EvalSteps readers
	e.evalSteps += int64(len(constraints))
	e.mu.Unlock()
	for i, r := range constraints {
		v := verdicts[i]
		if v.err == nil && !v.fired {
			continue
		}
		e.rollbackConstraints()
		if v.err != nil {
			return nil, fmt.Errorf("adb: constraint %s: %w", r.name, v.err)
		}
		return r, nil
	}
	return nil, nil
}

// rollbackConstraints undoes the tentative step checkConstraints took.
func (e *Engine) rollbackConstraints() {
	for _, r := range e.constraints {
		r.ev.Rollback()
	}
}

// verdict is one constraint's answer on the tentative commit state.
type verdict struct {
	fired bool
	err   error
}
