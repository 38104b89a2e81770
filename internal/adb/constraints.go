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

// checkConstraints catches every constraint's evaluator up to the present
// and steps a clone of each against the tentative commit state, so an abort
// leaves no trace in the temporal component. It returns the first violated
// constraint in rule registration order (nil when the commit may proceed).
// Every constraint is stepped whether or not an earlier one already
// rejected, so the verdict, the constraint named and the step count never
// depend on the worker count or on goroutine scheduling.
func (e *Engine) checkConstraints(tentative history.SystemState) (*rule, error) {
	constraints := e.constraints
	if len(constraints) == 0 {
		return nil, nil
	}
	if err := e.advanceRules(constraints, e.hist.Len()); err != nil {
		return nil, err
	}
	s := e.takeScratch()
	defer e.putScratch(s)
	s.verdicts = sized(s.verdicts, len(constraints))
	verdicts := s.verdicts
	e.deal(len(constraints), func(i int) {
		res, err := constraints[i].ev.CloneEvaluator().StepResult(tentative)
		verdicts[i] = verdict{fired: res.Fired, err: err}
	})
	e.mu.Lock() // concurrent EvalSteps readers
	e.evalSteps += int64(len(constraints))
	e.mu.Unlock()
	for i, r := range constraints {
		if verdicts[i].err != nil {
			return nil, fmt.Errorf("adb: constraint %s: %w", r.name, verdicts[i].err)
		}
		if verdicts[i].fired {
			return r, nil
		}
	}
	return nil, nil
}

// verdict is one constraint's answer on the tentative commit state.
type verdict struct {
	fired bool
	err   error
}
