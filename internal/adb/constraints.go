package adb

import (
	"errors"
	"fmt"
	"math"

	"ptlactive/internal/core"
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
// in changed, to the constraints: it catches up whichever awake evaluators
// lag (after Emit states, or registered since the last commit), then marks
// and steps each awake constraint's own evaluator over the state. It returns
// the first violated constraint in rule registration order (nil when the
// commit may proceed). On a violation or an evaluator error every step is
// rolled back, so the attempt leaves no trace in the temporal component; an
// accepted step stands — appendState moves the cursors past the state once
// it is in the history, and no sweep evaluates it again.
// A constraint at a false fixpoint rests (restConstraints): every step it
// would take replays false until the state writes an item it reads, so its
// steps are counted, and the tentative state's dirty marks (stampDirty) wake
// the ones it touches. Every constraint is charged a step whether or not an
// earlier one already rejected, so a rejected commit charges each one step.
// The steps call registered query functions, so the engine is busy while
// they run.
func (e *Engine) checkConstraints(tentative history.SystemState, changed []string) (*rule, error) {
	if len(e.constraints) == 0 {
		return nil, nil
	}
	at := e.hist.Len() // the index the state will have if it is accepted
	// The resting constraints' steps over the states since the last commit
	// or abort state.
	e.mu.Lock()
	e.evalSteps += e.parkedConstraints.pass(at, e.now)
	e.mu.Unlock()
	for _, r := range e.awake {
		if r.cursor < at {
			if err := e.advanceRules(e.awake, at); err != nil {
				return nil, err
			}
			break
		}
	}
	d := dirtySet{known: true, items: changed}
	e.mu.Lock()
	e.restConstraints()
	e.stampDirty(at, changed, true)
	e.mu.Unlock()
	var violated *rule
	var firstErr error
	e.busy = true
	defer func() { e.busy = false }()
	for _, r := range e.awake {
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
	e.evalSteps += int64(len(e.constraints))
	e.mu.Unlock()
	if violated != nil || firstErr != nil {
		e.rollbackConstraints()
	}
	return violated, firstErr
}

// restConstraints parks every awake constraint whose last step, at the
// newest state, reached a false fixpoint of a pure condition without a
// deadline: it reads no event or impure query, no clock but through time
// bounds with no sample to expire, and moved no register, so each later
// step passed the dbUnchanged hint replays false. A state passes the hint
// unless it writes an item the constraint reads, and that write's tentative
// stamp reaches the constraint through itemIndex and wakes it (unpark), so
// only indexed, contiguous constraints rest. A resting constraint keeps the
// index it came to rest at in its cursor field, behind parkedConstraints'
// cursor (settle). The coarse engine steps every constraint. The
// caller holds mu, and every awake constraint is caught up.
func (e *Engine) restConstraints() {
	if e.coarse {
		return
	}
	awake := e.awake[:0]
	for _, r := range e.awake {
		if r.rest.ok && !r.rest.fired && r.indexed && r.contiguous && r.rest.until == math.MaxInt64 {
			r.parked = true
			r.group.n++
			continue
		}
		awake = append(awake, r)
	}
	clear(e.awake[len(awake):])
	e.awake = awake
}

// rollbackConstraints undoes the tentative step checkConstraints took, and
// with it the rest record the step wrote on each rule.
func (e *Engine) rollbackConstraints() {
	for _, r := range e.awake {
		r.ev.Rollback()
		if fast, ok := r.ev.(*core.FastEvaluator); ok {
			fixed, last, until := fast.Fixpoint()
			r.rest = restRecord{ok: fixed, fired: last, until: until}
		}
	}
}
