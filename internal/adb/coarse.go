package adb

import (
	"ptlactive/internal/event"
	"ptlactive/internal/history"
)

// NewCoarseEngine is NewEngine with the read-set index switched off: every
// rule is classExact and each sweep applies the paper's coarse Section-8
// relevance filter — every database-reading rule is evaluated at every
// commit, with no event gating, quiescent replay or query-cache hints.
// Firings are identical either way; only the work differs. It is the
// reference TestIndexedSweepEquivalence checks the indexed sweep against
// and the E12 ablation arm, and deliberately not a Config field: the choice
// is never persisted, and no durable engine can run coarse (NewEngine
// panics on a durable Config; Restore has no way to ask for it).
func NewCoarseEngine(cfg Config) *Engine {
	e := NewEngine(cfg)
	e.coarse = true
	return e
}

// sweepCoarse is the sweep of a coarse engine: the Section-8 filter decides
// per rule, and every woken rule is evaluated.
func (e *Engine) sweepCoarse(newest int, st history.SystemState) error {
	var jobs []*rule
	for _, r := range e.rules {
		if r.constraint {
			// Constraints advance lazily, at commits and aborts — and a commit
			// they accepted has stepped them already (checkConstraints).
			if (st.Events.CommitCount() > 0 || len(st.Events.ByName(event.TransactionAbort)) > 0) && r.cursor <= newest {
				jobs = append(jobs, r)
			}
			continue
		}
		// Manual rules advance only on Flush.
		if r.sched == Eager || r.sched == Relevant && e.relevant(r, st) {
			jobs = append(jobs, r)
		}
	}
	return e.advanceRules(jobs, newest+1)
}

// relevant implements the Section-8 filter: a state concerns a rule when
// it carries one of the rule's event symbols, or it is a commit point and
// the rule reads the database.
func (e *Engine) relevant(r *rule, st history.SystemState) bool {
	for _, name := range st.Events.Names() {
		if r.events[name] {
			return true
		}
	}
	if r.readsDB && st.Events.CommitCount() > 0 {
		return true
	}
	// Rules with neither events nor database reads (pure time conditions)
	// are always relevant.
	if len(r.events) == 0 && !r.readsDB {
		return true
	}
	return false
}
