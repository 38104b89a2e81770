package core

import (
	"ptlactive/internal/history"
	"ptlactive/internal/ptl"
	"ptlactive/internal/query"
	"ptlactive/internal/value"
)

// Query-result caching across states. A registered query that is pure
// (query.Registry.Pure) and whose arguments are stable — built from
// constants and other cacheable calls, never from variables or aggregates
// — evaluates to the same value at every state with the same database.
// The engine knows which appended states leave the database untouched
// (event-only states, and replayed states a rule's read set is disjoint
// from), and passes that down through StepResultHinted; the evaluator
// then reuses the cached results instead of re-running the query.

// HintedEvaluator is implemented by evaluators that can exploit the
// engine's knowledge that the database portion of the state stream is
// unchanged since the previous state this evaluator stepped.
type HintedEvaluator interface {
	ConditionEvaluator
	// StepResultHinted is StepResult with a validity hint: dbUnchanged
	// asserts that every database item read by this condition has the
	// same value as at the previously stepped state. The hint never
	// changes results — it only allows query-cache reuse.
	StepResultHinted(st history.SystemState, dbUnchanged bool) (Result, error)
}

// queryCache is both evaluators' one definition of "valid while the database
// is unchanged": a numbered slot per cacheable call of a condition, emptied
// (reset) by every step that arrives without the hint and by Rollback.
// slots is immutable after newQueryCache and shared by clones.
type queryCache struct {
	slots map[*ptl.Call]int
	vals  []value.Value
	ok    []bool
}

// newQueryCache numbers the calls of f whose result may be cached while the
// database is unchanged: the function must be pure and every argument stable
// (constants, arithmetic over stable terms, or nested cacheable calls —
// never variables, aggregates, or the timestamp-reading "time").
func newQueryCache(f ptl.Formula, reg *query.Registry) queryCache {
	c := queryCache{}
	if reg == nil {
		return c
	}
	c.slots = make(map[*ptl.Call]int)
	var stable func(t ptl.Term) bool
	stable = func(t ptl.Term) bool {
		switch x := t.(type) {
		case *ptl.Const:
			return true
		case *ptl.Arith:
			return stable(x.L) && stable(x.R)
		case *ptl.Neg:
			return stable(x.X)
		case *ptl.Call:
			if _, numbered := c.slots[x]; numbered {
				return true
			}
			if !reg.Pure(x.Fn) {
				return false
			}
			for _, a := range x.Args {
				if !stable(a) {
					return false
				}
			}
			c.slots[x] = len(c.slots)
			return true
		default: // Var, Agg: value changes per binding / per state
			return false
		}
	}
	ptl.WalkTerms(f, func(t ptl.Term) {
		if call, ok := t.(*ptl.Call); ok {
			stable(call)
		}
	})
	return c.empty()
}

// empty returns a cache over the same calls holding nothing.
func (c *queryCache) empty() queryCache {
	return queryCache{slots: c.slots, vals: make([]value.Value, len(c.slots)), ok: make([]bool, len(c.slots))}
}

// slotOf is x's slot, negative when x's result may not be cached.
func (c *queryCache) slotOf(x *ptl.Call) int {
	if slot, cacheable := c.slots[x]; cacheable {
		return slot
	}
	return -1
}

func (c *queryCache) reset() { clear(c.ok) }

func (c *queryCache) get(slot int) (value.Value, bool) { return c.vals[slot], c.ok[slot] }

func (c *queryCache) put(slot int, v value.Value) { c.vals[slot], c.ok[slot] = v, true }
