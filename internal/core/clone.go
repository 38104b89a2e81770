package core

import (
	"maps"
	"slices"

	"ptlactive/internal/ptl"
)

// Clone returns an independent copy of the evaluator sharing no mutable
// state with the original. Constraint nodes are immutable, so the stored
// F_{g,i} DAGs are shared structurally; only the maps and aggregate
// buffers are copied. The clone seeds an intern table of its own from
// those DAGs on its first step.
//
// The valid-time monitor (internal/vtime) checkpoints evaluators this way;
// Mark and Rollback below clone the aggregate machines with it.
func (e *Evaluator) Clone() *Evaluator {
	c := &Evaluator{
		info:      e.info,
		reg:       e.reg,
		log:       e.log,
		sincePrev: maps.Clone(e.sincePrev),
		lastPrev:  maps.Clone(e.lastPrev),
		aggs:      make(map[*ptl.Agg]*aggState, len(e.aggs)),
		aggOrder:  e.aggOrder,
		optimize:  e.optimize,
		steps:     e.steps,
		// The query cache starts empty (it refills on the clone's first
		// unhinted step).
		qc: e.qc.empty(),
	}
	for k, v := range e.aggs {
		c.aggs[k] = v.clone()
	}
	return c
}

// evalUndo is what Mark saves. Constraint nodes are immutable, so the
// registers are copied shallowly, into maps reused from mark to mark; the
// aggregate machines, which mutate in place, are cloned (in aggOrder).
type evalUndo struct {
	since map[*ptl.Since]*cnode
	last  map[*ptl.Lasttime]*cnode
	aggs  []*aggState
	steps int
}

// Mark implements ConditionEvaluator.
func (e *Evaluator) Mark() {
	if e.undo == nil {
		e.undo = &evalUndo{since: map[*ptl.Since]*cnode{}, last: map[*ptl.Lasttime]*cnode{}}
	}
	u := e.undo
	maps.Copy(u.since, e.sincePrev)
	maps.Copy(u.last, e.lastPrev)
	u.aggs = u.aggs[:0]
	for _, a := range e.aggOrder {
		u.aggs = append(u.aggs, e.aggs[a].clone())
	}
	u.steps = e.steps
}

// Rollback implements ConditionEvaluator. The saved aggregate machines
// become the live ones (their sub-evaluators start with empty query caches).
func (e *Evaluator) Rollback() {
	u := e.undo
	maps.Copy(e.sincePrev, u.since)
	maps.Copy(e.lastPrev, u.last)
	for i, a := range e.aggOrder {
		e.aggs[a] = u.aggs[i]
	}
	e.steps = u.steps
	e.qc.reset()
}

func (s *aggState) clone() *aggState {
	samples, times := s.live()
	c := &aggState{
		agg:     s.agg,
		started: s.started,
		samples: slices.Clone(samples),
		times:   slices.Clone(times),
		sum:     s.sum,
		count:   s.count,
	}
	if s.startEv != nil {
		c.startEv = s.startEv.Clone()
	}
	c.sampEv = s.sampEv.Clone()
	return c
}
