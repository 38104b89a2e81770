package adb

import (
	"encoding/json"
	"errors"
	"fmt"

	"ptlactive/internal/core"
	"ptlactive/internal/histio"
	"ptlactive/internal/history"
	"ptlactive/internal/persist"
	"ptlactive/internal/ptl"
	"ptlactive/internal/value"
)

// buildSnapshot captures the engine's full durable state: the retained
// history window, each rule's registration and evaluator registers (the
// bounded F_{g,i} state of Theorem 1) and the firing and execution logs.
func (e *Engine) buildSnapshot() (*persist.EngineSnapshot, error) {
	if e.busy {
		// Some rules' outcomes are stepped but not merged yet.
		return nil, ErrReentrant
	}
	if e.inSweep {
		return nil, fmt.Errorf("adb: snapshot during sweep")
	}
	if len(e.pending) > 0 {
		return nil, fmt.Errorf("adb: snapshot with %d pending actions", len(e.pending))
	}
	init, err := e.initRecord()
	if err != nil {
		return nil, err
	}
	snap := &persist.EngineSnapshot{
		Init:      init,
		Epoch:     e.epoch,
		Base:      e.base,
		Now:       e.now,
		NextTxn:   e.nextTxn,
		EvalSteps: e.evalSteps,
	}
	for i := 0; i < e.hist.Len(); i++ {
		line, err := histio.EncodeState(e.hist.At(i))
		if err != nil {
			return nil, fmt.Errorf("adb: snapshot state %d: %w", i, err)
		}
		snap.History = append(snap.History, line)
	}
	for _, r := range e.rules {
		e.settle(r) // a resting rule stays parked
		ev, err := core.EncodeEvaluatorState(r.ev)
		if err != nil {
			return nil, fmt.Errorf("adb: snapshot rule %s: %w", r.name, err)
		}
		rs := persist.RuleSnapshot{
			Name:        r.name,
			Text:        r.condition.String(),
			Constraint:  r.constraint,
			Sched:       int(r.sched),
			Cursor:      e.cursorOf(r),
			Eval:        ev,
			Quarantined: r.health.quarantined,
			ConsecFails: r.health.consecutive,
			TotalFails:  r.health.total,
			LastFailAt:  r.health.lastAt,
		}
		if r.health.lastErr != nil {
			rs.LastFailure = r.health.lastErr.Error()
		}
		if r.class == classQuiescent && r.rest.ok {
			rs.MemoValid = true
			rs.MemoFired = r.rest.fired
			for _, b := range r.rest.bindings {
				raw, err := histio.EncodeItems(b)
				if err != nil {
					return nil, fmt.Errorf("adb: snapshot rule %s memo: %w", r.name, err)
				}
				rs.MemoBindings = append(rs.MemoBindings, raw)
			}
		}
		snap.Rules = append(snap.Rules, rs)
	}
	if snap.Firings, err = e.firings.snapshot(); err != nil {
		return nil, err
	}
	for _, r := range e.rules {
		for _, ex := range r.execs {
			rec := persist.ExecutionSnapshot{Rule: ex.Rule, Time: ex.Time}
			for _, p := range ex.Params {
				raw, err := histio.EncodeValue(p)
				if err != nil {
					return nil, fmt.Errorf("adb: snapshot execution %s: %w", ex.Rule, err)
				}
				rec.Params = append(rec.Params, raw)
			}
			snap.Execs = append(snap.Execs, rec)
		}
	}
	return snap, nil
}

// engineFromSnapshot rebuilds an engine from a snapshot: history, rules
// with their evaluator registers and cursors, and the firing and execution
// logs. A snapshot written before the engine read past values from its
// history states may carry a "tracked" section of auxiliary-relation rows;
// that was derived data, and decoding ignores it.
func engineFromSnapshot(cfg Config, snap *persist.EngineSnapshot) (*Engine, error) {
	e, err := engineFromInit(cfg, snap.Init)
	if err != nil {
		return nil, err
	}
	h := history.New()
	for i, line := range snap.History {
		st, err := histio.DecodeState(line)
		if err != nil {
			return nil, fmt.Errorf("adb: snapshot state %d: %w", i, err)
		}
		if err := h.Append(st); err != nil {
			return nil, fmt.Errorf("adb: snapshot state %d: %w", i, err)
		}
	}
	last, _ := h.Last()
	if snap.Now != last.TS {
		return nil, fmt.Errorf("adb: snapshot clock %d does not match last state %d", snap.Now, last.TS)
	}
	e.hist = h
	// The snapshot does not carry per-state dirty sets, so every restored
	// state gets an unknown one: a catch-up step over the restored window
	// runs without the dbUnchanged hint, which costs query evaluations and
	// never changes a result. (A rebuild by value would be wrong: Int 8 and
	// Float 8 compare equal, so a hint could keep a cached value of the
	// wrong kind.)
	e.dirty = make([]dirtySet, h.Len())
	e.db = last.DB
	e.now = snap.Now
	e.base = snap.Base
	e.nextTxn = snap.NextTxn
	e.evalSteps = snap.EvalSteps
	e.epoch = snap.Epoch

	for _, rs := range snap.Rules {
		f, err := decodeRule(rs.Text, rs.Sched)
		if err != nil {
			return nil, fmt.Errorf("adb: snapshot rule %s: %w", rs.Name, err)
		}
		if err := e.add(rs.Name, f, e.actionFor(rs.Name), rs.Constraint, WithScheduling(Scheduling(rs.Sched))); err != nil {
			return nil, err
		}
		r := e.index[rs.Name]
		// The encoded kind picks the evaluator: a parameterised rule saved
		// as a constraint graph resumes on the general evaluator.
		ev, err := core.RestoreEvaluatorState(r.ev, rs.Eval)
		if err != nil {
			return nil, fmt.Errorf("adb: snapshot rule %s: %w", rs.Name, err)
		}
		r.ev = ev.(core.HintedEvaluator)
		r.cursor = rs.Cursor
		// A quiescent rule's rest record travels with the snapshot (as its
		// memo) so the recovered engine makes the same replay-vs-evaluate
		// decisions the original would have (and so EvalSteps counts alike).
		// Every other rule's restored evaluator is at no fixpoint yet, so it
		// keeps the new rule's invalid record.
		if rs.MemoValid && r.class == classQuiescent {
			r.rest = restRecord{ok: true, fired: rs.MemoFired}
			for i, raw := range rs.MemoBindings {
				items, err := histio.DecodeItems(raw)
				if err != nil {
					return nil, fmt.Errorf("adb: snapshot rule %s memo binding %d: %w", rs.Name, i, err)
				}
				r.rest.bindings = append(r.rest.bindings, core.Binding(items))
			}
		}
		// Health travels with the snapshot: a quarantined rule stays
		// suppressed after recovery, and the failure run resumes where it
		// stood — replay reproduces the original run's governance decisions.
		r.health = ruleHealth{
			quarantined: rs.Quarantined,
			consecutive: rs.ConsecFails,
			total:       rs.TotalFails,
			lastAt:      rs.LastFailAt,
		}
		if rs.LastFailure != "" {
			r.health.lastErr = errors.New(rs.LastFailure)
		}
	}

	if err := e.firings.restore(snap.Firings); err != nil {
		return nil, err
	}
	for _, ex := range snap.Execs {
		r := e.index[ex.Rule]
		if r == nil {
			return nil, fmt.Errorf("adb: snapshot execution of unknown rule %s", ex.Rule)
		}
		if r.action == nil {
			// Written when every firing of an action-less rule was logged
			// as an execution; replay records none.
			continue
		}
		var params []value.Value
		for i, raw := range ex.Params {
			v, err := histio.DecodeValue(raw)
			if err != nil {
				return nil, fmt.Errorf("adb: snapshot execution %s param %d: %w", ex.Rule, i, err)
			}
			params = append(params, v)
		}
		r.execs = append(r.execs, ptl.Execution{Rule: ex.Rule, Params: params, Time: ex.Time})
	}
	return e, nil
}

// snapshot writes the log's firings in wire form, straight from the rows:
// the bytes EncodeItems writes for the same bindings (a closed firing's
// binding is omitted).
func (l *FiringLog) snapshot() ([]persist.FiringSnapshot, error) {
	if l.n == 0 {
		return nil, nil
	}
	out := make([]persist.FiringSnapshot, l.n)
	for i := range out {
		r := l.row(i)
		fs := persist.FiringSnapshot{Rule: r.shape.rule, Time: r.time, StateIndex: r.state}
		if vals := l.values(r); len(vals) > 0 {
			fs.Binding = make(map[string]json.RawMessage, len(vals))
			for j, v := range vals {
				raw, err := histio.EncodeValue(v)
				if err != nil {
					return nil, fmt.Errorf("adb: snapshot firing %s: histio: item %s: %w", fs.Rule, r.shape.names[j], err)
				}
				fs.Binding[r.shape.names[j]] = raw
			}
		}
		out[i] = fs
	}
	return out, nil
}

// restore appends a snapshot's firings as rows.
func (l *FiringLog) restore(fs []persist.FiringSnapshot) error {
	var vals []value.Value
	for _, f := range fs {
		names := sortedKeys(f.Binding)
		vals = vals[:0]
		for _, name := range names {
			v, err := histio.DecodeValue(f.Binding[name])
			if err != nil {
				return fmt.Errorf("adb: snapshot firing %s: histio: item %s: %w", f.Rule, name, err)
			}
			vals = append(vals, v)
		}
		copy(l.add(l.intern(f.Rule, names), f.Time, f.StateIndex), vals)
	}
	return nil
}
