package adb

import (
	"errors"
	"fmt"

	"ptlactive/internal/core"
	"ptlactive/internal/histio"
	"ptlactive/internal/history"
	"ptlactive/internal/persist"
	"ptlactive/internal/ptl"
	"ptlactive/internal/relation"
	"ptlactive/internal/value"
)

// buildSnapshot captures the engine's full durable state: the retained
// history window, each rule's registration and evaluator registers (the
// bounded F_{g,i} state of Theorem 1), the firing and execution logs and
// the tracked auxiliary relations.
func (e *Engine) buildSnapshot() (*persist.EngineSnapshot, error) {
	if e.inSweep {
		return nil, fmt.Errorf("adb: snapshot during sweep")
	}
	if len(e.pending) > 0 {
		return nil, fmt.Errorf("adb: snapshot with %d pending actions", len(e.pending))
	}
	snap := &persist.EngineSnapshot{
		Init:      e.initRec,
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
		cond, err := ptl.EncodeFormula(r.condition)
		if err != nil {
			return nil, fmt.Errorf("adb: snapshot rule %s: %w", r.name, err)
		}
		ev, err := core.EncodeEvaluatorState(r.ev)
		if err != nil {
			return nil, fmt.Errorf("adb: snapshot rule %s: %w", r.name, err)
		}
		rs := persist.RuleSnapshot{
			Name:        r.name,
			Cond:        cond,
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
		if r.memoValid {
			rs.MemoValid = true
			rs.MemoFired = r.memoFired
			for _, b := range r.memoBindings {
				raw, err := histio.EncodeItems(b)
				if err != nil {
					return nil, fmt.Errorf("adb: snapshot rule %s memo: %w", r.name, err)
				}
				rs.MemoBindings = append(rs.MemoBindings, raw)
			}
		}
		snap.Rules = append(snap.Rules, rs)
	}
	for _, f := range e.firings {
		binding, err := histio.EncodeItems(f.Binding)
		if err != nil {
			return nil, fmt.Errorf("adb: snapshot firing %s: %w", f.Rule, err)
		}
		snap.Firings = append(snap.Firings, persist.FiringSnapshot{
			Rule:       f.Rule,
			Binding:    binding,
			Time:       f.Time,
			StateIndex: f.StateIndex,
		})
	}
	for _, ex := range e.execs {
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
	for _, name := range e.trackedNames {
		rows, last, captured := e.tracked[name].SnapshotRows()
		aux := persist.AuxSnapshot{Item: name, LastCapture: last, Captured: captured}
		for _, r := range rows {
			iv := persist.IntervalJSON{Start: r.Start, End: r.End}
			for _, v := range r.Tuple {
				raw, err := histio.EncodeValue(v)
				if err != nil {
					return nil, fmt.Errorf("adb: snapshot aux %s: %w", name, err)
				}
				iv.Tuple = append(iv.Tuple, raw)
			}
			aux.Rows = append(aux.Rows, iv)
		}
		snap.Tracked = append(snap.Tracked, aux)
	}
	return snap, nil
}

// engineFromSnapshot rebuilds an engine from a snapshot: history, rules
// with their evaluator registers and cursors, firing and execution logs,
// and the tracked auxiliary relations.
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
	// The snapshot does not carry per-state dirty sets, but they are
	// reconstructible: diff each restored state against its predecessor.
	// (States decoded from one snapshot share no structure, so each pair
	// costs a sorted merge — paid once, at recovery.) Item-level read-set
	// refinement and the dbUnchanged evaluator hint then apply to the
	// restored window exactly as before the restart; the diff is by value,
	// which is sound for both refinements — they only require that the
	// items a rule reads carry the same values, not that no write touched
	// them. The window's first state keeps an unknown dirty set: its
	// predecessor is outside the snapshot.
	e.dirty = make([]dirtySet, h.Len())
	for i := 1; i < h.Len(); i++ {
		d := dirtySet{known: true}
		h.At(i).DB.Diff(h.At(i-1).DB, func(name string) bool {
			d.items = append(d.items, name)
			return true
		})
		e.dirty[i] = d
	}
	e.db = last.DB
	e.now = snap.Now
	// The snapshot was taken after the retention prunes up to its clock;
	// resume the floor there so refusals pick up exactly where they stood
	// (replayed commits advance it further via maybeRetain).
	if w := e.retention.HistoryWindow; w > 0 {
		e.histFloor.Store(snap.Now - w)
	}
	e.base = snap.Base
	e.nextTxn = snap.NextTxn
	e.evalSteps = snap.EvalSteps
	e.epoch = snap.Epoch

	seen := map[string]bool{}
	for _, a := range snap.Tracked {
		aux, ok := e.tracked[a.Item]
		if !ok {
			return nil, fmt.Errorf("adb: snapshot tracks unlisted item %s", a.Item)
		}
		if seen[a.Item] {
			return nil, fmt.Errorf("adb: snapshot tracks %s twice", a.Item)
		}
		seen[a.Item] = true
		rows := make([]relation.IntervalRow, len(a.Rows))
		for i, r := range a.Rows {
			tuple := make([]value.Value, len(r.Tuple))
			for j, raw := range r.Tuple {
				if tuple[j], err = histio.DecodeValue(raw); err != nil {
					return nil, fmt.Errorf("adb: snapshot aux %s row %d: %w", a.Item, i, err)
				}
			}
			rows[i] = relation.IntervalRow{Tuple: tuple, Start: r.Start, End: r.End}
		}
		if err := aux.RestoreRows(rows, a.LastCapture, a.Captured); err != nil {
			return nil, fmt.Errorf("adb: snapshot aux %s: %w", a.Item, err)
		}
	}
	if len(seen) != len(e.trackedNames) {
		return nil, fmt.Errorf("adb: snapshot covers %d of %d tracked items", len(seen), len(e.trackedNames))
	}

	for _, rs := range snap.Rules {
		f, err := decodeRule(rs.Cond, rs.Sched)
		if err != nil {
			return nil, fmt.Errorf("adb: snapshot rule %s: %w", rs.Name, err)
		}
		if err := e.add(rs.Name, f, e.actionFor(rs.Name), rs.Constraint, WithScheduling(Scheduling(rs.Sched))); err != nil {
			return nil, err
		}
		r := e.index[rs.Name]
		if err := core.RestoreEvaluatorState(r.ev, rs.Eval); err != nil {
			return nil, fmt.Errorf("adb: snapshot rule %s: %w", rs.Name, err)
		}
		r.cursor = rs.Cursor
		// The quiescent-replay memo travels with the snapshot so the
		// recovered engine makes the same replay-vs-evaluate decisions the
		// original would have (and so their step counts stay comparable).
		if rs.MemoValid {
			r.memoValid = true
			r.memoFired = rs.MemoFired
			for i, raw := range rs.MemoBindings {
				items, err := histio.DecodeItems(raw)
				if err != nil {
					return nil, fmt.Errorf("adb: snapshot rule %s memo binding %d: %w", rs.Name, i, err)
				}
				r.memoBindings = append(r.memoBindings, core.Binding(items))
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

	for _, f := range snap.Firings {
		var binding core.Binding
		if len(f.Binding) > 0 {
			items, err := histio.DecodeItems(f.Binding)
			if err != nil {
				return nil, fmt.Errorf("adb: snapshot firing %s: %w", f.Rule, err)
			}
			binding = core.Binding(items)
		}
		e.firings = append(e.firings, Firing{Rule: f.Rule, Binding: binding, Time: f.Time, StateIndex: f.StateIndex})
	}
	for _, ex := range snap.Execs {
		var params []value.Value
		for i, raw := range ex.Params {
			v, err := histio.DecodeValue(raw)
			if err != nil {
				return nil, fmt.Errorf("adb: snapshot execution %s param %d: %w", ex.Rule, i, err)
			}
			params = append(params, v)
		}
		e.execs = append(e.execs, ptl.Execution{Rule: ex.Rule, Params: params, Time: ex.Time})
	}
	e.rebuildExecIdxLocked()
	return e, nil
}
