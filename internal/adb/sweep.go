package adb

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ptlactive/internal/core"
	"ptlactive/internal/event"
	"ptlactive/internal/history"
	"ptlactive/internal/persist"
)

// Firing records one rule firing: the rule, the satisfying parameter
// binding, and the system state at which the condition held.
type Firing struct {
	Rule       string
	Binding    core.Binding
	Time       int64
	StateIndex int
}

// dirtySet records which database items one history state changed relative
// to its predecessor. known is false when the engine cannot tell (the
// initial state, states restored from a snapshot); an unknown dirty set
// disables every read-set refinement for that state but never changes
// results. items is nil for states that change nothing (events, aborts);
// it is a small slice, not a map — commits touch few items, and one slice
// allocation per commit is the whole bookkeeping cost.
type dirtySet struct {
	known bool
	items []string
}

// Flush processes every pending state for every rule (the batched
// temporal-component invocation) and executes resulting actions. This is
// the paper's "temporal component invocation ... executed for multiple
// events at the same time"; with Workers > 1 the batched catch-up is
// sharded across the worker pool.
func (e *Engine) Flush() error {
	if err := e.Degraded(); err != nil {
		return err
	}
	// Logged before the work: a flush either happened or it didn't, and a
	// mid-flush failure replays to the same failure.
	if err := e.logRecord(&persist.Record{Kind: persist.KindFlush}); err != nil {
		return err
	}
	e.cascade = 0
	var jobs []*rule
	for _, r := range e.rules {
		if !r.constraint {
			jobs = append(jobs, r)
		}
	}
	if err := e.advanceRules(jobs, e.hist.Len()); err != nil {
		return err
	}
	return e.drainActions()
}

// sweep runs the temporal component for the newest state according to each
// rule's scheduling, then executes fired actions.
func (e *Engine) sweep() error {
	if e.inSweep {
		// Re-entrant call from an action-initiated transaction: the outer
		// drainActions loop picks up the new state.
		return e.sweepOnce()
	}
	e.inSweep = true
	defer func() { e.inSweep = false }()
	if err := e.sweepOnce(); err != nil {
		return err
	}
	return e.drainActions()
}

func (e *Engine) sweepOnce() error {
	newest := e.hist.Len() - 1
	st := e.hist.At(newest)
	if e.coarse {
		return e.sweepCoarse(newest, st)
	}
	return e.sweepIndexed(newest, st)
}

// sweepJob is one rule's share of an indexed sweep: either a real
// evaluator advance or a memo replay whose outcome is computed inline.
type sweepJob struct {
	r      *rule
	replay bool
}

// sweepIndexed is the read-set refined sweep. It reproduces the wake
// decisions of the coarse filter (relevant) exactly, then strengthens
// them per rule class: gated rules woken only by a commit have their
// evaluation skipped (the condition is provably false without their
// events), and quiescent rules whose read set the commit left untouched
// replay their memoized outcome. Firings, cursors and engine state are
// byte-identical to the coarse sweep; only evaluator steps differ.
//
// The indexes turn the per-sweep cost into O(rules) pointer work plus
// O(matching rules) for the event and dirty-item marks; the expensive
// part — evaluator steps — is paid only by rules the state concerns.
func (e *Engine) sweepIndexed(newest int, st history.SystemState) error {
	end := newest + 1
	commit := st.Events.CommitCount() > 0
	aborted := len(st.Events.ByName(event.TransactionAbort)) > 0
	e.sweepGen++
	gen := e.sweepGen
	for _, name := range st.Events.Names() {
		for _, r := range e.eventIndex[name] {
			r.wakeGen = gen
		}
	}
	d := e.dirty[newest]
	if commit && d.known {
		for _, item := range d.items {
			for _, r := range e.itemIndex[item] {
				r.dirtyGen = gen
			}
		}
	}
	var jobs []sweepJob
	var bumps, invalidate []*rule
	for _, r := range e.rules {
		if r.constraint {
			if commit || aborted {
				jobs = append(jobs, sweepJob{r: r})
			}
			continue
		}
		switch r.sched {
		case Eager:
			jobs = append(jobs, sweepJob{r: r})
		case Relevant:
			eventWake := r.wakeGen == gen
			commitWake := r.readsDB && commit
			alwaysWake := len(r.events) == 0 && !r.readsDB
			if !eventWake && !commitWake && !alwaysWake {
				continue
			}
			switch {
			case r.class == classGated && !eventWake:
				// Woken by the commit alone; with none of its events in
				// the state the condition is provably false, so the only
				// effect of evaluating — the cursor jump — is applied
				// directly.
				bumps = append(bumps, r)
			case r.class == classQuiescent:
				if r.cursor >= end {
					continue
				}
				switch {
				case !d.known || r.dirtyGen == gen || !r.memoValid:
					// The memo goes stale the moment the rule is selected
					// for re-evaluation: if the evaluation errors, a later
					// clean commit must not replay the pre-change outcome.
					invalidate = append(invalidate, r)
					jobs = append(jobs, sweepJob{r: r})
				case !r.memoFired:
					// A non-firing memo replays to nothing but a cursor
					// move, which is order-independent; skip the job
					// machinery and batch it with the gated bumps.
					bumps = append(bumps, r)
				default:
					jobs = append(jobs, sweepJob{r: r, replay: true})
				}
			default:
				jobs = append(jobs, sweepJob{r: r})
			}
		case Manual:
			// Only Flush advances.
		}
	}
	if len(bumps)+len(invalidate) > 0 {
		e.mu.Lock()
		for _, r := range bumps {
			if r.cursor < end {
				r.cursor = end
			}
		}
		for _, r := range invalidate {
			r.memoValid = false
			r.memoBindings = nil
		}
		e.mu.Unlock()
	}
	return e.runJobs(jobs, end)
}

// replayOutcome reproduces, without evaluation, the outcome re-evaluating
// a quiescent rule at the newest state would yield: the memoized firings
// at the new timestamp. Binding maps are copied so replays never alias
// the memo (or each other) in the firing log.
func (e *Engine) replayOutcome(r *rule, end int) advanceOutcome {
	out := advanceOutcome{cursor: end}
	if !r.memoFired {
		return out
	}
	st := e.hist.At(end - 1)
	for _, b := range r.memoBindings {
		nb := make(core.Binding, len(b))
		for k, v := range b {
			nb[k] = v
		}
		out.firings = append(out.firings, Firing{Rule: r.name, Binding: nb, Time: st.TS, StateIndex: e.base + end - 1})
	}
	return out
}

// advanceOutcome is the result of advancing one rule's evaluator through
// pending history states: it is produced by a worker without touching
// shared engine state and merged back on the engine goroutine.
type advanceOutcome struct {
	firings []Firing
	steps   int64
	cursor  int
	err     error
	// memoSet carries a fresh quiescent-replay memo back to the merge:
	// the rule was evaluated at a commit state, so memoFired/memoBindings
	// are the outcome any read-set-untouched commit may replay.
	memoSet      bool
	memoFired    bool
	memoBindings []core.Binding
}

// advanceRule advances r's evaluator through pending states up to (but
// not including) history index end, collecting firings locally. Each rule
// owns its evaluator, so advances of distinct rules are independent and
// may run concurrently; the shared layers they read — history, database
// snapshots, the query registry, the execution log — are read-only for
// the duration of an evaluation phase.
//
// Non-temporal conditions keep no state between system states, so under
// Relevant scheduling the skipped (irrelevant) states are disregarded
// outright, exactly as Section 8 prescribes — only the newest state is
// evaluated. Temporal conditions must see every state to keep their
// F_{g,i} formulas correct, so they replay the pending states (batched
// invocation: firing delayed, never lost).
func (e *Engine) advanceRule(r *rule, end int) advanceOutcome {
	out := advanceOutcome{cursor: r.cursor}
	if !r.info.Temporal && r.sched == Relevant && out.cursor < end-1 {
		out.cursor = end - 1
	}
	budget := e.sweepBudget
	for out.cursor < end {
		// The per-rule half of the sweep budget: a single rule's catch-up
		// may spend at most SweepBudget steps per invocation. Checked here
		// (not at merge) so a huge backlog stops early; the cursor stays at
		// the stopping point, so the evaluator state remains consistent and
		// the next sweep resumes with a fresh budget (progress, no hang).
		// The comparison matches the cumulative check at the merge (strictly
		// over budget errors), so exactly SweepBudget steps always pass and
		// step budget+1 always trips, whichever check fires first.
		if budget > 0 && out.steps > budget {
			out.err = &BudgetError{Rule: r.name, Steps: out.steps, Budget: budget}
			return out
		}
		st := e.hist.At(out.cursor)
		var res core.Result
		var err error
		if r.hinted != nil {
			// The dbUnchanged hint lets the evaluator keep its query-result
			// cache across states whose dirty set is disjoint from the
			// rule's read set. Only contiguous rules qualify: a cursor jump
			// would leave the cache describing a state the evaluator never
			// stepped past.
			hint := !e.coarse && r.contiguous && e.stateClean(r, out.cursor)
			res, err = r.hinted.StepResultHinted(st, hint)
		} else {
			res, err = r.ev.StepResult(st)
		}
		out.steps++
		if err != nil {
			out.err = fmt.Errorf("adb: rule %s at state %d: %w", r.name, out.cursor, err)
			return out
		}
		if res.Fired && !r.constraint {
			for _, b := range res.Bindings {
				out.firings = append(out.firings, Firing{Rule: r.name, Binding: b, Time: st.TS, StateIndex: e.base + out.cursor})
			}
		}
		if r.class == classQuiescent && out.cursor == end-1 && st.Events.CommitCount() > 0 {
			out.memoSet = true
			out.memoFired = res.Fired
			out.memoBindings = res.Bindings
		}
		out.cursor++
	}
	return out
}

// stateClean reports whether history state i left every item in r's read
// set unchanged: the dirty set is known and either empty (event or abort
// states — the database pointer is untouched) or, for analyzable rules,
// disjoint from the extracted footprint.
func (e *Engine) stateClean(r *rule, i int) bool {
	d := e.dirty[i]
	if !d.known {
		return false
	}
	if len(d.items) == 0 {
		return true
	}
	if !r.rs.analyzable {
		return false
	}
	for _, item := range d.items {
		if r.rs.items[item] {
			return false
		}
	}
	return true
}

// apply merges one rule's advance outcome into engine state: cursor and
// step counter under the write lock, then the firings one at a time — the
// exact observable sequence (append, OnFiring callback, action queue) the
// sequential engine produces.
func (e *Engine) apply(r *rule, out advanceOutcome) {
	e.mu.Lock()
	r.cursor = out.cursor
	e.evalSteps += out.steps
	if out.memoSet {
		r.memoValid = true
		r.memoFired = out.memoFired
		r.memoBindings = out.memoBindings
	}
	e.mu.Unlock()
	for _, f := range out.firings {
		e.mu.Lock()
		e.firings = append(e.firings, f)
		obs := e.observers // snapshot; mutation is copy-on-write
		e.mu.Unlock()
		for _, o := range obs {
			o.fn(f)
		}
		e.pending = append(e.pending, f)
	}
}

// advanceRules advances the given rules to history index end — the
// parallel temporal component. Rules are dealt to at most Workers
// goroutines; outcomes are merged strictly in the order rules appear in
// the slice (registration order at every call site), so the firing
// sequence, callbacks and step counts are byte-identical to sequential
// evaluation regardless of worker count.
//
// Errors also surface first-by-rule-order, and a failed invocation still
// advances every rule and merges every outcome: the engine state a
// caller observes after the error — cursors, queued firings, step counts
// — is identical at every worker count, so retrying (a later Flush) is
// equivalent whether the failure happened serially or in parallel.
func (e *Engine) advanceRules(rules []*rule, end int) error {
	if len(rules) == 0 {
		return nil
	}
	jobs := make([]sweepJob, len(rules))
	for i, r := range rules {
		jobs[i] = sweepJob{r: r}
	}
	return e.runJobs(jobs, end)
}

// runJobs executes a sweep's job list: evaluation jobs are dealt to the
// worker pool, replay jobs are resolved inline (they are pure memo reads),
// and every outcome is merged strictly in job order — the registration
// order at every call site — so the firing sequence is independent of both
// the worker count and the eval/replay split.
func (e *Engine) runJobs(jobs []sweepJob, end int) error {
	if len(jobs) == 0 {
		return nil
	}
	evalIdx := make([]int, 0, len(jobs))
	for i, j := range jobs {
		if !j.replay {
			evalIdx = append(evalIdx, i)
		}
	}
	outs := make([]advanceOutcome, len(jobs))
	e.deal(len(evalIdx), func(k int) {
		i := evalIdx[k]
		outs[i] = e.advanceRule(jobs[i].r, end)
	})
	for i, j := range jobs {
		if j.replay {
			outs[i] = e.replayOutcome(j.r, end)
		}
	}
	var firstErr error
	var used int64
	budget := e.sweepBudget
	for i, j := range jobs {
		e.apply(j.r, outs[i])
		if outs[i].err != nil && firstErr == nil {
			firstErr = outs[i].err
		}
		// The cumulative half of the sweep budget: total steps across the
		// invocation, accumulated in rule order so the offending rule is
		// the same at every worker count.
		used += outs[i].steps
		if budget > 0 && used > budget && firstErr == nil {
			firstErr = &BudgetError{Rule: j.r.name, Steps: used, Budget: budget}
		}
	}
	return firstErr
}

// deal is the temporal component's one worker pool: it runs job(0..n-1) on
// at most Workers goroutines (inline when one suffices) and returns when
// all are done. Jobs must be independent and write their results to their
// own slots; callers merge the slots in index order afterwards, which is
// what keeps every observable result independent of the worker count.
func (e *Engine) deal(n int, job func(i int)) {
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				job(i)
			}
		}()
	}
	wg.Wait()
}
