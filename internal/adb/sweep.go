package adb

import (
	"fmt"
	"slices"

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
// events at the same time".
func (e *Engine) Flush() error {
	if err := e.refused(); err != nil {
		return err
	}
	// Logged before the work: a flush either happened or it didn't, and a
	// mid-flush failure replays to the same failure.
	if err := e.logRecord(&persist.Record{Kind: persist.KindFlush}); err != nil {
		return err
	}
	e.cascade = 0
	// advanceRule reads the cursor fields; the next commit re-parks.
	e.mu.Lock()
	e.unparkAll()
	e.mu.Unlock()
	if err := e.advanceRules(e.triggers, e.hist.Len()); err != nil {
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

// sweepJob is one rule's share of an indexed sweep: a real evaluator
// advance, a memo replay, or the firing of a fixpoint step the wake loop
// took; the last two have their outcome computed inline.
type sweepJob struct {
	r    *rule
	kind jobKind
}

type jobKind uint8

const (
	jobEval jobKind = iota
	jobMemo         // a quiescent rule's memo (replayOutcome)
	jobFire         // a true verdict replayed at a fixpoint (fixpointOutcome)
)

// sweepScratch is what one temporal-component invocation builds and throws
// away: Engine.scratch, the engine's one. No invocation nests in another —
// the engine refuses a mutator while it runs (Engine.busy), and actions run
// after runJobs returns — so each finds it empty, and runJobs clears it,
// so no firing or binding stays pinned.
type sweepScratch struct {
	jobs     []sweepJob
	unsorted bool // jobs were added out of registration order
	outs     []advanceOutcome
}

// add appends a job, noting whether the list is still in registration order.
func (s *sweepScratch) add(r *rule, kind jobKind) {
	if n := len(s.jobs); n > 0 && s.jobs[n-1].r.seq > r.seq {
		s.unsorted = true
	}
	s.jobs = append(s.jobs, sweepJob{r: r, kind: kind})
}

// wakeKind says how the indexed sweep finds a rule: in Engine.standing,
// filtered per state (wakeAlways, wakeCommit, wakeConstraint); through
// eventIndex alone (wakeEvent); or, for the gated and quiescent database
// readers, which a commit that does not concern them merely bumps, in
// Engine.live or behind the parked cursor (wakeParked). A wakeCommit
// trigger resting at a false fixpoint parks behind the same cursor, out of
// Engine.standing, until its item is written or Flush or an unknown dirty
// set wakes it (sweepIndexed).
type wakeKind uint8

const (
	wakeFlush      wakeKind = iota // Manual: only Flush advances
	wakeAlways                     // Eager, and Relevant pure-time conditions: every state
	wakeCommit                     // Relevant exact database readers: every commit, and their events
	wakeConstraint                 // constraints: every commit and abort
	wakeEvent                      // Relevant, no database reads: their events only
	wakeParked                     // Relevant gated or quiescent database readers, in live or parked
)

// wakeFor classifies r; it restates the coarse filter (relevant) per class.
func wakeFor(r *rule) wakeKind {
	switch {
	case r.constraint:
		return wakeConstraint
	case r.sched == Eager:
		return wakeAlways
	case r.sched == Manual:
		return wakeFlush
	case r.readsDB && r.class != classExact:
		return wakeParked
	case r.readsDB:
		return wakeCommit
	case len(r.events) == 0:
		return wakeAlways
	default:
		// Gated rules included: one that reads no database is never woken
		// by a commit, so there is no cursor to bump and nothing to park.
		return wakeEvent
	}
}

// enlist enters a new rule in the wake lists; the caller holds mu.
func (e *Engine) enlist(r *rule) {
	r.wake = wakeFor(r)
	if r.constraint {
		e.constraints = append(e.constraints, r)
	} else {
		e.triggers = append(e.triggers, r)
	}
	// itemIndex lists the rules that consume a dirty mark on the state it is
	// stamped for: standing rules — stepped at every commit — as their
	// query-cache hint (untouched), quiescent rules as their wake-up. Parked
	// gated rules and Manual ones do neither, so a commit writing an item they
	// read must not walk them; when they do step, untouched probes their read
	// set.
	switch r.wake {
	case wakeAlways, wakeCommit, wakeConstraint:
		e.standing = append(e.standing, r)
		r.indexed = r.rs.analyzable
	case wakeParked:
		e.live = append(e.live, r)
		r.indexed = r.class == classQuiescent
	}
	if r.wake == wakeCommit || r.wake == wakeEvent || r.wake == wakeParked {
		for n := range r.events {
			e.eventIndex[n] = append(e.eventIndex[n], r)
		}
	}
	if r.indexed {
		for item := range r.rs.items {
			e.itemIndex[item] = append(e.itemIndex[item], r)
		}
		r.dirtyGen = e.sweepGen // entered after this generation's stamp: touched
	}
}

// stampDirty opens a sweep generation for history index i, whose state
// changed items: every indexed rule reading one of them gets the generation
// as its dirtyGen — an index probe per item, not a read-set probe per rule
// and item. A commit's sweep also unparks the quiescent and resting rules it
// marks, and holds mu; the tentative state's check must not, a rejected
// commit leaving no trace.
func (e *Engine) stampDirty(i int, items []string, unpark bool) uint64 {
	e.sweepGen++
	e.stamped = e.base + i
	for _, item := range items {
		for _, r := range e.itemIndex[item] {
			r.dirtyGen = e.sweepGen
			if unpark && r.parked {
				e.unpark(r)
			}
		}
	}
	return e.sweepGen
}

// cursorOf is r's cursor; the caller holds mu or is the mutating goroutine.
func (e *Engine) cursorOf(r *rule) int {
	if r.parked {
		return e.parkedCursor
	}
	return r.cursor
}

// unpark materialises a parked rule's cursor and returns it to the wake
// list its kind names: live for a gated or quiescent rule, standing for a
// resting trigger, which is settled the steps it rested over first. The
// caller holds mu.
func (e *Engine) unpark(r *rule) {
	if r.wake == wakeCommit {
		e.settle(r)
		e.resting--
		e.standing = append(e.standing, r)
	} else {
		e.live = append(e.live, r)
	}
	r.cursor, r.parked = e.parkedCursor, false
}

// settle hands r's evaluator every step counted on its behalf. A resting
// rule is credited the states parkedCursor has passed since its cursor
// field was set, which moves up to it, and stays parked.
func (e *Engine) settle(r *rule) {
	if r.parked && r.wake == wakeCommit {
		r.credit += e.parkedCursor - r.cursor
		r.cursor = e.parkedCursor
	}
	r.settle()
}

func (e *Engine) unparkAll() {
	for _, r := range e.triggers {
		if r.parked {
			e.unpark(r)
		}
	}
}

// sweepIndexed is the read-set refined sweep. It reproduces the wake
// decisions of the coarse filter (relevant) exactly, then strengthens
// them per rule class: gated rules woken only by a commit have their
// evaluation skipped (the condition is provably false without their
// events), and quiescent rules whose read set the commit left untouched
// replay their memoized outcome. Firings, cursors and engine state are
// byte-identical to the coarse sweep; only evaluator steps differ.
//
// Jobs come from wake lists, never from a scan of the rule table
// (DESIGN.md §4.3): eventIndex and itemIndex for what the state touched,
// standing for the classes every commit wakes, live for the gated and
// quiescent rules that need attention. The rest of those two classes are
// parked — a commit would only bump them — behind Engine.parkedCursor, set
// once per commit sweep, until an event, a dirty item or Flush unparks them.
// So are the resting triggers: an indexed wakeCommit trigger whose
// fixpoint step at a commit replayed false would replay false at every
// state until its item is written, so the sweep counts those steps — the
// resting rules times the states parkedCursor moves over — and unpark or a
// snapshot credits them to the rule.
func (e *Engine) sweepIndexed(newest int, st history.SystemState) error {
	end := newest + 1
	commit := st.Events.CommitCount() > 0
	aborted := st.Events.Count(event.TransactionAbort) > 0
	d := e.dirty[newest]
	s := &e.scratch

	e.mu.Lock()
	gen := e.stampDirty(newest, d.items, true)
	for _, name := range st.Events.Names() {
		for _, r := range e.eventIndex[name] {
			if r.wakeGen == gen {
				continue
			}
			r.wakeGen = gen
			if r.parked {
				e.unpark(r)
			} else if r.wake == wakeEvent {
				s.add(r, jobEval)
			}
		}
	}
	if commit && !d.known {
		e.unparkAll()
	}
	live := e.live[:0]
	for _, r := range e.live {
		switch {
		case r.wakeGen == gen:
			// A gated rule with one of its events in the state.
			s.add(r, jobEval)
		case !commit:
			// Not woken.
		case r.class == classGated:
			// Woken by the commit alone: provably false without its events,
			// so evaluating would only move the cursor. Park.
			r.parked = true
			continue
		case r.cursor >= end:
		case !d.known || r.dirtyGen == gen || !r.memoValid:
			// The memo goes stale the moment the rule is selected for
			// re-evaluation: if the evaluation errors, a later clean commit
			// must not replay the pre-change outcome.
			r.memoValid = false
			r.memoBindings = nil
			s.add(r, jobEval)
		case !r.memoFired:
			// A non-firing memo replays to nothing but a cursor move: park.
			r.parked = true
			continue
		default:
			s.add(r, jobMemo)
		}
		live = append(live, r)
	}
	e.live = live
	if commit {
		// Every resting rule's steps over the states since the last commit
		// sweep: event and abort states, and this commit.
		e.evalSteps += int64(e.resting * (end - e.parkedCursor))
		e.parkedCursor = end
	}
	standing := e.standing[:0]
	for _, r := range e.standing {
		switch r.wake {
		case wakeAlways:
			e.wakeStanding(s, r, newest, d)
		case wakeCommit:
			if !commit && r.wakeGen != gen {
				break
			}
			// A false fixpoint step at a commit leaves r's cursor at
			// parkedCursor, and only a write to its item (itemIndex) can
			// change the verdict of a rule that reads no time and no event:
			// it rests.
			if e.wakeStanding(s, r, newest, d) && !r.last && commit && r.indexed {
				r.parked = true
				e.resting++
				continue
			}
		case wakeConstraint:
			// A commit the constraints accepted has stepped them already.
			if (commit || aborted) && r.cursor < end {
				s.add(r, jobEval)
			}
		}
		standing = append(standing, r)
	}
	e.standing = standing
	e.mu.Unlock()
	return e.runJobs(end)
}

// wakeStanding wakes standing trigger r for the newest state; the caller
// holds mu. If that is r's one pending state, it left r's read set
// untouched (step would pass the hint) and r's evaluator sits at a fixpoint
// (the copy step keeps on r), the step would replay the last verdict, so
// it is taken here: counted, credited to the evaluator, the cursor moved.
// Only a true verdict needs a job, for its firing. Any other wake is an
// evaluation job. It reports whether it took the step.
func (e *Engine) wakeStanding(s *sweepScratch, r *rule, newest int, d dirtySet) bool {
	if !r.fixed || r.cursor != newest || !r.contiguous || !e.untouched(r, newest, d) {
		s.add(r, jobEval)
		return false
	}
	r.credit++
	r.cursor = newest + 1
	e.evalSteps++
	if r.last {
		s.add(r, jobFire)
	}
	return true
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

// fixpointOutcome is the firing of closed rule r whose fixpoint step at the
// newest state replayed a true verdict: the step itself is already taken.
func (e *Engine) fixpointOutcome(r *rule, end int) advanceOutcome {
	f := Firing{Rule: r.name, Binding: core.Binding{}, Time: e.hist.At(end - 1).TS, StateIndex: e.base + end - 1}
	return advanceOutcome{cursor: end, firings: []Firing{f}}
}

// advanceOutcome is the result of advancing one rule's evaluator through
// pending history states: it is produced without touching shared engine
// state and merged back afterwards.
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
// owns its evaluator, so advances of distinct rules are independent; the
// shared layers they read — history, database snapshots, the query
// registry, the execution log — are read-only for the duration of an
// evaluation phase.
//
// Non-temporal conditions keep no state between system states, so under
// Relevant scheduling the skipped (irrelevant) states are disregarded
// outright, exactly as Section 8 prescribes — only the newest state is
// evaluated. Temporal conditions must see every state to keep their
// F_{g,i} formulas correct, so they replay the pending states (batched
// invocation: firing delayed, never lost).
func (e *Engine) advanceRule(r *rule, end int, out *advanceOutcome) {
	*out = advanceOutcome{cursor: r.cursor}
	if !r.info.Temporal && r.sched == Relevant && out.cursor < end-1 {
		out.cursor = end - 1
	}
	for out.cursor < end {
		st := e.hist.At(out.cursor)
		res, err := e.step(r, st, out.cursor, e.dirty[out.cursor])
		out.steps++
		if err != nil {
			out.err = fmt.Errorf("adb: rule %s at state %d: %w", r.name, out.cursor, err)
			return
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
}

// step feeds st — history index i, which changed d relative to the state r's
// evaluator stepped last — to that evaluator. The dbUnchanged hint lets the
// evaluator keep its query-result cache across states that leave the rule's
// read set alone. Only contiguous rules qualify: a cursor jump would leave
// the cache describing a state the evaluator never stepped past.
//
// A fast evaluator's fixpoint is mirrored onto r after the step, and the
// steps the wake loop credited are settled before it.
func (e *Engine) step(r *rule, st history.SystemState, i int, d dirtySet) (core.Result, error) {
	r.settle()
	res, err := r.ev.StepResultHinted(st, !e.coarse && r.contiguous && e.untouched(r, i, d))
	if fast, ok := r.ev.(*core.FastEvaluator); ok {
		r.fixed, r.last = fast.Fixpoint()
	}
	return res, err
}

// untouched reports whether the state at history index i, which changed d,
// left every item in r's read set unchanged: the dirty set is known and
// either empty (event or abort states — the database pointer is untouched)
// or, for analyzable rules, disjoint from the extracted footprint. For an
// indexed rule and the state the current generation was stamped for — the
// one a sweep or a constraint check is stepping — that is the absence of r's
// dirty mark; the read set is probed only in catch-up over older pending
// states and for the rules itemIndex leaves out.
func (e *Engine) untouched(r *rule, i int, d dirtySet) bool {
	switch {
	case !d.known:
		return false
	case len(d.items) == 0:
		return true
	case !r.rs.analyzable:
		return false
	case r.indexed && e.base+i == e.stamped:
		return r.dirtyGen != e.sweepGen
	}
	for _, item := range d.items {
		if r.rs.items[item] {
			return false
		}
	}
	return true
}

// advanceRules advances the given rules to history index end. Outcomes are
// merged strictly in the order rules appear in the slice (registration
// order at every call site).
//
// Errors surface first-by-rule-order, and a failed invocation still
// advances every rule and merges every outcome: the engine state a caller
// observes after the error — cursors, queued firings, step counts — is that
// of a complete invocation, so retrying (a later Flush) resumes from it.
func (e *Engine) advanceRules(rules []*rule, end int) error {
	for _, r := range rules {
		e.scratch.jobs = append(e.scratch.jobs, sweepJob{r: r, kind: jobEval})
	}
	return e.runJobs(end)
}

// runJobs executes the job list in Engine.scratch on the committing
// goroutine, in registration order: evaluation jobs advance their rule's
// evaluator, memo and fixpoint jobs read what the rule already decided.
// Every outcome is computed before any is merged, so the firing sequence is
// independent of the eval/replay split and of the wake list each job came
// from. The engine is busy throughout — query functions and observers run
// here — and the scratch is cleared on the way out.
func (e *Engine) runJobs(end int) error {
	s := &e.scratch
	jobs := s.jobs
	if len(jobs) == 0 {
		return nil
	}
	e.busy = true
	defer e.endJobs()
	if s.unsorted {
		slices.SortFunc(jobs, func(a, b sweepJob) int { return a.r.seq - b.r.seq })
	}
	if cap(s.outs) < len(jobs) {
		s.outs = make([]advanceOutcome, len(jobs))
	}
	s.outs = s.outs[:len(jobs)] // endJobs clears every slot
	outs := s.outs
	for i, j := range jobs {
		switch j.kind {
		case jobEval:
			e.advanceRule(j.r, end, &outs[i])
		case jobMemo:
			outs[i] = e.replayOutcome(j.r, end)
		case jobFire:
			outs[i] = e.fixpointOutcome(j.r, end)
		}
	}
	// The merge: each rule's cursor, step count and memo, then its firings
	// one at a time — the exact observable sequence (append, OnFiring
	// callback, action queue) the sequential engine produces — under one hold
	// of the write lock. The hold is dropped around the callbacks alone: an
	// observer that reads Firings() from its callback must find the lock free
	// and the log ending at the firing it is being told about.
	// Only a rule with an action queues its firings: without one there is
	// nothing to execute (Section 7), so the firing log is all that is kept.
	var firstErr error
	e.mu.Lock()
	for i, j := range jobs {
		out, r := &outs[i], j.r
		r.cursor = out.cursor
		e.evalSteps += out.steps
		if out.memoSet {
			r.memoValid = true
			r.memoFired = out.memoFired
			r.memoBindings = out.memoBindings
		}
		for _, f := range out.firings {
			e.firings = append(e.firings, f)
			if obs := e.observers; len(obs) > 0 { // snapshot; mutation is copy-on-write
				e.mu.Unlock()
				for _, o := range obs {
					o.fn(f)
				}
				e.mu.Lock()
			}
			if r.action != nil {
				e.pending = append(e.pending, pendingAction{f, e.hist.At(f.StateIndex - e.base).DB})
			}
		}
		if out.err != nil && firstErr == nil {
			firstErr = out.err
		}
	}
	e.mu.Unlock()
	return firstErr
}

// endJobs ends an invocation: the engine is no longer busy, and the scratch
// is cleared for the next.
func (e *Engine) endJobs() {
	e.busy = false
	s := &e.scratch
	clear(s.outs)
	s.jobs, s.unsorted = s.jobs[:0], false
	s.outs = s.outs[:0]
}
