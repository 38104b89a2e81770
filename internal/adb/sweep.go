package adb

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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
	// The workers read cursor fields; the next commit re-parks.
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

// sweepJob is one rule's share of an indexed sweep: either a real
// evaluator advance or a memo replay whose outcome is computed inline.
type sweepJob struct {
	r      *rule
	replay bool
}

// sweepScratch is what one temporal-component invocation builds and throws
// away. The engine lends its one out for the length of an invocation; a
// nested one — an observer or action committing from inside the merge —
// finds it gone and makes its own, so it never sees live scratch.
// putScratch clears the slots, so no firing or binding stays pinned.
type sweepScratch struct {
	jobs     []sweepJob
	unsorted bool // jobs were added out of registration order
	evalIdx  []int
	outs     []advanceOutcome
	verdicts []verdict
}

// add appends a job, noting whether the list is still in registration order.
func (s *sweepScratch) add(r *rule, replay bool) {
	if n := len(s.jobs); n > 0 && s.jobs[n-1].r.seq > r.seq {
		s.unsorted = true
	}
	s.jobs = append(s.jobs, sweepJob{r: r, replay: replay})
}

// sized returns s at length n, reallocating only to grow.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (e *Engine) takeScratch() *sweepScratch {
	s := e.scratch
	e.scratch = nil
	if s == nil {
		s = new(sweepScratch)
	}
	return s
}

func (e *Engine) putScratch(s *sweepScratch) {
	clear(s.outs)
	clear(s.verdicts)
	s.jobs, s.unsorted = s.jobs[:0], false
	s.outs, s.verdicts = s.outs[:0], s.verdicts[:0]
	e.scratch = s
}

// wakeKind says how the indexed sweep finds a rule: in Engine.standing,
// filtered per state (wakeAlways, wakeCommit, wakeConstraint); through
// eventIndex alone (wakeEvent); or, for the gated and quiescent database
// readers, which a commit that does not concern them merely bumps, in
// Engine.live or behind the parked cursor (wakeParked).
type wakeKind uint8

const (
	wakeFlush      wakeKind = iota // Manual: only Flush advances
	wakeAlways                     // Eager, and Relevant pure-time conditions: every state
	wakeCommit                     // Relevant exact database readers: every commit, and their events
	wakeConstraint                 // constraints: every commit and abort
	wakeEvent                      // Relevant, no database reads: their events only
	wakeParked                     // Relevant gated or quiescent database readers
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
// and item. A commit's sweep also unparks the (quiescent) rules it marks,
// and holds mu; the tentative state's check must not, a rejected commit
// leaving no trace.
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

// unpark materialises a parked rule's cursor and returns it to the live
// set; the caller holds mu.
func (e *Engine) unpark(r *rule) {
	r.cursor, r.parked = e.parkedCursor, false
	e.live = append(e.live, r)
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
func (e *Engine) sweepIndexed(newest int, st history.SystemState) error {
	end := newest + 1
	commit := st.Events.CommitCount() > 0
	aborted := st.Events.Count(event.TransactionAbort) > 0
	d := e.dirty[newest]
	s := e.takeScratch()
	defer e.putScratch(s)

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
				s.add(r, false)
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
			s.add(r, false)
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
			s.add(r, false)
		case !r.memoFired:
			// A non-firing memo replays to nothing but a cursor move: park.
			r.parked = true
			continue
		default:
			s.add(r, true)
		}
		live = append(live, r)
	}
	e.live = live
	if commit {
		e.parkedCursor = end
	}
	e.mu.Unlock()

	for _, r := range e.standing {
		switch r.wake {
		case wakeAlways:
			s.add(r, false)
		case wakeCommit:
			if commit || r.wakeGen == gen {
				s.add(r, false)
			}
		case wakeConstraint:
			// A commit the constraints accepted has stepped them already.
			if (commit || aborted) && r.cursor < end {
				s.add(r, false)
			}
		}
	}
	return e.runJobs(s, end)
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
func (e *Engine) step(r *rule, st history.SystemState, i int, d dirtySet) (core.Result, error) {
	if r.hinted == nil {
		return r.ev.StepResult(st)
	}
	return r.hinted.StepResultHinted(st, !e.coarse && r.contiguous && e.untouched(r, i, d))
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
	s := e.takeScratch()
	defer e.putScratch(s)
	for _, r := range rules {
		s.jobs = append(s.jobs, sweepJob{r: r})
	}
	return e.runJobs(s, end)
}

// runJobs executes a sweep's job list: evaluation jobs are dealt to the
// worker pool, replay jobs are resolved inline (they are pure memo reads),
// and every outcome is merged strictly in registration order, so the firing
// sequence is independent of the worker count, the eval/replay split and
// the wake list each job came from.
func (e *Engine) runJobs(s *sweepScratch, end int) error {
	jobs := s.jobs
	if len(jobs) == 0 {
		return nil
	}
	if s.unsorted {
		slices.SortFunc(jobs, func(a, b sweepJob) int { return a.r.seq - b.r.seq })
	}
	evalIdx := s.evalIdx[:0]
	for i, j := range jobs {
		if !j.replay {
			evalIdx = append(evalIdx, i)
		}
	}
	s.evalIdx = evalIdx
	s.outs = sized(s.outs, len(jobs))
	outs := s.outs
	e.deal(&e.sweepCost, len(evalIdx), func(k int) {
		i := evalIdx[k]
		e.advanceRule(jobs[i].r, end, &outs[i])
	})
	for i, j := range jobs {
		if j.replay {
			outs[i] = e.replayOutcome(j.r, end)
		}
	}
	// The merge: each rule's cursor, step count and memo, then its firings
	// one at a time — the exact observable sequence (append, OnFiring
	// callback, action queue) the sequential engine produces — under one hold
	// of the write lock. The hold is dropped around the callbacks alone: an
	// observer that reads Firings() — or commits — from its callback must find
	// the lock free and the log ending at the firing it is being told about.
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
			var p pendingAction
			if r.action != nil {
				// The firing state, read before a callback can move base.
				p = pendingAction{f, e.hist.At(f.StateIndex - e.base).DB}
			}
			if obs := e.observers; len(obs) > 0 { // snapshot; mutation is copy-on-write
				e.mu.Unlock()
				for _, o := range obs {
					o.fn(f)
				}
				e.mu.Lock()
			}
			if r.action != nil {
				e.pending = append(e.pending, p)
			}
		}
		if out.err != nil && firstErr == nil {
			firstErr = out.err
		}
	}
	e.mu.Unlock()
	return firstErr
}

// poolMinWork is the predicted work below which deal runs a batch inline
// instead of waking helpers. Waking an idle processor costs tens of µs on a
// small box, so a batch pays for helpers only well above that. On two
// vCPUs BenchmarkConstraintGate deals ≈ 13–18 µs of constraint steps per
// commit and never pools. BenchmarkSparseTemporal's 2,000 rule steps mostly
// replay a fixpoint verdict (≈ 50 ns a job), so it deals ≈ 85–125 µs, at
// the threshold: 0.15–0.8 pooled deals per commit (its pooled/op), and
// Workers: 1 runs it ≈ 10 % faster.
const poolMinWork = 100 * time.Microsecond

// jobCost is a moving average of one deal site's work per job, in ns: each
// deal folds in its work ÷ n at weight 1/8, the work capped at twice the
// pool threshold. It starts at 0, so a site's first deal runs inline. Only
// the threshold crossing matters, so the cap costs no decision, and it keeps
// one slow deal (a cold cache, a GC pause, a preempted thread: 8 ms for 8
// cheap jobs under the race detector) from moving a batch's prediction by
// more than a quarter of the threshold. The sweep and the constraint check
// keep one each: a sweep job of the constraint-gate workload costs 1.5–2× a
// constraint step, and one shared average priced the check's 300 steps
// over poolMinWork in 37–109 of 179 commits.
type jobCost float64

func (c *jobCost) note(work, limit time.Duration, n int) {
	*c += (jobCost(float64(min(work, limit))/float64(n)) - *c) / 8
}

// deal is the temporal component's one worker pool: it runs job(0..n-1) on
// at most Workers goroutines and returns when all are done. Jobs must be
// independent and write their results to their own slots; callers merge the
// slots in index order afterwards, which is what keeps every observable
// result independent of the worker count and of whether helpers ran.
//
// Helpers run only when the batch is predicted to be worth a wake-up: n
// times the site's measured cost per job must reach dealThreshold
// (poolMinWork). The work a deal measures is the time its goroutines spent
// claiming and running jobs — an inline deal's wall time — so a pooled deal
// is priced by what its jobs cost, not by how long its helpers took to wake.
// A pooled deal starts workers−1 helpers and runs the claim loop on the
// caller too, after one yield that lets the newest helper start at once.
// Workers claim runs of indices, an eighth of an even share at a time — a
// sub-microsecond job does not pay for a contended atomic add each.
// A job that panics (a registered query function is user code) panics
// deal's caller, as it does inline, once every worker has stopped — from a
// pooled deal as a *WorkerPanic, which keeps the value and the job's stack.
func (e *Engine) deal(cost *jobCost, n int, job func(i int)) {
	workers := min(e.workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	if time.Duration(float64(n)*float64(*cost)) < e.dealThreshold {
		start := time.Now()
		for i := 0; i < n; i++ {
			job(i)
		}
		cost.note(time.Since(start), 2*e.dealThreshold, n)
		return
	}
	e.pooledDeals++
	p := &dealPool{n: n, run: max(1, n/(8*workers)), job: job}
	p.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go p.help()
	}
	// The newest helper sits in this processor's run-next slot, which an
	// idle processor steals only after a short sleep; a caller that kept
	// running would do most of the work alone (a 2,000-job deal on two
	// processors: 108 µs without the yield, 76 µs with it). So the caller
	// yields once: the helper starts here at once, and the caller resumes
	// on the processor the spawn woke.
	runtime.Gosched()
	p.claim()
	p.wg.Wait()
	if wp := p.panicked.Load(); wp != nil {
		panic(wp)
	}
	cost.note(time.Duration(p.busy.Load()), 2*e.dealThreshold, n)
}

// dealPool is one pooled deal's shared state, a single allocation.
type dealPool struct {
	next     atomic.Int64
	busy     atomic.Int64 // ns the goroutines spent in claim
	panicked atomic.Pointer[WorkerPanic]
	wg       sync.WaitGroup
	n, run   int
	job      func(i int)
}

// help is a helper goroutine's body.
func (p *dealPool) help() {
	defer p.wg.Done()
	p.claim()
}

// claim runs claimed runs of jobs until none are left, recording the first
// panic instead of unwinding.
func (p *dealPool) claim() {
	start := time.Now()
	defer func() {
		p.busy.Add(int64(time.Since(start)))
		if v := recover(); v != nil {
			p.panicked.CompareAndSwap(nil, &WorkerPanic{Value: v, Stack: debug.Stack()})
		}
	}()
	for {
		lo := int(p.next.Add(int64(p.run))) - p.run
		if lo >= p.n {
			return
		}
		for i := lo; i < min(lo+p.run, p.n); i++ {
			p.job(i)
		}
	}
}
