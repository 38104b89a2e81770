// Package adb implements the paper's rule system and execution model
// (Sections 3, 7 and 8): Condition-Action rules whose conditions are PTL
// formulas, temporal integrity constraints evaluated at commit attempts,
// the executed predicate for composite and temporal actions, relevance
// filtering and batched invocation of the temporal component.
package adb

import (
	"io"
	"sort"
	"sync"

	"ptlactive/internal/event"
	"ptlactive/internal/histio"
	"ptlactive/internal/history"
	"ptlactive/internal/persist"
	"ptlactive/internal/ptl"
	"ptlactive/internal/query"
	"ptlactive/internal/value"
)

// Engine is an active database: a current database state, a growing
// system history, a rule set and the temporal component that evaluates
// rule conditions incrementally.
//
// All engine methods take explicit timestamps where a new system state is
// created; timestamps must be strictly increasing.
//
// Concurrency model: mutating operations (Emit, transactions, Flush,
// rule registration, Compact, PruneExecutions) must come from a single
// goroutine at a time, and never from an observer or a query function the
// temporal component calls (ErrReentrant); the reader accessors — Firings,
// ItemAsOf, Rule, RuleNames, EvalSteps, Executions, Now, DB, BaseIndex —
// are safe to call from any goroutine concurrently with that mutator.
// The temporal component runs on the mutating goroutine: every rule is
// advanced and every constraint stepped there, and firings and constraint
// violations are merged in rule registration order (DESIGN.md §4.2,
// "Threading contract").
type Engine struct {
	// mu guards the observable shared state: history length, database,
	// clock, firings, the step counter, the execution log and the rule
	// table. Mutators write under mu.Lock in short windows (never across
	// rule evaluation or user callbacks); reader accessors take mu.RLock.
	mu sync.RWMutex

	reg   *query.Registry
	hist  *history.History
	db    history.DBState
	now   int64
	rules []*rule
	index map[string]*rule

	firings []Firing
	// observers are the firing observers, notified in registration order:
	// Config.OnFiring first (id 0, never cancelled), then the OnFiring
	// registrations. Guarded by mu; mutation is copy-on-write so the sweep
	// can call a snapshot of the list without holding the lock.
	observers []firingObserver
	nextObsID uint64
	nextTxn   int64
	inSweep   bool
	// busy is set while the engine runs code it does not own on the
	// committing goroutine — rule steps and the merge's observers (runJobs),
	// the constraints' tentative step — and makes every mutator refuse with
	// ErrReentrant, so no invocation of the temporal component nests in
	// another. Only the mutating goroutine touches it.
	busy    bool
	pending []pendingAction // firings awaiting action execution
	cascade int

	// base is the absolute index of hist's first state; Compact advances
	// it as fully-processed prefix states are discarded.
	base int

	// stats for the E8 benchmark.
	evalSteps int64

	// Read-set scheduling index (see readset.go). dirty runs parallel to
	// hist: dirty[i] is what state i changed. eventIndex maps event names
	// to the Relevant triggers they wake, itemIndex item names to the rules
	// reading them that consume a dirty mark (enlist); sweepGen is the
	// generation counter the indexes stamp into rule.wakeGen/dirtyGen, and
	// stamped the absolute index of the state its dirty marks describe
	// (stampDirty).
	// coarse (NewCoarseEngine) switches the index off for the reference arm
	// of the equivalence tests and E12.
	coarse     bool
	dirty      []dirtySet
	eventIndex map[string][]*rule
	itemIndex  map[string][]*rule
	sweepGen   uint64
	stamped    int

	// Wake lists (see sweepIndexed): constraints and triggers partition the
	// rule table in registration order; standing holds the classes every
	// commit wakes but the resting triggers, live the gated and quiescent
	// rules that are not parked, each in the order rules entered it. Parked
	// rules share parkedCursor, the index after the last commit state swept;
	// resting counts the parked triggers whose steps the sweep counts.
	// scratch is the temporal component's one working memory (runJobs).
	constraints  []*rule
	triggers     []*rule
	standing     []*rule
	live         []*rule
	parkedCursor int
	resting      int
	scratch      sweepScratch

	// Fault isolation (see health.go): the circuit-breaker threshold and
	// the fault observer. degraded, once set, seals the engine read-only
	// (guarded by mu; see seal).
	maxFailures int
	onRuleFault func(RuleFault)
	degraded    error

	// Durability subsystem (internal/persist); store is nil for memory
	// engines and while a directory's log is being replayed. suppress is
	// incremented around action cascades and the checkpoint's compaction so
	// derived operations are not logged — replaying the external operation
	// re-derives them through the normal sweep path.
	store     *persist.Store
	durMode   Durability
	snapEvery int
	// epoch is the replication primary epoch (see persist.KindEpoch): the
	// highest epoch record this engine has logged or replayed. 0 means the
	// engine was never part of a promoted replica set.
	epoch        int64
	suppress     int
	walSince     int // records appended since the last snapshot
	commitsSince int
	recovery     RecoveryInfo
	// initDB is the initial state, sharing its treap with the history, and
	// initRec the init record's other fields (see initRecord).
	initDB  history.DBState
	initRec persist.InitRecord
	actions map[string]Action
}

// pendingAction is a firing awaiting its action, with the database of the
// state that satisfied the condition: the action may run states later
// (Relevant or Manual scheduling, a cascade), and ActionContext.AsOf reads
// this state rather than the current one. The treap is shared with the
// history, so the entry costs one pointer.
type pendingAction struct {
	Firing
	db history.DBState
}

// Config configures a new engine.
type Config struct {
	// Registry supplies the query functions; nil means just the built-ins.
	Registry *query.Registry
	// Initial is the initial database state.
	Initial map[string]value.Value
	// Start is the timestamp of the initial system state.
	Start int64
	// OnFiring, when set, observes every firing as it happens, like the
	// first Engine.OnFiring registration: a mutator it calls is refused
	// with ErrReentrant.
	OnFiring func(Firing)
	// Workers is ignored: the temporal component runs on the committing
	// goroutine.
	//
	// Deprecated: kept only because the benchmark in bench/ still sets it;
	// the field goes when that line does.
	Workers int
	// Durability selects the persistence mode. NewEngine only accepts
	// DurabilityOff; durable engines are opened with Restore, which reads
	// this field (DurabilityOff there is promoted to DurabilityWAL).
	Durability Durability
	// SnapshotEvery is the checkpoint period, in external commits, under
	// DurabilitySnapshot (default 64).
	SnapshotEvery int
	// NoFsync disables the per-record WAL fsync; crash-equivalence tests
	// and benchmarks use it, production durability should not.
	NoFsync bool
	// MaxRuleFailures trips the per-rule circuit breaker: after this many
	// consecutive action failures (errors, panics) the rule is
	// quarantined — its condition stays incrementally maintained and its
	// firings recorded, but the action is suppressed until ReviveRule.
	// 0 disables automatic quarantine (failures are still recorded).
	// Persisted in the init record: it shapes which actions run, so replay
	// must use the original value.
	MaxRuleFailures int
	// OnRuleFault, when set, observes every isolated rule fault (action
	// error, panic, quarantine suppression) as it happens.
	OnRuleFault func(RuleFault)
	// Actions maps rule names to action functions for recovery: rules
	// re-registered from the snapshot or log get their action here. For
	// replay equivalence they must be the same deterministic actions the
	// original engine ran.
	Actions map[string]Action
	// Retention is the WAL's storage-lifecycle policy (see retention.go):
	// runtime-only disk-layout knobs read by Restore.
	Retention Retention
}

// NewEngine creates a memory-only engine with an initial state at
// Config.Start; durable engines are opened with Restore. The init record is
// encoded from the initial state when a log or a snapshot needs it.
func NewEngine(cfg Config) *Engine {
	if cfg.Durability != DurabilityOff {
		panic("adb: NewEngine is memory-only; open durable engines with Restore")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = query.NewRegistry()
	}
	e := &Engine{
		reg:         reg,
		hist:        history.New(),
		db:          history.NewDB(cfg.Initial),
		now:         cfg.Start,
		index:       map[string]*rule{},
		eventIndex:  map[string][]*rule{},
		itemIndex:   map[string][]*rule{},
		maxFailures: cfg.MaxRuleFailures,
		onRuleFault: cfg.OnRuleFault,
	}
	if cfg.OnFiring != nil {
		e.observers = []firingObserver{{fn: cfg.OnFiring}}
	}
	e.initDB = e.db
	e.initRec = persist.InitRecord{
		Start:           cfg.Start,
		CascadeLimit:    cascadeLimit,
		MaxRuleFailures: cfg.MaxRuleFailures,
	}
	e.hist.MustAppend(history.SystemState{DB: e.db, Events: event.NewSet(), TS: cfg.Start})
	// The initial state's delta from "before the engine existed" is not a
	// meaningful dirty set; leave it unknown so no refinement applies.
	e.dirty = append(e.dirty, dirtySet{})
	return e
}

// Degraded reports whether the engine is sealed into read-only degraded
// mode (nil when healthy). A durability fault — a WAL append or fsync
// error — or a broken internal invariant seals the engine: the in-memory
// state stays intact and readable, mutating operations are refused with
// the sealing error (every mutator checks refused on entry), and recovery
// from disk yields exactly the committed prefix. Safe for concurrent use.
func (e *Engine) Degraded() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.degraded
}

// refused is every mutator's entry check: ErrReentrant while the engine is
// busy (an observer or query function calling back in), else the sealing
// error of a degraded engine.
func (e *Engine) refused() error {
	if e.busy {
		return ErrReentrant
	}
	return e.Degraded()
}

// seal transitions the engine into read-only degraded mode; the first
// cause wins. It returns the sealing error for the caller to propagate.
func (e *Engine) seal(cause error) error {
	e.mu.Lock()
	if e.degraded == nil {
		if _, ok := cause.(*DegradedError); ok {
			e.degraded = cause
		} else {
			e.degraded = &DegradedError{Cause: cause}
		}
	}
	err := e.degraded
	e.mu.Unlock()
	return err
}

// ItemAsOf returns the value item name had at time t (Null if the item did
// not exist then), read from the retained history states. The second
// result is false when t precedes the engine's start or the oldest state a
// Compact left (ItemAsOfChecked distinguishes the latter with a typed
// error). Safe for concurrent use.
func (e *Engine) ItemAsOf(name string, t int64) (value.Value, bool) {
	v, ok, err := e.ItemAsOfChecked(name, t)
	if err != nil {
		return value.Value{}, false
	}
	return v, ok
}

// Registry returns the engine's query registry, for registering
// application queries before adding rules.
func (e *Engine) Registry() *query.Registry { return e.reg }

// History returns the system history built so far. It must not be
// modified, and unlike the snapshot accessors it must not be iterated
// concurrently with engine mutations (the mutator appends to it).
func (e *Engine) History() *history.History {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.hist
}

// DB returns the current database state (an immutable snapshot). Safe for
// concurrent use.
func (e *Engine) DB() history.DBState {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.db
}

// Now returns the timestamp of the latest system state. Safe for
// concurrent use.
func (e *Engine) Now() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.now
}

// firingObserver is one OnFiring registration.
type firingObserver struct {
	id uint64
	fn func(Firing)
}

// OnFiring registers an observer called synchronously for every subsequent
// firing, after the Config.OnFiring callback, in registration order; the
// network layer's subscription fan-out hangs off this hook. The returned
// cancel function removes the observer. Observers run on the mutating
// goroutine in the middle of a sweep, with Engine.mu free: they may call
// the reader accessors, and Firings() ends at the firing they are told
// about. They only observe — a mutator they call returns ErrReentrant and
// changes nothing; a rule's action is where a firing updates — and should
// return quickly (hand the firing to a queue rather than doing slow work
// inline). Safe for concurrent registration.
func (e *Engine) OnFiring(fn func(Firing)) (cancel func()) {
	e.mu.Lock()
	e.nextObsID++
	id := e.nextObsID
	e.observers = append(e.observers, firingObserver{id: id, fn: fn})
	e.mu.Unlock()
	return func() {
		e.mu.Lock()
		// Copy-on-write removal: a sweep may be iterating the old slice
		// outside the lock.
		out := make([]firingObserver, 0, len(e.observers))
		for _, o := range e.observers {
			if o.id != id {
				out = append(out, o)
			}
		}
		e.observers = out
		e.mu.Unlock()
	}
}

// Firings returns a copy of every firing recorded so far. Safe for
// concurrent use.
func (e *Engine) Firings() []Firing {
	_, fs := e.FiringsFrom(0)
	return fs
}

// FiringsFrom returns a copy of the firing log from index from on, with
// from clamped to [0, FiringCount()]; it copies only that tail. Safe for
// concurrent use.
func (e *Engine) FiringsFrom(from int) (int, []Firing) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	from = min(max(from, 0), len(e.firings))
	return from, append([]Firing(nil), e.firings[from:]...)
}

// FiringCount returns the number of firings recorded so far. Safe for
// concurrent use.
func (e *Engine) FiringCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.firings)
}

// EvalSteps returns the number of evaluator steps the rules have taken,
// replayed or been credited: at every operation exactly what the coarse
// engine (NewCoarseEngine) counts, though most of a resting trigger's are
// counted without a visit. The relevance-filtering benchmark (E8) reads
// this. Safe for concurrent use.
func (e *Engine) EvalSteps() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.evalSteps
}

// Executions implements ptl.ExecLog over the rules' execution logs.
// Safe for concurrent use; rule evaluation reads it through this method
// while no lock is held for writing. A rule's log is in time order,
// so the executions before a time are a prefix, found by binary search.
func (e *Engine) Executions(ruleName string, before int64) []ptl.Execution {
	e.mu.RLock()
	defer e.mu.RUnlock()
	r := e.index[ruleName]
	if r == nil {
		return nil
	}
	n := sort.Search(len(r.execs), func(i int) bool { return r.execs[i].Time >= before })
	if n == 0 {
		return nil
	}
	return append([]ptl.Execution(nil), r.execs[:n]...)
}

// Compact discards history states that every rule's evaluator has already
// processed, keeping at least the latest state. This realizes the paper's
// space claim end to end: "our algorithm determines, based on analysis of
// the given temporal condition, which information to save, and for how
// long" — once the incremental evaluators have consumed a state, the
// engine itself no longer needs it. It returns the number of states
// discarded. Firing.StateIndex values remain absolute across compactions
// (see BaseIndex).
func (e *Engine) Compact() int {
	if e.refused() != nil {
		return 0
	}
	e.mu.Lock()
	min := e.hist.Len() - 1 // always keep the newest state
	for _, r := range e.rules {
		if c := e.cursorOf(r); c < min {
			min = c
		}
	}
	if min <= 0 {
		e.mu.Unlock()
		return 0
	}
	trimmed := history.New()
	for i := min; i < e.hist.Len(); i++ {
		trimmed.AppendUnchecked(e.hist.At(i))
	}
	e.hist = trimmed
	e.dirty = append([]dirtySet(nil), e.dirty[min:]...)
	e.base += min
	for _, r := range e.rules {
		r.cursor -= min
	}
	// Meaningful only while some rule is parked, and then min <= it. A
	// resting rule's cursor field moves with it, so its credit (the
	// difference) stands.
	e.parkedCursor -= min
	e.mu.Unlock()
	// Compaction moves base and the oldest state ItemAsOf answers, so it
	// replays. A failed append seals the engine (logRecord) and surfaces
	// at the next operation or Close.
	_ = e.logRecord(&persist.Record{Kind: persist.KindCompact})
	return min
}

// ExportHistory writes the retained system history as lossless JSON lines
// (see internal/histio); the export replays through offline tools (the
// naive evaluator, histio.Read) bit-for-bit.
func (e *Engine) ExportHistory(w io.Writer) error {
	return histio.Write(w, e.hist)
}

// PruneExecutions discards executed-predicate records with execution time
// before t. Section 7: "only information necessary for future evaluation
// of conditions will be maintained; all other information will be removed
// as and when it is not needed" — rules bounding executed's age (e.g.
// time - T <= 60) never need older records.
func (e *Engine) PruneExecutions(t int64) int {
	if e.refused() != nil {
		return 0
	}
	e.mu.Lock()
	dropped := 0
	for _, r := range e.rules {
		n := sort.Search(len(r.execs), func(i int) bool { return r.execs[i].Time >= t })
		if n > 0 {
			r.execs = append(r.execs[:0], r.execs[n:]...)
			dropped += n
		}
	}
	e.mu.Unlock()
	_ = e.logRecord(&persist.Record{Kind: persist.KindPrune, Arg: t})
	return dropped
}

// BaseIndex returns the absolute index of the first retained history
// state; History().At(i) corresponds to absolute state BaseIndex()+i.
// Safe for concurrent use.
func (e *Engine) BaseIndex() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.base
}
