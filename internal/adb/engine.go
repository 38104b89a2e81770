// Package adb implements the paper's rule system and execution model
// (Sections 3, 7 and 8): Condition-Action rules whose conditions are PTL
// formulas, temporal integrity constraints evaluated at commit attempts,
// the executed predicate for composite and temporal actions, relevance
// filtering and batched invocation of the temporal component.
package adb

import (
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ptlactive/internal/event"
	"ptlactive/internal/histio"
	"ptlactive/internal/history"
	"ptlactive/internal/persist"
	"ptlactive/internal/ptl"
	"ptlactive/internal/query"
	"ptlactive/internal/relation"
	"ptlactive/internal/retain"
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
// goroutine at a time, but the reader accessors — Firings, ItemAsOf,
// Rule, RuleNames, EvalSteps, Executions, Now, DB, BaseIndex — are safe
// to call from any goroutine concurrently with that mutator. Internally
// the temporal component shards rule evaluation across Config.Workers
// goroutines; firings and constraint violations are merged back in rule
// registration order, so observable behavior is independent of the
// worker count (see DESIGN.md, "Concurrency model").
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

	execs   []ptl.Execution
	execIdx map[string][]ptl.Execution // secondary index of execs by rule
	firings []Firing
	// observers are the firing observers, notified in registration order:
	// Config.OnFiring first (id 0, never cancelled), then the OnFiring
	// registrations. Guarded by mu; mutation is copy-on-write so the sweep
	// can call a snapshot of the list without holding the lock.
	observers []firingObserver
	nextObsID uint64
	nextTxn   int64
	inSweep   bool
	pending   []Firing // firings awaiting action execution
	cascade   int
	cascadeTo int

	// workers bounds the pool evaluating independent rules concurrently.
	workers int

	// base is the absolute index of hist's first state; Compact advances
	// it as fully-processed prefix states are discarded.
	base int

	// tracked holds the Section-5 auxiliary relations for items named in
	// Config.TrackItems: each captures the item's value over time with
	// [T_start, T_end) validity intervals, so delayed actions (Relevant or
	// Manual scheduling, batching) can read values as of their firing
	// instant rather than the current instant. trackedNames fixes the
	// capture order (map iteration order reached the aux relations and the
	// internal-error path otherwise).
	tracked      map[string]*relation.ScalarAux
	trackedNames []string

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

	// Wake lists (see sweepIndexed), in registration order: constraints and
	// triggers partition the rule table, standing holds the classes every
	// commit wakes, live the gated and quiescent rules that are not parked.
	// Parked rules share parkedCursor, the index after the last commit state
	// swept. scratch is the sweep's reusable working memory.
	constraints  []*rule
	triggers     []*rule
	standing     []*rule
	live         []*rule
	parkedCursor int
	scratch      *sweepScratch

	// Fault isolation and resource governance (see health.go): the
	// circuit-breaker threshold, the per-sweep step budget, the per-action
	// deadline and the fault observer. degraded, once set, seals the
	// engine read-only (guarded by mu; see seal).
	maxFailures   int
	sweepBudget   int64
	actionTimeout time.Duration
	onRuleFault   func(RuleFault)
	degraded      error

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
	initRec      *persist.InitRecord
	actions      map[string]Action

	// Storage-lifecycle policy (see retention.go): retention is fixed at
	// construction; tier is the open cold tier (nil without SpillHistory
	// or for memory engines); histFloor is the oldest timestamp resident
	// point-in-time reads answer, advanced only at commit tails so
	// concurrent ItemAsOf readers load it atomically.
	retention Retention
	tier      *retain.Tier
	histFloor atomic.Int64
}

// Config configures a new engine.
type Config struct {
	// Registry supplies the query functions; nil means just the built-ins.
	Registry *query.Registry
	// Initial is the initial database state.
	Initial map[string]value.Value
	// Start is the timestamp of the initial system state.
	Start int64
	// CascadeLimit bounds chains of action-triggered firings per external
	// operation (default 1000).
	CascadeLimit int
	// OnFiring, when set, observes every firing as it happens.
	OnFiring func(Firing)
	// TrackItems names database items whose historic values the engine
	// captures in auxiliary relations, queryable with ItemAsOf and
	// ActionContext.AsOf. Items not listed cost nothing.
	TrackItems []string
	// Workers bounds the worker pool the temporal component uses to
	// evaluate independent rules concurrently during sweeps, flushes and
	// constraint checks. 0 means GOMAXPROCS; 1 forces fully sequential
	// evaluation. Firings, violations and errors are merged in rule
	// registration order, so results do not depend on this setting.
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
	// GroupCommit, when > 1, batches WAL appends: records are buffered and
	// written+fsynced together every GroupCommit records (and on SyncWAL,
	// checkpoints and Close). A crash loses at most the buffered suffix;
	// the flushed prefix recovers exactly. Runtime-only (a durability
	// latency/throughput trade, not behavior-shaping): the logged record
	// sequence is identical at every batch size.
	GroupCommit int
	// MaxRuleFailures trips the per-rule circuit breaker: after this many
	// consecutive action failures (errors, panics, timeouts) the rule is
	// quarantined — its condition stays incrementally maintained and its
	// firings recorded, but the action is suppressed until ReviveRule.
	// 0 disables automatic quarantine (failures are still recorded).
	// Persisted in the init record: it shapes which actions run, so replay
	// must use the original value.
	MaxRuleFailures int
	// SweepBudget bounds the evaluator steps one temporal-component
	// invocation may spend; exceeding it yields ErrBudgetExceeded
	// attributed to the rule that crossed the budget (by registration
	// order, independent of Workers). 0 means unlimited. Persisted in the
	// init record for replay equivalence.
	SweepBudget int64
	// ActionTimeout is the per-action deadline; an action exceeding it
	// yields ErrActionTimeout attributed to its rule, and any later engine
	// mutation through its ActionContext is refused. 0 means no deadline.
	// Wall-clock dependent, so runtime-only (not persisted).
	ActionTimeout time.Duration
	// OnRuleFault, when set, observes every isolated rule fault (action
	// error, panic, timeout, quarantine suppression) as it happens.
	OnRuleFault func(RuleFault)
	// Actions maps rule names to action functions for recovery: rules
	// re-registered from the snapshot or log get their action here. For
	// replay equivalence they must be the same deterministic actions the
	// original engine ran.
	Actions map[string]Action
	// Retention is the storage-lifecycle policy (see retention.go). The
	// history fields (HistoryWindow, SpillHistory) shape query answers and
	// are persisted in the init record; the WAL fields (SegmentBytes,
	// KeepSnapshots) are runtime-only disk-layout knobs read by Restore.
	Retention Retention
}

// NewEngine creates a memory-only engine with an initial state at
// Config.Start; durable engines are opened with Restore.
func NewEngine(cfg Config) *Engine {
	if cfg.Durability != DurabilityOff {
		panic("adb: NewEngine is memory-only; open durable engines with Restore")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = query.NewRegistry()
	}
	limit := cfg.CascadeLimit
	if limit <= 0 {
		limit = 1000
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		reg:           reg,
		hist:          history.New(),
		db:            history.NewDB(cfg.Initial),
		now:           cfg.Start,
		index:         map[string]*rule{},
		execIdx:       map[string][]ptl.Execution{},
		cascadeTo:     limit,
		workers:       workers,
		eventIndex:    map[string][]*rule{},
		itemIndex:     map[string][]*rule{},
		maxFailures:   cfg.MaxRuleFailures,
		sweepBudget:   cfg.SweepBudget,
		actionTimeout: cfg.ActionTimeout,
		onRuleFault:   cfg.OnRuleFault,
	}
	if cfg.OnFiring != nil {
		e.observers = []firingObserver{{fn: cfg.OnFiring}}
	}
	if len(cfg.TrackItems) > 0 {
		e.tracked = make(map[string]*relation.ScalarAux, len(cfg.TrackItems))
		for _, name := range cfg.TrackItems {
			if _, dup := e.tracked[name]; dup {
				continue
			}
			e.tracked[name] = relation.NewScalarAux()
			e.trackedNames = append(e.trackedNames, name)
		}
		sort.Strings(e.trackedNames)
	}
	// The init record reproduces this construction during recovery. Every
	// value kind is supposed to encode; if one does not, the engine comes
	// up sealed and the typed error surfaces at the first mutating call
	// instead of panicking the process.
	initial, err := histio.EncodeItems(cfg.Initial)
	if err != nil {
		e.seal(&InternalError{Op: "encode initial db", Err: err})
	}
	e.initRec = &persist.InitRecord{
		Initial:         initial,
		Start:           cfg.Start,
		TrackItems:      append([]string(nil), e.trackedNames...),
		CascadeLimit:    limit,
		MaxRuleFailures: cfg.MaxRuleFailures,
		SweepBudget:     cfg.SweepBudget,
		HistoryWindow:   cfg.Retention.HistoryWindow,
		SpillHistory:    cfg.Retention.SpillHistory,
	}
	e.retention = cfg.Retention
	if w := e.retention.HistoryWindow; w > 0 {
		e.histFloor.Store(cfg.Start - w)
	}
	e.hist.MustAppend(history.SystemState{DB: e.db, Events: event.NewSet(), TS: cfg.Start})
	// The initial state's delta from "before the engine existed" is not a
	// meaningful dirty set; leave it unknown so no refinement applies.
	e.dirty = append(e.dirty, dirtySet{})
	if err := e.capture(cfg.Start); err != nil {
		e.seal(err)
	}
	return e
}

// capture records the tracked items' current values in their auxiliary
// relations, in sorted item order so the capture sequence (and any
// internal-error report) is deterministic. Captures are in commit order,
// so a failure means a broken invariant: it is returned as a typed error
// (and the caller seals the engine) rather than panicking.
func (e *Engine) capture(ts int64) error {
	for _, name := range e.trackedNames {
		v, ok := e.db.Get(name)
		if !ok {
			v = value.Value{}
		}
		if err := e.tracked[name].Capture(ts, v); err != nil {
			return &InternalError{Op: "aux capture " + name, Err: err}
		}
	}
	return nil
}

// Degraded reports whether the engine is sealed into read-only degraded
// mode (nil when healthy). A durability fault — a WAL append or fsync
// error — or a broken internal invariant seals the engine: the in-memory
// state stays intact and readable, mutating operations are refused with
// the sealing error (every mutator checks Degraded on entry), and recovery
// from disk yields exactly the committed prefix. Safe for concurrent use.
func (e *Engine) Degraded() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.degraded
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

// ItemAsOf returns the value a tracked item had at time t (Null if the
// item did not exist then). The second result is false when the item is
// not tracked, t precedes the engine's start, or t is older than the
// retained history (ItemAsOfChecked distinguishes the latter with a typed
// error). Safe for concurrent use (the tracked table is immutable after
// NewEngine, each auxiliary relation synchronizes its own readers against
// captures, and the retention floor is read atomically).
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
// goroutine in the middle of a sweep, so they must not call engine
// mutators and should return quickly (hand the firing to a queue rather
// than doing slow work inline). Safe for concurrent registration.
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
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]Firing(nil), e.firings...)
}

// EvalSteps returns the total number of evaluator steps performed; the
// relevance-filtering benchmark (E8) reads this. Safe for concurrent use.
func (e *Engine) EvalSteps() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.evalSteps
}

// Workers returns the size of the temporal component's worker pool.
func (e *Engine) Workers() int { return e.workers }

// Executions implements ptl.ExecLog over the engine's execution record.
// Safe for concurrent use; the evaluation workers read it through this
// method while no lock is held for writing.
// The per-rule secondary index keeps the lookup proportional to the named
// rule's own executions; the historical scan walked the whole log, which
// made every executed(R, ...) atom O(total executions) per state.
func (e *Engine) Executions(ruleName string, before int64) []ptl.Execution {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []ptl.Execution
	for _, ex := range e.execIdx[ruleName] {
		if ex.Time < before {
			out = append(out, ex)
		}
	}
	return out
}

// rebuildExecIdxLocked rederives the per-rule index from execs, wherever
// execs is replaced wholesale (restore, prune); the caller holds mu (or has
// exclusive access during construction).
func (e *Engine) rebuildExecIdxLocked() {
	e.execIdx = make(map[string][]ptl.Execution, len(e.execIdx))
	for _, ex := range e.execs {
		e.execIdx[ex.Rule] = append(e.execIdx[ex.Rule], ex)
	}
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
	if e.Degraded() != nil {
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
	// Meaningful only while some rule is parked, and then min <= it.
	e.parkedCursor -= min
	horizon := trimmed.At(0).TS
	e.mu.Unlock()
	// Auxiliary intervals that ended before the retained horizon can no
	// longer be read by any pending action. The aux relations synchronize
	// their own readers; under the spill policy the expired intervals go
	// to the cold tier first (a failure there seals the engine, surfacing
	// at the next operation or Close, like the logRecord below).
	_ = e.pruneAux(horizon)
	// Compaction moves base and the aux horizon, so it replays. A failed
	// append seals the engine (logRecord) and surfaces at the next
	// operation or Close.
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
	if e.Degraded() != nil {
		return 0
	}
	e.mu.Lock()
	kept := e.execs[:0]
	dropped := 0
	for _, ex := range e.execs {
		if ex.Time < t {
			dropped++
			continue
		}
		kept = append(kept, ex)
	}
	e.execs = kept
	if dropped > 0 {
		e.rebuildExecIdxLocked()
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
