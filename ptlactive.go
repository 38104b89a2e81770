// Package ptlactive is a reproduction of Sistla & Wolfson, "Temporal
// Conditions and Integrity Constraints in Active Database Systems"
// (SIGMOD 1995): an active-database rule system whose rule conditions are
// Past Temporal Logic (PTL) formulas, evaluated by the paper's incremental
// algorithm.
//
// The package re-exports the public surface of the internal modules:
//
//   - the PTL language: Parse, Formula, the condition checker;
//   - the incremental condition evaluator (Evaluator) for embedding into
//     other systems;
//   - the active database engine (Engine): triggers, temporal integrity
//     constraints, transactions, the executed predicate, temporal actions
//     (reader accessors are safe from concurrent goroutines);
//   - aggregate rule rewriting (RewriteAggregates, InstallIndexed);
//   - the valid-time model (ValidStore, ValidMonitor, online/offline
//     constraint satisfaction).
//
// Quickstart (the paper's running example — IBM doubled within 10 time
// units):
//
//	eng := ptlactive.NewEngine(ptlactive.Config{
//	    Initial: map[string]ptlactive.Value{"ibm": ptlactive.Float(10)},
//	})
//	_ = eng.AddTrigger("doubled",
//	    `[t <- time] [x <- item("ibm")]
//	         previously (item("ibm") <= 0.5 * x and time >= t - 10)`,
//	    func(ctx *ptlactive.ActionContext) error {
//	        fmt.Println("IBM doubled at", ctx.FiredAt)
//	        return nil
//	    })
//	_ = eng.Exec(8, map[string]ptlactive.Value{"ibm": ptlactive.Float(25)})
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// mapping from the paper's sections to modules.
package ptlactive

import (
	"io"

	"ptlactive/internal/adb"
	"ptlactive/internal/agg"
	"ptlactive/internal/core"
	"ptlactive/internal/event"
	"ptlactive/internal/histio"
	"ptlactive/internal/history"
	"ptlactive/internal/naive"
	"ptlactive/internal/persist"
	"ptlactive/internal/ptl"
	"ptlactive/internal/query"
	"ptlactive/internal/relation"
	"ptlactive/internal/server/wire"
	"ptlactive/internal/value"
	"ptlactive/internal/vtime"
)

// ---- Values ----

// Value is the dynamic value type of database items, event parameters and
// rule bindings.
type Value = value.Value

// Int builds an integer value.
func Int(i int64) Value { return value.NewInt(i) }

// Float builds a float value.
func Float(f float64) Value { return value.NewFloat(f) }

// Str builds a string value.
func Str(s string) Value { return value.NewString(s) }

// Bool builds a boolean value.
func Bool(b bool) Value { return value.NewBool(b) }

// Relation builds a relation value from rows.
func Relation(rows [][]Value) Value { return value.NewRelation(rows) }

// Tuple builds a tuple value.
func Tuple(elems ...Value) Value { return value.NewTuple(elems...) }

// ---- Events ----

// Event is a parameterized event occurrence.
type Event = event.Event

// NewEvent constructs an event occurrence.
func NewEvent(name string, args ...Value) Event { return event.New(name, args...) }

// EventSet is the set of events occurring at one instant.
type EventSet = event.Set

// NewEventSet builds an event set (duplicates dropped).
func NewEventSet(events ...Event) *EventSet { return event.NewSet(events...) }

// Standard event symbols emitted by the engine.
const (
	TransactionBegin  = event.TransactionBegin
	TransactionCommit = event.TransactionCommit
	TransactionAbort  = event.TransactionAbort
	AttemptsToCommit  = event.AttemptsToCommit
	UpdateItem        = event.UpdateItem
)

// ---- The language ----

// Formula is a PTL condition.
type Formula = ptl.Formula

// ParseCondition parses a PTL condition in concrete syntax; see the
// grammar in internal/ptl.
func ParseCondition(src string) (Formula, error) { return ptl.Parse(src) }

// CheckCondition validates a condition against a query registry and
// returns its static information (free variables, referenced events,
// normalized form).
func CheckCondition(f Formula, reg *Registry) (*ConditionInfo, error) {
	return ptl.Check(f, reg)
}

// ConditionInfo is the result of checking a condition.
type ConditionInfo = ptl.Info

// Decomposable reports whether the condition falls in the subclass the
// paper's Sybase prototype implemented.
func Decomposable(f Formula) bool { return ptl.Decomposable(f) }

// ---- Queries ----

// Registry maps PTL function symbols to query implementations.
type Registry = query.Registry

// SystemState is one instant of a system history: database state, event
// set and timestamp.
type SystemState = history.SystemState

// History is a sequence of system states.
type History = history.History

// DBState is an immutable database state.
type DBState = history.DBState

// NewRegistry returns a registry with the built-in symbols (item, time).
func NewRegistry() *Registry { return query.NewRegistry() }

// Schema describes the columns of a relation-valued database item, used
// when registering RETRIEVE queries and relational helpers.
type Schema = relation.Schema

// Column is one attribute of a Schema.
type Column = relation.Column

// NewSchema builds a schema; column names must be unique.
func NewSchema(cols ...Column) (*Schema, error) { return relation.NewSchema(cols...) }

// MustSchema is NewSchema that panics on error.
func MustSchema(cols ...Column) *Schema { return relation.MustSchema(cols...) }

// ---- Incremental evaluation (the paper's Section-5 algorithm) ----

// Evaluator incrementally evaluates one condition over a stream of system
// states; embed it when the full Engine is not needed.
type Evaluator = core.Evaluator

// EvalResult is the outcome of one evaluation step.
type EvalResult = core.Result

// Binding is one satisfying assignment of a condition's parameters.
type Binding = core.Binding

// CompileCondition checks a condition and builds its incremental
// evaluator. log may be nil.
func CompileCondition(f Formula, reg *Registry, log ExecLog) (*Evaluator, error) {
	return core.Compile(f, reg, log)
}

// ExecLog supplies recorded rule executions for the executed predicate.
type ExecLog = ptl.ExecLog

// NaiveEvaluator is the direct (whole-history) reference semantics; it is
// exported for differential testing and benchmarking against the
// incremental algorithm.
type NaiveEvaluator = naive.Evaluator

// NewNaiveEvaluator builds a reference evaluator over a history.
func NewNaiveEvaluator(reg *Registry, h *History, log ExecLog) *NaiveEvaluator {
	return naive.New(reg, h, log)
}

// ---- The active database engine ----

// Engine is the active database: items, rules, transactions and the
// temporal component.
type Engine = adb.Engine

// Config configures an Engine.
type Config = adb.Config

// Txn is an open transaction.
type Txn = adb.Txn

// ActionContext is passed to trigger actions.
type ActionContext = adb.ActionContext

// Action is a trigger's action part.
type Action = adb.Action

// Firing records one rule firing.
type Firing = adb.Firing

// Scheduling selects when trigger conditions are evaluated (Section 8).
type Scheduling = adb.Scheduling

// Scheduling modes.
const (
	Eager    = adb.Eager
	Relevant = adb.Relevant
	Manual   = adb.Manual
)

// RuleOption configures a rule at registration.
type RuleOption = adb.RuleOption

// WithScheduling sets a trigger's scheduling mode.
func WithScheduling(s Scheduling) RuleOption { return adb.WithScheduling(s) }

// ErrConstraintViolation reports a transaction aborted by a temporal
// integrity constraint; use errors.Is.
var ErrConstraintViolation = adb.ErrConstraintViolation

// ErrReservedItem reports a write or delete of the item time, which every
// state answers with its timestamp, or a Config.Initial that sets it;
// use errors.Is.
var ErrReservedItem = adb.ErrReservedItem

// ConstraintError carries the violated constraint's name.
type ConstraintError = adb.ConstraintError

// NewEngine creates an engine. It panics, with an error wrapping
// ErrReservedItem, on a Config.Initial that sets the item time.
func NewEngine(cfg Config) *Engine { return adb.NewEngine(cfg) }

// ---- Fault isolation, resource governance, degradation ----

// Sentinel errors of the fault-isolation layer; match with errors.Is.
var (
	// ErrRuleQuarantined reports a rule whose action the per-rule circuit
	// breaker suppressed (Config.MaxRuleFailures).
	ErrRuleQuarantined = adb.ErrRuleQuarantined
	// ErrActionPanic reports a user action panic recovered by the sandbox.
	ErrActionPanic = adb.ErrActionPanic
	// ErrDegraded reports an engine sealed read-only after a durability
	// fault or broken invariant; see Engine.Degraded.
	ErrDegraded = adb.ErrDegraded
	// ErrReentrant reports a mutator called from an OnFiring observer or a
	// query function, which only observe.
	ErrReentrant = adb.ErrReentrant
	// ErrInternal reports a broken engine invariant.
	ErrInternal = adb.ErrInternal
)

// ActionPanicError carries a recovered action panic (value and stack).
type ActionPanicError = adb.ActionPanicError

// QuarantineError reports a firing whose action was suppressed by the
// circuit breaker.
type QuarantineError = adb.QuarantineError

// DegradedError seals an engine read-only and carries the cause.
type DegradedError = adb.DegradedError

// InternalError reports a failure on a must-not-fail engine path.
type InternalError = adb.InternalError

// RuleHealth is the inspection view of a rule's failure record; see
// Engine.RuleHealth, Engine.QuarantinedRules and Engine.ReviveRule.
type RuleHealth = adb.RuleHealth

// RuleFault is one isolated action fault, delivered to Config.OnRuleFault.
type RuleFault = adb.RuleFault

// ---- Durability: snapshots, write-ahead log, crash recovery ----

// Durability selects the engine's durability mode (see Config).
type Durability = adb.Durability

// Durability modes.
const (
	// DurabilityOff keeps all state in memory (the default).
	DurabilityOff = adb.DurabilityOff
	// DurabilityWAL logs every committed operation to a write-ahead log.
	DurabilityWAL = adb.DurabilityWAL
	// DurabilitySnapshot additionally writes a periodic snapshot and
	// resets the log, bounding recovery time.
	DurabilitySnapshot = adb.DurabilitySnapshot
)

// RecoveryInfo reports what Restore found and replayed.
type RecoveryInfo = adb.RecoveryInfo

// Restore opens a durable engine backed by dir, recovering from the
// newest valid snapshot plus the write-ahead log tail. A fresh directory
// yields a new engine whose operations are logged from the start.
func Restore(cfg Config, dir string) (*Engine, error) { return adb.Restore(cfg, dir) }

// Retention is the storage-lifecycle policy of a durable engine: WAL
// segment rotation and snapshot-chain length (Config.Retention). The zero
// value retains everything.
type Retention = adb.Retention

// StorageStats is an engine's storage footprint (Engine.Storage): WAL
// segments and snapshot chain.
type StorageStats = adb.StorageStats

// Storage-lifecycle sentinels; match with errors.Is.
var (
	// ErrHistoryTruncated reports a point-in-time read older than the
	// oldest history state a Compact left (Engine.ItemAsOfChecked), or
	// below a valid-time store's truncation floor
	// (ValidStore.CommittedAtChecked); errors.As for *HistoryTruncatedError.
	ErrHistoryTruncated = adb.ErrHistoryTruncated
	// ErrTruncatedHead reports a WAL read below the retained head — the
	// segments covering it were garbage-collected behind a snapshot.
	ErrTruncatedHead = persist.ErrTruncatedHead
)

// HistoryTruncatedError carries the requested timestamp and the oldest
// retained one.
type HistoryTruncatedError = adb.HistoryTruncatedError

// ---- Temporal aggregates by rule rewriting (Section 6.1.1) ----

// RewriteAggregates registers a trigger whose condition's aggregates are
// processed by the paper's rule rewriting (fresh items plus reset and
// accumulate rules) instead of direct evaluation.
func RewriteAggregates(eng *Engine, name, condition string, action Action, opts ...RuleOption) error {
	return agg.Rewrite(eng, name, condition, action, opts...)
}

// IndexedAggregate describes an indexed aggregate family F(x) for
// aggregates with a free variable.
type IndexedAggregate = agg.IndexedSpec

// InstallIndexedAggregate installs the maintenance rules for an indexed
// aggregate family, consumed through membership conditions.
func InstallIndexedAggregate(eng *Engine, spec IndexedAggregate) error {
	return agg.InstallIndexed(eng, spec)
}

// Aggregate function names.
const (
	AggSum   = ptl.AggSum
	AggCount = ptl.AggCount
	AggAvg   = ptl.AggAvg
	AggMin   = ptl.AggMin
	AggMax   = ptl.AggMax
)

// ---- Valid time (Section 9) ----

// ValidStore is the valid-time history store: retroactive updates,
// committed histories, collapsed histories.
type ValidStore = vtime.Store

// NewValidStore creates a valid-time store with maximum delay delta
// (UnlimitedDelay disables the bound; definite monitoring then becomes
// unavailable).
func NewValidStore(initial DBState, start, delta int64) *ValidStore {
	return vtime.NewStore(initial, start, delta)
}

// UnlimitedDelay disables the maximum-delay bound.
const UnlimitedDelay = vtime.Unlimited

// ValidMonitor evaluates a condition over a valid-time store.
type ValidMonitor = vtime.Monitor

// Valid-time monitoring modes.
const (
	Tentative = vtime.Tentative
	Definite  = vtime.Definite
)

// NewValidMonitor compiles a condition for tentative or definite
// monitoring over a valid-time store.
func NewValidMonitor(s *ValidStore, reg *Registry, condition Formula, mode vtime.Mode) (*ValidMonitor, error) {
	return vtime.NewMonitor(s, reg, condition, mode)
}

// OnlineSatisfied reports online satisfaction of a temporal integrity
// constraint over a valid-time store (Section 9.3).
func OnlineSatisfied(s *ValidStore, reg *Registry, c Formula) (bool, error) {
	return vtime.OnlineSatisfied(s, reg, c)
}

// OfflineSatisfied reports offline satisfaction (Section 9.3).
func OfflineSatisfied(s *ValidStore, reg *Registry, c Formula) (bool, error) {
	return vtime.OfflineSatisfied(s, reg, c)
}

// ValidViolationError reports a transaction aborted by the Section-9.3
// valid-time enforcement procedure.
type ValidViolationError = vtime.ViolationError

// WriteHistory serializes a history as lossless JSON lines (one state per
// line, kind-tagged values); ReadHistory parses it back.
func WriteHistory(w io.Writer, h *History) error { return histio.Write(w, h) }

// ReadHistory parses a history written by WriteHistory.
func ReadHistory(r io.Reader) (*History, error) { return histio.Read(r) }

// NewDB builds an initial database state from an item map.
func NewDB(items map[string]Value) DBState { return history.NewDB(items) }

// EmptyDB returns the empty database state.
func EmptyDB() DBState { return history.EmptyDB() }

// ---- Network service layer (internal/server, client) ----

// Sentinel errors of the network service layer; match with errors.Is.
// They cross the wire: a client observes the same sentinels the server
// raised, alongside the engine taxonomy above (ErrDegraded,
// ErrConstraintViolation, ...).
var (
	// ErrSessionClosed reports an operation on a server session that has
	// ended — client bye, server drain, or connection failure.
	ErrSessionClosed = wire.ErrSessionClosed
	// ErrSubscriberLagged reports a firing subscriber whose bounded queue
	// overflowed under the disconnect overflow policy.
	ErrSubscriberLagged = wire.ErrSubscriberLagged
	// ErrVersionMismatch reports a connection whose protocol name or
	// version the peer does not speak.
	ErrVersionMismatch = wire.ErrVersionMismatch
	// ErrNotPrimary reports a write sent to a replica that is not the
	// primary; errors.As for *NotPrimaryError to get the redirect hint.
	ErrNotPrimary = wire.ErrNotPrimary
	// ErrWalTruncated reports a replication resume position that fell
	// behind the primary's retained WAL head and could not be snapshot-
	// bootstrapped.
	ErrWalTruncated = wire.ErrWalTruncated
)

// RemoteError is the client-side form of a server error frame; its Unwrap
// maps the wire code back onto the matching sentinel, so errors.Is works
// across the network.
type RemoteError = wire.RemoteError

// NotPrimaryError is the refusal a follower replica answers writes with;
// Leader, when non-empty, is the address the client should redial.
type NotPrimaryError = wire.NotPrimaryError
