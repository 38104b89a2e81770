package persist

import (
	"encoding/json"
	"fmt"

	"ptlactive/internal/histio"
)

// Record kinds. The WAL logs the committed operations of the engine's
// external interface; action-initiated cascades are not logged — replaying
// the external operation through the normal sweep path re-derives them.
const (
	// KindInit opens a fresh log: the engine construction parameters.
	KindInit = "init"
	// KindAddRule is a trigger or constraint registration.
	KindAddRule = "addrule"
	// KindExec is a transaction commit attempt (including attempts the
	// constraints rejected: replay re-evaluates the constraints and
	// re-derives the abort state).
	KindExec = "exec"
	// KindAbort is an explicit transaction abort.
	KindAbort = "abort"
	// KindEmit is an event-only system state.
	KindEmit = "emit"
	// KindFlush is a batched temporal-component invocation.
	KindFlush = "flush"
	// KindCompact discards fully-processed history prefix states.
	KindCompact = "compact"
	// KindPrune discards executed-predicate records older than Arg.
	KindPrune = "prune"
	// KindRevive lifts the named rule's quarantine (Engine.ReviveRule).
	// Revival re-enables suppressed actions, so replay must re-apply it at
	// the same point to reproduce the original run.
	KindRevive = "revive"
	// KindEpoch fences a leadership change: the record stamps the primary
	// epoch (Record.Epoch) into the log at the point a node became primary.
	// A replication follower refuses frames from any epoch older than the
	// highest it has applied, so a deposed primary's stale tail cannot
	// overwrite a promoted successor's history.
	KindEpoch = "epoch"
)

// InitRecord carries the Config parameters that shape observable engine
// behavior. Runtime-only knobs (Workers, OnFiring, Registry) are not
// persisted: the engine's results are independent of the worker count by
// construction, and callbacks/queries are re-supplied at restore. Logs
// written while the record carried the nofast/noindex ablation flags still
// decode: unknown keys are ignored, and firings never depended on either.
type InitRecord struct {
	Initial      map[string]json.RawMessage `json:"initial,omitempty"`
	Start        int64                      `json:"start"`
	TrackItems   []string                   `json:"track,omitempty"`
	CascadeLimit int                        `json:"cascade,omitempty"`
	// MaxRuleFailures and SweepBudget shape which actions run and which
	// sweeps fail, so replay must use the original values; both are
	// omitted (and decode to "disabled") in logs written before they
	// existed.
	MaxRuleFailures int   `json:"maxfail,omitempty"`
	SweepBudget     int64 `json:"budget,omitempty"`
	// HistoryWindow and SpillHistory are the history-retention policy:
	// they shape which point-in-time reads answer, so replay must use the
	// original values. Both decode to "retain everything" in logs written
	// before retention existed.
	HistoryWindow int64 `json:"histwin,omitempty"`
	SpillHistory  bool  `json:"spill,omitempty"`
}

// Record is one WAL entry. Kind selects which of the payload fields are
// meaningful; unused fields stay at their zero values and are omitted from
// the JSON encoding.
type Record struct {
	LSN  int64  `json:"lsn"`
	Kind string `json:"kind"`

	// KindInit.
	Init *InitRecord `json:"init,omitempty"`

	// KindAddRule. Cond is the engine-internal condition in the codec of
	// internal/ptl — for constraints it is already the negated form the
	// engine evaluates.
	Name       string          `json:"name,omitempty"`
	Cond       json.RawMessage `json:"cond,omitempty"`
	Constraint bool            `json:"constraint,omitempty"`
	Sched      int             `json:"sched,omitempty"`

	// KindExec, KindAbort, KindEmit. Events holds only the extra events the
	// caller supplied; the synthesized commit/abort events are re-derived
	// during replay.
	Txn     int64                      `json:"txn,omitempty"`
	TS      int64                      `json:"ts,omitempty"`
	Updates map[string]json.RawMessage `json:"updates,omitempty"`
	Deletes []string                   `json:"deletes,omitempty"`
	Events  [][]json.RawMessage        `json:"events,omitempty"`

	// KindPrune.
	Arg int64 `json:"arg,omitempty"`

	// KindEpoch: the primary epoch in force from this record on.
	Epoch int64 `json:"epoch,omitempty"`
}

// validKind reports whether k is a known record kind.
func validKind(k string) bool {
	switch k {
	case KindInit, KindAddRule, KindExec, KindAbort, KindEmit, KindFlush, KindCompact, KindPrune, KindRevive, KindEpoch:
		return true
	}
	return false
}

// RuleSnapshot is one registered rule in snapshot form: its condition (the
// engine-internal, possibly negated formula), registration parameters, the
// history cursor, the compiled evaluator's incremental state — the
// F_{g,i} registers whose boundedness Theorem 1 establishes — and the
// rule's health record. Quarantine shapes which actions run, so recovery
// from a snapshot must restore it or replay would re-run actions the
// original engine suppressed.
type RuleSnapshot struct {
	Name       string          `json:"name"`
	Cond       json.RawMessage `json:"cond"`
	Constraint bool            `json:"constraint,omitempty"`
	Sched      int             `json:"sched,omitempty"`
	Cursor     int             `json:"cursor"`
	Eval       json.RawMessage `json:"eval"`

	// Quiescent-replay memo (see adb rule classification): the outcome of
	// the rule's last evaluation at a commit state. Restoring it keeps a
	// recovered engine's evaluation schedule identical to the original's —
	// without it the first post-recovery commit would re-evaluate rules
	// the original engine replayed. Absent in older snapshots (decodes to
	// invalid), which only costs one re-evaluation per rule.
	MemoValid    bool                         `json:"memoValid,omitempty"`
	MemoFired    bool                         `json:"memoFired,omitempty"`
	MemoBindings []map[string]json.RawMessage `json:"memoBindings,omitempty"`

	// Health fields. LastFailure keeps only the error text: typed error
	// identity (errors.Is/As against the sandbox types) does not survive a
	// snapshot, the forensic message does.
	Quarantined bool   `json:"quarantined,omitempty"`
	ConsecFails int    `json:"consecFails,omitempty"`
	TotalFails  int    `json:"totalFails,omitempty"`
	LastFailure string `json:"lastFailure,omitempty"`
	LastFailAt  int64  `json:"lastFailAt,omitempty"`
}

// IntervalJSON is one auxiliary-relation interval row in wire form.
type IntervalJSON struct {
	Tuple []json.RawMessage `json:"tuple"`
	Start int64             `json:"start"`
	End   int64             `json:"end"`
}

// AuxSnapshot is the captured state of one tracked item's auxiliary
// relation (validity intervals plus the capture watermark).
type AuxSnapshot struct {
	Item        string         `json:"item"`
	Rows        []IntervalJSON `json:"rows,omitempty"`
	LastCapture int64          `json:"last"`
	Captured    bool           `json:"captured"`
}

// FiringSnapshot is one recorded rule firing in wire form.
type FiringSnapshot struct {
	Rule       string                     `json:"rule"`
	Binding    map[string]json.RawMessage `json:"binding,omitempty"`
	Time       int64                      `json:"time"`
	StateIndex int                        `json:"state"`
}

// ExecutionSnapshot is one executed-predicate record in wire form.
type ExecutionSnapshot struct {
	Rule   string            `json:"rule"`
	Params []json.RawMessage `json:"params,omitempty"`
	Time   int64             `json:"time"`
}

// EngineSnapshot is the full durable state of an engine at a quiescent
// point (no sweep in progress, no pending actions): the retained history
// window, the rule set with evaluator registers, the auxiliary relations,
// and the firing/execution logs. LSN is the last WAL record the snapshot
// covers; recovery replays only records after it.
type EngineSnapshot struct {
	Init *InitRecord `json:"init"`
	LSN  int64       `json:"lsn"`
	// Epoch is the primary epoch in force at the snapshot (see KindEpoch):
	// a WAL reset discards the epoch records, so the fencing state must
	// travel with the snapshot. Absent in older snapshots (decodes to 0,
	// the never-promoted epoch).
	Epoch     int64               `json:"epoch,omitempty"`
	History   []histio.StateJSON  `json:"history"`
	Base      int                 `json:"base"`
	Now       int64               `json:"now"`
	NextTxn   int64               `json:"nextTxn"`
	EvalSteps int64               `json:"evalSteps"`
	Rules     []RuleSnapshot      `json:"rules,omitempty"`
	Firings   []FiringSnapshot    `json:"firings,omitempty"`
	Execs     []ExecutionSnapshot `json:"execs,omitempty"`
	Tracked   []AuxSnapshot       `json:"tracked,omitempty"`
}

// validate checks the structural invariants recovery depends on.
func (s *EngineSnapshot) validate() error {
	if s.Init == nil {
		return fmt.Errorf("persist: snapshot missing init record")
	}
	if len(s.History) == 0 {
		return fmt.Errorf("persist: snapshot has no history states")
	}
	if s.Base < 0 {
		return fmt.Errorf("persist: snapshot base index %d negative", s.Base)
	}
	if s.LSN < 0 {
		return fmt.Errorf("persist: snapshot LSN %d negative", s.LSN)
	}
	for i, r := range s.Rules {
		if r.Name == "" {
			return fmt.Errorf("persist: snapshot rule %d has empty name", i)
		}
		if r.Cursor < 0 || r.Cursor > len(s.History) {
			return fmt.Errorf("persist: snapshot rule %s cursor %d out of range [0, %d]", r.Name, r.Cursor, len(s.History))
		}
	}
	return nil
}
