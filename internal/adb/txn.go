package adb

import (
	"fmt"
	"sort"
	"sync"

	"ptlactive/internal/event"
	"ptlactive/internal/histio"
	"ptlactive/internal/history"
	"ptlactive/internal/persist"
	"ptlactive/internal/value"
)

// Emit appends an event-only system state at the given time and runs the
// temporal component.
func (e *Engine) Emit(ts int64, events ...event.Event) error {
	if err := e.refused(); err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("adb: Emit needs at least one event")
	}
	var walRec *persist.Record
	if e.logging() {
		raw, err := histio.EncodeEvents(events)
		if err != nil {
			return fmt.Errorf("adb: wal: %w", err)
		}
		walRec = &persist.Record{Kind: persist.KindEmit, TS: ts, Events: raw}
	}
	st := history.SystemState{DB: e.db, Events: event.NewSet(events...), TS: ts}
	return e.appendState(st, false, nil, walRec)
}

// appendState is the one way a system state enters the engine, whatever
// produced it (Emit, a commit, a rejected commit's abort, Abort): append it
// to the history with its dirty set, advance the database and clock, log
// the operation's record, then run the temporal component. changed names
// the items the state changed relative to its predecessor (nil for event
// and abort states). A commit — always one checkConstraints has just
// accepted — additionally promotes the constraints' tentative step (their
// cursors move past the state; a refused append rolls the step back) and
// runs the checkpoint policy after the sweep.
func (e *Engine) appendState(st history.SystemState, commit bool, changed []string, rec *persist.Record) error {
	e.mu.Lock()
	if err := e.hist.Append(st); err != nil {
		e.mu.Unlock()
		if commit {
			e.rollbackConstraints()
		}
		return err
	}
	if commit {
		for _, r := range e.constraints {
			r.cursor = e.hist.Len()
		}
	}
	e.dirty = append(e.dirty, dirtySet{known: true, items: changed})
	e.db = st.DB
	e.now = st.TS
	e.mu.Unlock()
	if err := e.logRecord(rec); err != nil {
		return err
	}
	e.resetCascade()
	if err := e.sweep(); err != nil || !commit {
		return err
	}
	return e.maybeCheckpoint()
}

// resetCascade clears the cascade budget on externally initiated
// operations; transactions run by actions (re-entrant) keep consuming the
// budget of the operation that started the cascade.
func (e *Engine) resetCascade() {
	if !e.inSweep {
		e.cascade = 0
	}
}

// Txn is an open transaction: buffered updates and events that become a
// single commit state.
type Txn struct {
	e       *Engine
	id      int64
	updates map[string]value.Value
	deletes map[string]bool
	events  []event.Event
	done    bool
}

// Begin opens a transaction. The begin event is recorded with the commit
// (the model adds system states only when events occur; an explicit begin
// state can be created with Emit if a condition needs it). Transaction ids
// are allocated under the lock, so concurrent sessions may Begin safely;
// the buffered Txn itself is still single-goroutine, and commits must be
// serialized by the caller (the network server's commit pipeline does
// exactly that). Begin is no mutator: from inside the temporal component it
// still takes an id, and the Txn's Commit and Abort are refused.
func (e *Engine) Begin() *Txn {
	e.mu.Lock()
	e.nextTxn++
	id := e.nextTxn
	e.mu.Unlock()
	return &Txn{e: e, id: id, updates: map[string]value.Value{}, deletes: map[string]bool{}}
}

// ID returns the transaction id.
func (t *Txn) ID() int64 { return t.id }

// Set buffers an update of a database item.
func (t *Txn) Set(item string, v value.Value) *Txn {
	t.updates[item] = v
	return t
}

// Delete buffers the removal of a database item.
func (t *Txn) Delete(item string) *Txn {
	t.deletes[item] = true
	delete(t.updates, item)
	return t
}

// Emit buffers events to occur at the commit instant.
func (t *Txn) Emit(events ...event.Event) *Txn {
	t.events = append(t.events, events...)
	return t
}

// Commit attempts to commit at the given time. Integrity constraints are
// evaluated against the tentative commit state (the attempts_to_commit
// event); on violation the transaction aborts: the database is unchanged,
// a transaction_abort state is appended instead, and a *ConstraintError is
// returned.
func (t *Txn) Commit(ts int64) error {
	if t.done {
		return fmt.Errorf("adb: transaction %d already finished", t.id)
	}
	e := t.e
	if err := e.refused(); err != nil {
		return err
	}
	t.done = true
	txv := value.NewInt(t.id)
	// Assemble the commit's event set in one exactly-sized slice the set
	// takes ownership of; the key-sort scratch is pooled. Both run on every
	// commit, so the assembly itself must not allocate beyond the one
	// retained array.
	events := make([]event.Event, 0, 2+len(t.updates)+len(t.events))
	events = append(events,
		event.New(event.AttemptsToCommit, txv),
		event.New(event.TransactionCommit, txv))
	keysp := keyScratch.Get().(*[]string)
	keys := (*keysp)[:0]
	for k := range t.updates {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, item := range keys {
		events = append(events, event.New(event.UpdateItem, value.NewString(item)))
	}
	*keysp = keys
	keyScratch.Put(keysp)
	events = append(events, t.events...)
	ndb := e.db.WithAll(t.updates)
	for _, item := range sortedKeys(t.deletes) {
		ndb = ndb.Without(item)
	}
	tentative := history.SystemState{
		DB:     ndb,
		Events: event.NewSetOwned(events),
		TS:     ts,
	}
	// Validate against history invariants before constraint work.
	if last, ok := e.hist.Last(); ok && ts <= last.TS {
		return fmt.Errorf("adb: commit timestamp %d not after %d", ts, last.TS)
	}
	// One record covers both outcomes: replay re-runs the constraints, so a
	// rejected attempt re-derives its abort state from the same record.
	var walRec *persist.Record
	if e.logging() {
		var err error
		if walRec, err = e.execRecord(t, ts); err != nil {
			return err
		}
	}
	var changed []string
	if n := len(t.updates) + len(t.deletes); n > 0 {
		changed = make([]string, 0, n)
		for item := range t.updates {
			changed = append(changed, item)
		}
		for item := range t.deletes {
			changed = append(changed, item)
		}
	}
	// The constraints step over the tentative state in place and roll back
	// on a rejection, so an abort leaves no trace in the temporal component.
	// Violations are resolved in rule registration order.
	violated, err := e.checkConstraints(tentative, changed)
	if err != nil {
		return err
	}
	if violated != nil {
		if err := e.appendAbort(t.id, ts, walRec); err != nil {
			return err
		}
		return &ConstraintError{Constraint: violated.name, Txn: t.id}
	}
	return e.appendState(tentative, true, changed, walRec)
}

// Abort abandons the transaction, appending a transaction_abort state.
func (t *Txn) Abort(ts int64) error {
	if t.done {
		return fmt.Errorf("adb: transaction %d already finished", t.id)
	}
	e := t.e
	if err := e.refused(); err != nil {
		return err
	}
	t.done = true
	return e.appendAbort(t.id, ts, &persist.Record{Kind: persist.KindAbort, Txn: t.id, TS: ts})
}

// appendAbort appends transaction txn's transaction_abort state: the
// database is unchanged. rec is the operation that aborted — an explicit
// Abort, or the commit attempt the constraints rejected.
func (e *Engine) appendAbort(txn, ts int64, rec *persist.Record) error {
	st := history.SystemState{
		DB:     e.db,
		Events: event.NewSet(event.New(event.TransactionAbort, value.NewInt(txn))),
		TS:     ts,
	}
	return e.appendState(st, false, nil, rec)
}

// Exec runs a one-shot transaction: apply updates and events, commit at
// the given time.
func (e *Engine) Exec(ts int64, updates map[string]value.Value, events ...event.Event) error {
	return e.ExecTxn(ts, updates, nil, events...)
}

// ExecTxn runs a one-shot transaction with updates, deletes and events —
// the session-scoped exec primitive the network layer maps one batched
// Begin/Set/Delete/Emit/Commit round-trip onto.
func (e *Engine) ExecTxn(ts int64, updates map[string]value.Value, deletes []string, events ...event.Event) error {
	// Refused before Begin, so a refused call takes no transaction id.
	if err := e.refused(); err != nil {
		return err
	}
	tx := e.Begin()
	for k, v := range updates {
		tx.Set(k, v)
	}
	for _, d := range deletes {
		tx.Delete(d)
	}
	tx.Emit(events...)
	return tx.Commit(ts)
}

// keyScratch pools the key-sorting scratch of the hot commit path; the
// slices never escape a single Commit call.
var keyScratch = sync.Pool{New: func() any {
	s := make([]string, 0, 16)
	return &s
}}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
