package adb

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"ptlactive/internal/histio"
	"ptlactive/internal/persist"
	"ptlactive/internal/ptl"
	"ptlactive/internal/retain"
)

// Durability selects the persistence mode of an engine opened with
// Restore. Memory engines (NewEngine) are always DurabilityOff.
type Durability int

const (
	// DurabilityOff keeps everything in memory; a crash loses the engine.
	DurabilityOff Durability = iota
	// DurabilityWAL logs every committed operation to the write-ahead log;
	// recovery replays the log from the latest snapshot (if any).
	DurabilityWAL
	// DurabilitySnapshot is DurabilityWAL plus an automatic checkpoint
	// (Compact, snapshot, WAL reset) every Config.SnapshotEvery commits.
	DurabilitySnapshot
)

// String names the mode.
func (d Durability) String() string {
	switch d {
	case DurabilityOff:
		return "off"
	case DurabilityWAL:
		return "wal"
	case DurabilitySnapshot:
		return "snapshot"
	}
	return fmt.Sprintf("Durability(%d)", int(d))
}

// RecoveryInfo describes what Restore found and did.
type RecoveryInfo struct {
	// SnapshotLSN is the last WAL record the loaded snapshot covered; 0
	// when recovery started from the log alone.
	SnapshotLSN int64
	// ReplayedRecords is how many WAL-tail records recovery consumed —
	// only the tail after the snapshot, never the whole history.
	ReplayedRecords int
	// TruncatedAt is the WAL file offset of a torn final record that was
	// discarded, -1 when the log ended cleanly.
	TruncatedAt int64
	// ReplayErrors collects per-record replay failures (for example an
	// action that errored); decode failures abort recovery instead.
	ReplayErrors []error
}

// Recovery returns the outcome of the Restore that created this engine;
// the zero value for engines created with NewEngine.
func (e *Engine) Recovery() RecoveryInfo { return e.recovery }

// logging reports whether the engine should append WAL records right now:
// a durable store is attached and we are not inside replay or an action
// cascade (cascaded operations are re-derived by replaying the external
// operation through the normal sweep path).
func (e *Engine) logging() bool {
	return e.store != nil && e.durMode != DurabilityOff && e.suppress == 0
}

// logRecord appends one record, counting it toward the next checkpoint;
// callers that skip encoding while not logging pass nil. An append or fsync failure means the durability contract is broken: the
// engine seals into read-only degraded mode (the in-memory state stays
// intact and readable; recovery from disk yields the committed prefix)
// and the sealing error is returned, ErrDegraded-wrapped.
func (e *Engine) logRecord(rec *persist.Record) error {
	if rec == nil || !e.logging() {
		return nil
	}
	if _, err := e.store.Append(rec); err != nil {
		return e.seal(err)
	}
	e.walSince++
	return nil
}

// execRecord encodes a commit attempt for the WAL. Only the caller's own
// updates, deletes and extra events are stored; the synthesized commit
// events and any constraint-driven abort are re-derived during replay.
func (e *Engine) execRecord(t *Txn, ts int64) (*persist.Record, error) {
	updates, err := histio.EncodeItems(t.updates)
	if err != nil {
		return nil, fmt.Errorf("adb: wal: %w", err)
	}
	events, err := histio.EncodeEvents(t.events)
	if err != nil {
		return nil, fmt.Errorf("adb: wal: %w", err)
	}
	return &persist.Record{
		Kind:    persist.KindExec,
		Txn:     t.id,
		TS:      ts,
		Updates: updates,
		Deletes: sortedKeys(t.deletes),
		Events:  events,
	}, nil
}

// maybeCheckpoint runs the periodic snapshot policy after a successful
// external commit.
func (e *Engine) maybeCheckpoint() error {
	if !e.logging() || e.durMode != DurabilitySnapshot || e.inSweep {
		return nil
	}
	e.commitsSince++
	if e.commitsSince < e.snapEvery {
		return nil
	}
	return e.Checkpoint()
}

// Checkpoint compacts the history, writes a snapshot covering everything
// logged so far and resets the WAL. Durable engines only.
func (e *Engine) Checkpoint() error {
	if e.store == nil {
		return fmt.Errorf("adb: Checkpoint requires a durable engine (use Restore)")
	}
	if err := e.Degraded(); err != nil {
		return err
	}
	// The checkpoint's own compaction is part of the snapshot, not an
	// operation to replay.
	e.suppress++
	e.Compact()
	e.suppress--
	snap, err := e.buildSnapshot()
	if err != nil {
		return err
	}
	if err := e.store.SaveSnapshot(snap); err != nil {
		return err
	}
	e.walSince = 0
	e.commitsSince = 0
	return nil
}

// SaveSnapshot writes the engine's durable state to w in the snapshot
// format (see internal/persist). The engine must be quiescent: no sweep in
// progress and no actions pending.
func (e *Engine) SaveSnapshot(w io.Writer) error {
	snap, err := e.buildSnapshot()
	if err != nil {
		return err
	}
	if e.store != nil {
		snap.LSN = e.store.LastLSN()
	}
	return persist.EncodeSnapshot(w, snap)
}

// SyncWAL forces any buffered (group-commit) WAL records to stable
// storage; a no-op for memory engines and per-record durability. A flush
// failure breaks the durability contract, so it seals the engine exactly
// like a failed per-record append.
func (e *Engine) SyncWAL() error {
	if e.store == nil {
		return nil
	}
	if err := e.store.Flush(); err != nil {
		return e.seal(err)
	}
	return nil
}

// SetWALFailpoint installs (or clears, with nil) the WAL fault-injection
// hook of a durable engine; a no-op for memory engines. It exists for
// degraded-mode tests outside this package (the network layer's
// writes-fail-reads-survive scenarios); see persist.Failpoint.
func (e *Engine) SetWALFailpoint(fp persist.Failpoint) {
	if e.store != nil {
		e.store.SetFailpoint(fp)
	}
}

// Close releases the durability store (no-op for memory engines) and
// surfaces the sealing error of a degraded engine, so a fault noted by an
// int-returning operation (Compact, PruneExecutions) is never silent.
func (e *Engine) Close() error {
	var err error
	if e.store != nil {
		err = e.store.Close()
		e.store = nil
	}
	if e.tier != nil {
		terr := e.tier.Close()
		e.tier = nil
		if err == nil {
			err = terr
		}
	}
	if deg := e.Degraded(); deg != nil {
		return deg
	}
	return err
}

// Restore opens (creating if needed) a durable engine backed by dir: it
// loads the newest valid snapshot, replays only the WAL tail after it
// through the normal commit and sweep path, truncates a torn final record
// and attaches the WAL for further logging. A recovered engine is
// firing-identical to one that never crashed.
//
// cfg supplies the runtime-only pieces — Registry, Actions (the action
// functions of logged rules, by name; they must be the same deterministic
// actions for replay equivalence), OnFiring, Workers, Durability,
// SnapshotEvery, NoFsync. The persisted init record governs the rest
// (Initial, Start, TrackItems, CascadeLimit, the governance knobs and the
// history-retention policy); for a fresh directory those are taken from
// cfg and logged. DurabilityOff is promoted to DurabilityWAL: an engine
// with a data directory logs.
func Restore(cfg Config, dir string) (*Engine, error) {
	o, err := openDir(cfg, dir)
	if err != nil {
		return nil, err
	}
	e, err := attachStore(cfg, o.eng, o.store, o.tier)
	if err != nil {
		o.close()
		return nil, err
	}
	e.recovery = RecoveryInfo{
		SnapshotLSN:     o.res.SnapshotLSN,
		ReplayedRecords: o.replayed,
		TruncatedAt:     o.res.TruncatedAt,
		ReplayErrors:    o.replayErrs,
	}
	// A fresh directory already counted its init record via logRecord;
	// replayed records are appended on top of whatever the log holds.
	e.walSince += o.replayed
	return e, nil
}

// opened is a durability directory opened and replayed by openDir.
type opened struct {
	store *persist.Store
	res   *persist.OpenResult
	tier  *retain.Tier // open cold tier under the spill policy, else nil
	// eng is the engine the directory describes, its WAL tail replayed; nil
	// for an empty directory. No store is attached, so it logs nothing.
	eng *Engine
	// replayed counts the WAL records consumed (the init record included);
	// replayErrs collects per-operation replay failures.
	replayed   int
	replayErrs []error
}

// close releases what openDir opened, on a caller's error path.
func (o *opened) close() {
	if o.tier != nil {
		o.tier.Close()
	}
	o.store.Close()
}

// openDir is the one open-and-replay sequence behind Restore and
// OpenFollower: open the store, rebuild the engine from the newest snapshot
// (else from the init record that opens the log), open the cold tier, and
// replay the WAL tail through the normal commit and sweep path. Per-operation
// replay failures (a rejected commit, a failed action) reproduce the logged
// outcome — state, not errors; a malformed record is fatal.
func openDir(cfg Config, dir string) (*opened, error) {
	st, res, err := persist.OpenOptions(dir, persist.Options{
		SegmentBytes:  cfg.Retention.SegmentBytes,
		KeepSnapshots: cfg.Retention.KeepSnapshots,
	})
	if err != nil {
		return nil, err
	}
	if cfg.NoFsync {
		st.DisableSync()
	}
	o := &opened{store: st, res: res}
	tail := res.Tail
	switch {
	case res.Snapshot != nil:
		o.eng, err = engineFromSnapshot(cfg, res.Snapshot)
	case len(tail) > 0:
		if tail[0].Kind != persist.KindInit || tail[0].Init == nil {
			err = fmt.Errorf("adb: wal does not begin with an init record (kind %q)", tail[0].Kind)
		} else {
			o.eng, err = engineFromInit(cfg, tail[0].Init)
			tail = tail[1:]
			o.replayed = 1
		}
	}
	if err != nil {
		o.close()
		return nil, err
	}
	// The cold tier opens before replay: replayed commits run the same
	// retention prunes the original engine did, and under the spill policy
	// those spill (idempotently, by watermark) before pruning. The persisted
	// policy decides; an empty directory has only cfg's to go by.
	policy := cfg.Retention
	if o.eng != nil {
		policy = o.eng.retention
	}
	if policy.SpillHistory && policy.HistoryWindow > 0 {
		if o.tier, err = retain.OpenTier(filepath.Join(dir, coldTierFile)); err != nil {
			o.close()
			return nil, err
		}
	}
	if o.eng != nil {
		o.eng.tier = o.tier
	}
	for _, rec := range tail {
		opErr, fatal := o.eng.applyRecord(rec)
		if fatal != nil {
			o.close()
			return nil, fatal
		}
		o.replayed++
		if opErr != nil {
			o.replayErrs = append(o.replayErrs, fmt.Errorf("adb: replay LSN %d: %w", rec.LSN, opErr))
		}
	}
	return o, nil
}

// attachStore makes e the logging owner of st, under cfg's durability mode,
// checkpoint period and group-commit batch; Restore and Follower.Promote
// both end here. Over an empty log there is no engine yet (e is nil): a
// fresh one is built from cfg and its init record opens the log.
func attachStore(cfg Config, e *Engine, st *persist.Store, tier *retain.Tier) (*Engine, error) {
	fresh := e == nil
	if fresh {
		e = newMemEngine(cfg)
		e.tier = tier
	}
	e.store = st
	e.durMode = cfg.Durability
	if e.durMode == DurabilityOff {
		e.durMode = DurabilityWAL
	}
	e.snapEvery = cfg.SnapshotEvery
	if e.snapEvery <= 0 {
		e.snapEvery = 64
	}
	if cfg.GroupCommit > 1 {
		if err := st.SetGroupCommit(cfg.GroupCommit); err != nil {
			return nil, err
		}
	}
	if fresh {
		if err := e.logRecord(&persist.Record{Kind: persist.KindInit, Init: e.initRec}); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// newMemEngine builds the memory engine cfg describes and hands it the
// recovery action table; a store is attached afterwards, if at all.
func newMemEngine(cfg Config) *Engine {
	cfg.Durability = DurabilityOff
	e := NewEngine(cfg)
	e.actions = cfg.Actions
	return e
}

// engineFromInit builds a fresh engine from a persisted init record plus
// the runtime-only config: whatever shapes behavior or query answers
// (initial state, cascade and governance limits, the history-retention
// policy) comes from the record; workers, callbacks, the action deadline
// and the WAL-layout knobs stay cfg's.
func engineFromInit(cfg Config, init *persist.InitRecord) (*Engine, error) {
	items, err := histio.DecodeItems(init.Initial)
	if err != nil {
		return nil, fmt.Errorf("adb: init record: %w", err)
	}
	cfg.Initial, cfg.Start, cfg.TrackItems = items, init.Start, init.TrackItems
	cfg.CascadeLimit, cfg.MaxRuleFailures, cfg.SweepBudget = init.CascadeLimit, init.MaxRuleFailures, init.SweepBudget
	cfg.Retention.HistoryWindow, cfg.Retention.SpillHistory = init.HistoryWindow, init.SpillHistory
	return newMemEngine(cfg), nil
}

// decodeRule validates a persisted rule registration (a WAL addrule record
// or a snapshot entry): the condition decodes and the scheduling is known.
func decodeRule(cond json.RawMessage, sched int) (ptl.Formula, error) {
	if sched < int(Eager) || sched > int(Manual) {
		return nil, fmt.Errorf("unknown scheduling %d", sched)
	}
	return ptl.DecodeFormula(cond)
}

// actionFor looks up the recovery action table.
func (e *Engine) actionFor(name string) Action {
	if e.actions == nil {
		return nil
	}
	return e.actions[name]
}

// applyRecord replays one WAL record through the engine's normal paths.
// The first result is a per-operation failure (recovery continues and
// reports it); the second is fatal (malformed record — recovery stops).
func (e *Engine) applyRecord(rec *persist.Record) (opErr, fatal error) {
	switch rec.Kind {
	case persist.KindInit:
		return nil, fmt.Errorf("adb: replay LSN %d: unexpected init record", rec.LSN)
	case persist.KindAddRule:
		f, err := decodeRule(rec.Cond, rec.Sched)
		if err != nil {
			return nil, fmt.Errorf("adb: replay LSN %d: %w", rec.LSN, err)
		}
		return e.add(rec.Name, f, e.actionFor(rec.Name), rec.Constraint, WithScheduling(Scheduling(rec.Sched))), nil
	case persist.KindExec:
		updates, err := histio.DecodeItems(rec.Updates)
		if err != nil {
			return nil, fmt.Errorf("adb: replay LSN %d: %w", rec.LSN, err)
		}
		events, err := histio.DecodeEvents(rec.Events)
		if err != nil {
			return nil, fmt.Errorf("adb: replay LSN %d: %w", rec.LSN, err)
		}
		e.nextTxn = rec.Txn - 1
		tx := e.Begin()
		for _, item := range sortedKeys(updates) {
			tx.Set(item, updates[item])
		}
		for _, item := range rec.Deletes {
			tx.Delete(item)
		}
		tx.Emit(events...)
		err = tx.Commit(rec.TS)
		var cerr *ConstraintError
		if errors.As(err, &cerr) {
			// The constraints rejected this commit originally too; the
			// replayed abort state is the logged outcome.
			err = nil
		}
		return err, nil
	case persist.KindAbort:
		e.nextTxn = rec.Txn - 1
		return e.Begin().Abort(rec.TS), nil
	case persist.KindEmit:
		events, err := histio.DecodeEvents(rec.Events)
		if err != nil {
			return nil, fmt.Errorf("adb: replay LSN %d: %w", rec.LSN, err)
		}
		return e.Emit(rec.TS, events...), nil
	case persist.KindFlush:
		return e.Flush(), nil
	case persist.KindCompact:
		e.Compact()
		return nil, nil
	case persist.KindPrune:
		e.PruneExecutions(rec.Arg)
		return nil, nil
	case persist.KindRevive:
		return e.ReviveRule(rec.Name), nil
	case persist.KindEpoch:
		if rec.Epoch > e.epoch {
			e.epoch = rec.Epoch
		}
		return nil, nil
	}
	return nil, fmt.Errorf("adb: replay LSN %d: unknown kind %q", rec.LSN, rec.Kind)
}
