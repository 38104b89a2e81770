package adb

import (
	"fmt"

	"ptlactive/internal/histio"
	"ptlactive/internal/persist"
	"ptlactive/internal/retain"
	"ptlactive/internal/value"
)

// Retention is the storage-lifecycle policy of a durable engine: how the
// WAL is rotated and garbage-collected, how many snapshots the chain
// keeps, and what happens to collapsed temporal history older than the
// hot window. The zero value retains everything forever (the historical
// behavior).
type Retention struct {
	// SegmentBytes rotates the WAL to a new segment file once the active
	// one reaches this size; snapshot-covered segments are then deleted
	// whole. 0 keeps the historical single-segment-forever behavior.
	// Runtime-only: rotation points are a disk-layout concern, not part of
	// the logged record sequence, so replicas may differ here.
	SegmentBytes int64
	// KeepSnapshots bounds the snapshot chain: after each checkpoint, all
	// but the newest KeepSnapshots snapshot files (and every WAL segment
	// they cover) are deleted. 0 or 1 keeps only the newest. Runtime-only,
	// like SegmentBytes.
	KeepSnapshots int
	// HistoryWindow, when > 0, bounds the resident temporal history:
	// closed aux-relation intervals that ended more than HistoryWindow
	// time units before the engine clock are pruned at each commit.
	// Point-in-time reads older than the pruned floor are answered from
	// the cold tier (SpillHistory) or refused with ErrHistoryTruncated.
	// Persisted in the init record: the window shapes which AsOf queries
	// answer, so replay must use the original value.
	HistoryWindow int64
	// SpillHistory selects the tiered policy: pruned intervals are first
	// appended (fsynced) to an on-disk cold tier, which then serves AsOf
	// queries older than the hot window. False drops them. Persisted in
	// the init record alongside HistoryWindow.
	SpillHistory bool
}

// coldTierFile is the cold tier's filename inside the data directory.
const coldTierFile = "history.cold"

// ErrHistoryTruncated re-exports the sentinel for reads older than the
// retained history window under the drop policy; errors.Is matches it
// through HistoryTruncatedError.
var ErrHistoryTruncated = retain.ErrHistoryTruncated

// HistoryTruncatedError reports a point-in-time read older than the
// retention floor of an engine that drops (rather than spills) history.
type HistoryTruncatedError struct {
	// Time is the requested timestamp; Floor the oldest retained one.
	Time  int64
	Floor int64
}

// Error describes the refusal.
func (e *HistoryTruncatedError) Error() string {
	return fmt.Sprintf("adb: history at %d truncated (retention floor is %d; configure SpillHistory to keep a cold tier)", e.Time, e.Floor)
}

// Unwrap yields the sentinel for errors.Is.
func (e *HistoryTruncatedError) Unwrap() error { return ErrHistoryTruncated }

// Retention returns the engine's storage-lifecycle policy.
func (e *Engine) Retention() Retention { return e.retention }

// HistoryFloor returns the oldest timestamp point-in-time reads are
// guaranteed to answer from resident state. ok is false when no window is
// configured (everything is retained). The floor only advances at commits
// (it is now − HistoryWindow as of the latest prune), so it is a
// deterministic function of the logged history — replicas agree on it.
func (e *Engine) HistoryFloor() (int64, bool) {
	if e.retention.HistoryWindow <= 0 {
		return 0, false
	}
	return e.histFloor.Load(), true
}

// ItemAsOfChecked is ItemAsOf with typed retention errors: under the drop
// policy a read older than the retention floor returns
// HistoryTruncatedError (checked before the resident rows, so the answer
// set is a deterministic function of the configured window rather than of
// prune timing); under the spill policy a miss in the resident window
// falls back to the cold tier.
func (e *Engine) ItemAsOfChecked(name string, t int64) (value.Value, bool, error) {
	aux, ok := e.tracked[name]
	if !ok {
		return value.Value{}, false, nil
	}
	if e.retention.HistoryWindow > 0 && !e.retention.SpillHistory {
		if floor := e.histFloor.Load(); t < floor {
			return value.Value{}, false, &HistoryTruncatedError{Time: t, Floor: floor}
		}
	}
	if v, ok := aux.AsOf(t); ok {
		return v, true, nil
	}
	if e.tier != nil {
		raw, ok, err := e.tier.AsOf(name, t)
		if err != nil {
			return value.Value{}, false, &InternalError{Op: "cold tier read", Err: err}
		}
		if ok {
			v, err := histio.DecodeValue(raw)
			if err != nil {
				return value.Value{}, false, &InternalError{Op: "cold tier decode", Err: err}
			}
			return v, true, nil
		}
	}
	return value.Value{}, false, nil
}

// maybeRetain advances the retention floor to ts − HistoryWindow and
// prunes aux intervals that ended at or before it, spilling them to the
// cold tier first under the spill policy. It runs at the tail of every
// committed external operation — including during replay, where the tier
// watermark makes re-spills idempotent — so the floor is a deterministic
// function of the logged history.
func (e *Engine) maybeRetain(ts int64) error {
	w := e.retention.HistoryWindow
	if w <= 0 {
		return nil
	}
	floor := ts - w
	if floor <= e.histFloor.Load() {
		return nil
	}
	e.histFloor.Store(floor)
	return e.pruneAux(floor)
}

// pruneAux discards closed aux intervals that ended at or before horizon.
// Under the spill policy the expired rows are first appended and fsynced
// to the cold tier — only then pruned, so every captured interval exists
// in at least one place at every instant. A memory engine with
// SpillHistory set has no tier to spill to; it keeps the rows resident
// rather than lose them. A tier write failure breaks that contract, so it
// seals the engine like a WAL append failure.
func (e *Engine) pruneAux(horizon int64) error {
	for _, name := range e.trackedNames {
		aux := e.tracked[name]
		if e.retention.SpillHistory {
			if e.tier == nil {
				continue
			}
			expired := aux.Expired(horizon)
			rows := make([]retain.Row, 0, len(expired))
			for _, r := range expired {
				raw, err := histio.EncodeValue(r.Tuple[0])
				if err != nil {
					return e.seal(&InternalError{Op: "cold tier encode", Err: err})
				}
				rows = append(rows, retain.Row{Item: name, V: raw, Start: r.Start, End: r.End})
			}
			if err := e.tier.Spill(rows); err != nil {
				return e.seal(&InternalError{Op: "cold tier spill", Err: err})
			}
		}
		aux.Prune(horizon)
	}
	return nil
}

// StorageStats is the engine's storage footprint: the persistence layer's
// segment and snapshot accounting plus the retention policy's view of the
// history tiers. Memory engines report zero persistence fields. It is
// the one declaration of the footprint from store to client: the wire's
// "storage" reply and the client's report are this type, and the tags are
// the reply's JSON form (the embedded struct's fields come first).
type StorageStats struct {
	// Segments, WALBytes, Snapshots, SnapshotBytes, HeadLSN and LastLSN.
	persist.StorageStats
	// HistoryWindow and HistoryFloor describe the hot window; both are 0
	// when no window is configured.
	HistoryWindow int64 `json:"history_window,omitempty"`
	HistoryFloor  int64 `json:"history_floor,omitempty"`
	// SpillHistory reports the tiered policy; TierRows and TierBytes the
	// cold tier's size (0 without a tier).
	SpillHistory bool  `json:"spill_history,omitempty"`
	TierRows     int64 `json:"tier_rows,omitempty"`
	TierBytes    int64 `json:"tier_bytes,omitempty"`
}

// Storage reports the engine's storage footprint. Like Checkpoint it runs
// at the engine owner's serialization point (the persist layer is not
// synchronized against concurrent appends).
func (e *Engine) Storage() (StorageStats, error) { return storageStats(e.store, e, e.tier) }

// storageStats assembles the footprint of a store (nil for memory engines),
// the engine replayed from it (nil on a follower before the primary's init
// frame) and the cold tier (nil without one).
func storageStats(store *persist.Store, e *Engine, tier *retain.Tier) (StorageStats, error) {
	var out StorageStats
	if store != nil {
		var err error
		if out.StorageStats, err = store.Stats(); err != nil {
			return out, err
		}
	}
	if e != nil {
		if w := e.retention.HistoryWindow; w > 0 {
			out.HistoryWindow = w
			out.HistoryFloor = e.histFloor.Load()
		}
		out.SpillHistory = e.retention.SpillHistory
	}
	if tier != nil {
		out.TierRows, out.TierBytes = tier.Stats()
	}
	return out, nil
}
