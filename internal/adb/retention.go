package adb

import (
	"fmt"

	"ptlactive/internal/history"
	"ptlactive/internal/persist"
	"ptlactive/internal/value"
)

// Retention is the storage-lifecycle policy of a durable engine: how the
// WAL is rotated and garbage-collected and how many snapshots the chain
// keeps. Both knobs are runtime-only disk-layout choices, not part of the
// logged record sequence, so replicas may differ here. The zero value
// retains everything forever.
type Retention struct {
	// SegmentBytes rotates the WAL to a new segment file once the active
	// one reaches this size; snapshot-covered segments are then deleted
	// whole. 0 keeps the historical single-segment-forever behavior.
	SegmentBytes int64
	// KeepSnapshots bounds the snapshot chain: after each checkpoint, all
	// but the newest KeepSnapshots snapshot files (and every WAL segment
	// they cover) are deleted. 0 or 1 keeps only the newest.
	KeepSnapshots int
}

// ErrHistoryTruncated re-exports the sentinel for point-in-time reads
// older than the oldest retained history state; errors.Is matches it
// through HistoryTruncatedError.
var ErrHistoryTruncated = history.ErrHistoryTruncated

// HistoryTruncatedError reports a point-in-time read older than the oldest
// history state a Compact (or a checkpoint's compaction) left.
type HistoryTruncatedError struct {
	// Time is the requested timestamp; Floor the oldest retained one.
	Time  int64
	Floor int64
}

// Error describes the refusal.
func (e *HistoryTruncatedError) Error() string {
	return fmt.Sprintf("adb: history at %d truncated (oldest retained state is at %d)", e.Time, e.Floor)
}

// Unwrap yields the sentinel for errors.Is.
func (e *HistoryTruncatedError) Unwrap() error { return ErrHistoryTruncated }

// ItemAsOfChecked is ItemAsOf with a typed refusal: a read older than the
// oldest retained state of a compacted engine returns
// HistoryTruncatedError. The answer is the item's value in the retained
// state that was current at t (state i covers [TS_i, TS_i+1)), found by
// binary search on the timestamps.
func (e *Engine) ItemAsOfChecked(name string, t int64) (value.Value, bool, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := e.hist.PrefixAtTime(t).Len()
	if n == 0 {
		if e.base > 0 {
			return value.Value{}, false, &HistoryTruncatedError{Time: t, Floor: e.hist.At(0).TS}
		}
		return value.Value{}, false, nil
	}
	v, _ := e.hist.At(n - 1).DB.Get(name)
	return v, true, nil
}

// StorageStats is the engine's storage footprint: the persistence layer's
// segment and snapshot accounting. Memory engines report zero. It is the
// one declaration of the footprint from store to client: the wire's
// "storage" reply and the client's report are this type, and the tags are
// the reply's JSON form (the embedded struct's fields come first).
type StorageStats struct {
	// Segments, WALBytes, Snapshots, SnapshotBytes, HeadLSN and LastLSN.
	persist.StorageStats
	// HistoryWindow, HistoryFloor, SpillHistory, TierRows and TierBytes
	// always read 0. They described a deleted second copy of history and
	// stay only so the storage reply's binary layout, pinned by
	// binary_frames.golden, does not change.
	HistoryWindow int64 `json:"history_window,omitempty"`
	HistoryFloor  int64 `json:"history_floor,omitempty"`
	SpillHistory  bool  `json:"spill_history,omitempty"`
	TierRows      int64 `json:"tier_rows,omitempty"`
	TierBytes     int64 `json:"tier_bytes,omitempty"`
}

// Storage reports the engine's storage footprint. Like Checkpoint it runs
// at the engine owner's serialization point (the persist layer is not
// synchronized against concurrent appends).
func (e *Engine) Storage() (StorageStats, error) { return storageStats(e.store) }

// storageStats assembles the footprint of a store (nil for memory engines).
func storageStats(store *persist.Store) (StorageStats, error) {
	var out StorageStats
	if store == nil {
		return out, nil
	}
	var err error
	out.StorageStats, err = store.Stats()
	return out, err
}
