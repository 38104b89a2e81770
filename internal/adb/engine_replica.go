package adb

import (
	"fmt"

	"ptlactive/internal/persist"
)

// This file is the engine half of the replication subsystem (see
// internal/replica): a primary exposes its durable WAL batches for
// shipping, and a Follower applies shipped frames byte-for-byte through
// the normal recovery path, so follower state and firing stream are
// identical to the primary's by construction.

// Epoch returns the replication primary epoch — the highest epoch record
// (persist.KindEpoch) this engine has logged or replayed, 0 when it was
// never part of a promoted replica set. Safe for concurrent use.
func (e *Engine) Epoch() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.epoch
}

// BumpEpoch fences a leadership change: it logs an epoch record carrying
// n, whose append writes and fsyncs it like every record, and only then
// adopts n as the engine's epoch. Durable engines only; n must exceed the
// current epoch. The ordering matters for shipping: the flush hook
// observes the frame that carries the epoch record while the engine still
// reports the old epoch, so a follower at the old epoch accepts the batch
// and the record itself performs the bump on both sides.
func (e *Engine) BumpEpoch(n int64) error {
	if e.store == nil {
		return fmt.Errorf("adb: BumpEpoch requires a durable engine")
	}
	if err := e.refused(); err != nil {
		return err
	}
	if cur := e.Epoch(); n <= cur {
		return fmt.Errorf("adb: epoch %d does not exceed current epoch %d", n, cur)
	}
	if err := e.logRecord(&persist.Record{Kind: persist.KindEpoch, Epoch: n}); err != nil {
		return err
	}
	e.mu.Lock()
	e.epoch = n
	e.mu.Unlock()
	return nil
}

// WALLastLSN returns the LSN of the engine's most recent WAL record
// (snapshot-covered or appended), 0 for memory engines.
func (e *Engine) WALLastLSN() int64 {
	if e.store == nil {
		return 0
	}
	return e.store.LastLSN()
}

// WALFlushHook installs (or clears, with nil) the durable-batch observer
// on the engine's WAL; see persist.FlushHook. A no-op for memory engines.
// The caller must serialize installation against commits (the replica
// backend's pipeline does).
func (e *Engine) WALFlushHook(h persist.FlushHook) {
	if e.store != nil {
		e.store.SetFlushHook(h)
	}
}

// WALReadFrom reads the engine's durable WAL frames with LSN >= from in
// chunks of at most maxChunk bytes (see persist.Store.ReadFramesFrom); a
// replication follower's backlog is served from it. Durable engines only.
func (e *Engine) WALReadFrom(from int64, maxChunk int) ([]persist.WALChunk, error) {
	if e.store == nil {
		return nil, fmt.Errorf("adb: WALReadFrom requires a durable engine")
	}
	return e.store.ReadFramesFrom(from, maxChunk)
}

// WALNewestSnapshot returns the newest durable snapshot's raw bytes and
// covered LSN, for bootstrapping a follower whose resume position fell
// behind the retained WAL head. ok is false when no snapshot exists (then
// no GC has run either, so the full log is still readable). Durable
// engines only.
func (e *Engine) WALNewestSnapshot() ([]byte, int64, bool, error) {
	if e.store == nil {
		return nil, 0, false, fmt.Errorf("adb: WALNewestSnapshot requires a durable engine")
	}
	return e.store.NewestSnapshot()
}

// Follower is a replication replica of a remote primary: it owns a
// durability directory whose WAL is an exact byte prefix of the primary's
// and an engine rebuilt from it by replay. Shipped frames are persisted
// verbatim (AppendRaw) and then applied through the same replay path
// recovery uses, so the follower's state, firing stream and on-disk log
// are identical to the primary's at every batch boundary.
//
// A Follower is not safe for concurrent use; the replica node serializes
// ApplyFrames, reads and Promote.
type Follower struct {
	cfg      Config
	store    *persist.Store
	eng      *Engine // nil until the primary's init frame arrives
	lastLSN  int64
	epoch    int64
	promoted bool
}

// OpenFollower opens (creating if needed) a follower directory: it loads
// the newest snapshot, replays the WAL tail and returns a Follower ready
// to apply shipped frames from LastLSN()+1. Unlike Restore it never logs
// anything of its own — a fresh directory stays empty until the primary's
// init frame arrives, because the init record must be the primary's bytes
// for the logs to match. cfg supplies the runtime-only pieces (Registry,
// Actions, OnFiring); the replicated init record governs the rest.
func OpenFollower(cfg Config, dir string) (*Follower, error) {
	o, err := openDir(cfg, dir)
	if err != nil {
		return nil, err
	}
	return &Follower{
		cfg:     cfg,
		store:   o.store,
		eng:     o.eng,
		lastLSN: o.store.LastLSN(),
		epoch:   o.res.Epoch,
	}, nil
}

// Engine returns the replayed engine for read-only access (queries,
// firings, health); nil before the primary's init frame has arrived.
// Mutating it directly would diverge from the primary.
func (f *Follower) Engine() *Engine { return f.eng }

// LastLSN returns the LSN of the last applied record; the follower wants
// frames from LastLSN()+1.
func (f *Follower) LastLSN() int64 { return f.lastLSN }

// Epoch returns the highest primary epoch the follower has applied.
func (f *Follower) Epoch() int64 { return f.epoch }

// ApplyFrames persists and applies one shipped batch of WAL frames.
// batchEpoch is the sending primary's epoch when the batch was flushed;
// a batch from an epoch older than the follower's is a deposed primary's
// stale tail and is rejected (epoch fencing). Frames whose LSN the
// follower has already applied are skipped — redelivered batches are
// idempotent — and a gap beyond lastLSN+1 is a hard error (applying
// across it would silently diverge). Returns how many records were newly
// applied.
func (f *Follower) ApplyFrames(data []byte, batchEpoch int64) (int, error) {
	if f.promoted {
		return 0, fmt.Errorf("adb: follower was promoted; no further frames")
	}
	if batchEpoch < f.epoch {
		return 0, fmt.Errorf("adb: fenced: batch epoch %d older than follower epoch %d", batchEpoch, f.epoch)
	}
	recs, offs, err := persist.ParseFrames(data)
	if err != nil {
		return 0, err
	}
	if len(recs) == 0 {
		return 0, nil
	}
	// Find the first record beyond what we already have; everything before
	// it is a duplicate delivery of bytes we already persisted.
	start := 0
	for start < len(recs) && recs[start].LSN <= f.lastLSN {
		start++
	}
	if start == len(recs) {
		return 0, nil
	}
	first, last := recs[start].LSN, recs[len(recs)-1].LSN
	if first != f.lastLSN+1 {
		return 0, fmt.Errorf("adb: wal gap: batch starts at LSN %d, follower has %d", first, f.lastLSN)
	}
	if f.eng == nil && recs[start].Kind != persist.KindInit {
		return 0, fmt.Errorf("adb: follower stream does not begin with an init record (kind %q)", recs[start].Kind)
	}
	// Persist first, exactly as the primary did (WAL before state), and
	// byte-for-byte: the follower log is the primary log's prefix.
	if err := f.store.AppendRaw(data[offs[start]:], first, last); err != nil {
		return 0, err
	}
	applied := 0
	for _, rec := range recs[start:] {
		switch {
		case rec.Kind == persist.KindInit:
			if f.eng != nil {
				return applied, fmt.Errorf("adb: replay LSN %d: unexpected init record", rec.LSN)
			}
			e, err := engineFromInit(f.cfg, rec.Init)
			if err != nil {
				return applied, err
			}
			f.eng = e
		default:
			// Per-operation failures are the primary's logged outcome;
			// only malformed records stop the stream (see OpenFollower).
			if _, fatal := f.eng.applyRecord(rec); fatal != nil {
				return applied, fatal
			}
		}
		if rec.Kind == persist.KindEpoch && rec.Epoch > f.epoch {
			f.epoch = rec.Epoch
		}
		f.lastLSN = rec.LSN
		applied++
	}
	return applied, nil
}

// BootstrapSnapshot installs a primary snapshot shipped to a follower
// whose resume position fell behind the primary's retained WAL head (the
// segments covering it were garbage-collected). The snapshot bytes are
// durably installed, the follower's log is reset to continue from lsn+1
// and the engine is rebuilt from the snapshot, after which the ordinary
// frame stream converges the follower byte-identically from that point.
// A snapshot at or behind the follower's position is refused — the
// follower is not behind, and regressing would discard applied state.
func (f *Follower) BootstrapSnapshot(data []byte, lsn int64) error {
	if f.promoted {
		return fmt.Errorf("adb: follower was promoted; no snapshot bootstrap")
	}
	if lsn <= f.lastLSN {
		return fmt.Errorf("adb: snapshot at LSN %d does not advance follower at %d", lsn, f.lastLSN)
	}
	snap, err := f.store.InstallSnapshot(data, lsn)
	if err != nil {
		return err
	}
	e, err := engineFromSnapshot(f.cfg, snap)
	if err != nil {
		return err
	}
	f.eng = e
	f.lastLSN = lsn
	if snap.Epoch > f.epoch {
		f.epoch = snap.Epoch
	}
	return nil
}

// Promote turns the follower into a primary: it attaches the store to the
// engine for logging, fences the leadership change with an epoch record
// carrying newEpoch and returns the now-writable engine. The Follower
// itself is spent — further ApplyFrames calls fail. A follower that never
// received an init frame can only be promoted over an empty log; it then
// starts fresh from its own config, logging its own init record, exactly
// like Restore on a fresh directory.
func (f *Follower) Promote(newEpoch int64) (*Engine, error) {
	if f.promoted {
		return nil, fmt.Errorf("adb: follower already promoted")
	}
	if newEpoch <= f.epoch {
		return nil, fmt.Errorf("adb: promotion epoch %d does not exceed follower epoch %d", newEpoch, f.epoch)
	}
	if f.eng == nil && f.lastLSN != 0 {
		return nil, fmt.Errorf("adb: follower has %d records but no engine", f.lastLSN)
	}
	e, err := attachStore(f.cfg, f.eng, f.store)
	if err != nil {
		return nil, err
	}
	f.eng = e
	e.mu.Lock()
	e.epoch = f.epoch
	e.mu.Unlock()
	if err := e.BumpEpoch(newEpoch); err != nil {
		return nil, err
	}
	f.promoted = true
	return e, nil
}

// Storage reports the footprint of the follower's own store (the engine
// has no store attached until promotion, so Engine().Storage() alone would
// report zero persistence fields).
func (f *Follower) Storage() (StorageStats, error) {
	if f.promoted {
		return StorageStats{}, fmt.Errorf("adb: follower was promoted; query the engine")
	}
	return storageStats(f.store)
}

// Close releases the follower's store; after promotion the engine owns it
// and Close is a no-op.
func (f *Follower) Close() error {
	if f.promoted {
		return nil
	}
	// The engine never had the store attached; close just the store.
	return f.store.Close()
}
