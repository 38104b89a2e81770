package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	// legacyWALFile is the pre-segmentation single-file WAL name; an open
	// migrates it to the first segment.
	legacyWALFile = "wal.log"
	snapPrefix    = "snap-"
	snapSuffix    = ".snap"
)

// snapshotName is the file name of the snapshot covering WAL records
// through lsn; the zero-padded LSN makes lexical order equal LSN order.
func snapshotName(lsn int64) string {
	return fmt.Sprintf("%s%020d%s", snapPrefix, lsn, snapSuffix)
}

// parseSnapshotName extracts the LSN from a snapshot file name.
func parseSnapshotName(name string) (int64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	lsn, err := strconv.ParseInt(mid, 10, 64)
	if err != nil || lsn < 0 {
		return 0, false
	}
	return lsn, true
}

// Options configure the storage lifecycle of a durability directory.
// The zero value reproduces the historical profile: segments rotate only
// at snapshots and one snapshot is retained, so disk usage stays bounded
// by one WAL span plus one snapshot.
type Options struct {
	// SegmentBytes is the WAL rotation threshold: the active segment is
	// sealed once its durable size reaches it. 0 rotates only at
	// snapshots.
	SegmentBytes int64
	// KeepSnapshots is the snapshot chain length retained by GC; values
	// below 1 mean 1. Older snapshots — and every WAL segment the oldest
	// retained snapshot covers — are deleted.
	KeepSnapshots int
}

// Store is an open durability directory: the segmented WAL for appending,
// the snapshot chain, and the retention manifest. One engine owns a store
// at a time.
type Store struct {
	dir  string
	log  *Log
	keep int
}

// OpenResult is what recovery found on disk.
type OpenResult struct {
	// Snapshot is the newest snapshot, nil when the directory has none.
	Snapshot *EngineSnapshot
	// SnapshotLSN is the last WAL record the snapshot covers (0 without a
	// snapshot).
	SnapshotLSN int64
	// Tail holds the WAL records after the snapshot, in LSN order; replay
	// applies exactly these.
	Tail []*Record
	// TruncatedAt is the offset within the final segment of a torn final
	// record that was discarded, -1 when the log ended cleanly. Only the
	// final segment may be torn; damage in a sealed segment is an error.
	TruncatedAt int64
	// Epoch is the highest primary epoch recovery saw: the snapshot's, or
	// any epoch record's in the tail, whichever is larger (0 when the node
	// was never part of a promoted replica set).
	Epoch int64
	// HeadLSN is the oldest WAL record still on disk after the GC resume
	// (the retained head); when the log is empty it is the next LSN.
	HeadLSN int64
}

// Open opens a durability directory with default Options.
func Open(dir string) (*Store, *OpenResult, error) { return OpenOptions(dir, Options{}) }

// OpenOptions opens (creating if needed) a durability directory: it loads
// the newest snapshot — which must be valid; a damaged newest snapshot is
// an error, not a silent fallback — replays the WAL segments in ordinal
// order, truncates a torn record at the end of the final segment, verifies
// LSN continuity, resumes any GC pass the manifest recorded, and returns
// the records recovery must replay.
func OpenOptions(dir string, opt Options) (*Store, *OpenResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("persist: open %s: %w", dir, err)
	}
	res := &OpenResult{TruncatedAt: -1}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: open %s: %w", dir, err)
	}
	var snapLSNs []int64
	var ords []int64
	legacy := false
	for _, ent := range entries {
		if lsn, ok := parseSnapshotName(ent.Name()); ok {
			snapLSNs = append(snapLSNs, lsn)
		}
		if ord, ok := parseSegmentName(ent.Name()); ok {
			ords = append(ords, ord)
		}
		if ent.Name() == legacyWALFile {
			legacy = true
		}
	}

	// A pre-segmentation directory holds a single wal.log; it becomes the
	// first segment. Both formats at once is ambiguous and refused.
	if legacy {
		if len(ords) > 0 {
			return nil, nil, fmt.Errorf("persist: open %s: both %s and wal segments present", dir, legacyWALFile)
		}
		if err := os.Rename(filepath.Join(dir, legacyWALFile), filepath.Join(dir, segmentName(1))); err != nil {
			return nil, nil, fmt.Errorf("persist: migrate %s: %w", legacyWALFile, err)
		}
		if err := syncDir(dir); err != nil {
			return nil, nil, fmt.Errorf("persist: migrate %s: %w", legacyWALFile, err)
		}
		ords = append(ords, 1)
	}

	// Newest snapshot, by LSN embedded in the file name.
	if len(snapLSNs) > 0 {
		sort.Slice(snapLSNs, func(i, j int) bool { return snapLSNs[i] > snapLSNs[j] })
		newest := snapLSNs[0]
		f, err := os.Open(filepath.Join(dir, snapshotName(newest)))
		if err != nil {
			return nil, nil, fmt.Errorf("persist: open snapshot: %w", err)
		}
		snap, err := DecodeSnapshot(f)
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("persist: snapshot %s: %w", snapshotName(newest), err)
		}
		if snap.LSN != newest {
			return nil, nil, fmt.Errorf("persist: snapshot %s claims LSN %d", snapshotName(newest), snap.LSN)
		}
		res.Snapshot = snap
		res.SnapshotLSN = newest
	}

	// Segment scan, in ordinal order. A crash can only tear the final
	// segment (rotation seals a segment with an fsync before the next is
	// created), and GC deletes oldest-first, so the ordinals must be
	// contiguous and every sealed segment must parse clean end to end.
	sort.Slice(ords, func(i, j int) bool { return ords[i] < ords[j] })
	var records []*Record
	var segs []segment
	for i, ord := range ords {
		if i > 0 && ord != ords[i-1]+1 {
			return nil, nil, fmt.Errorf("persist: wal segment gap: %s follows %s", segmentName(ord), segmentName(ords[i-1]))
		}
		data, err := os.ReadFile(filepath.Join(dir, segmentName(ord)))
		if err != nil {
			return nil, nil, fmt.Errorf("persist: read wal segment: %w", err)
		}
		scan, err := scanRecords(data)
		if err != nil {
			return nil, nil, fmt.Errorf("persist: segment %s: %w", segmentName(ord), err)
		}
		final := i == len(ords)-1
		if !final {
			if scan.truncatedAt >= 0 {
				return nil, nil, fmt.Errorf("persist: sealed wal segment %s torn at offset %d", segmentName(ord), scan.truncatedAt)
			}
			if len(scan.records) == 0 {
				return nil, nil, fmt.Errorf("persist: sealed wal segment %s is empty", segmentName(ord))
			}
		} else {
			res.TruncatedAt = scan.truncatedAt
		}
		first := int64(0) // empty final segment: fixed up to next below
		if len(scan.records) > 0 {
			first = scan.records[0].LSN
		}
		segs = append(segs, segment{ord: ord, first: first, size: scan.size})
		records = append(records, scan.records...)
	}

	// LSN continuity: every record follows its predecessor by exactly one,
	// across segment boundaries. A gap means a committed record is missing —
	// replaying across it would silently diverge, so it is a hard error.
	for i, rec := range records {
		if rec.LSN < 1 {
			return nil, nil, fmt.Errorf("persist: wal record %d has invalid LSN %d", i, rec.LSN)
		}
		if !validKind(rec.Kind) {
			return nil, nil, fmt.Errorf("persist: wal record LSN %d has unknown kind %q", rec.LSN, rec.Kind)
		}
		if i > 0 && rec.LSN != records[i-1].LSN+1 {
			return nil, nil, fmt.Errorf("persist: wal LSN gap: %d follows %d", rec.LSN, records[i-1].LSN)
		}
	}

	// The replay tail is everything the snapshot does not cover. A crash
	// between writing a snapshot and the GC pass leaves covered records in
	// the log; they are skipped here. What must not happen is a gap between
	// the snapshot and the first uncovered record.
	if res.Snapshot != nil {
		res.Epoch = res.Snapshot.Epoch
	}
	for _, rec := range records {
		if rec.Kind == KindEpoch && rec.Epoch > res.Epoch {
			res.Epoch = rec.Epoch
		}
		if rec.LSN > res.SnapshotLSN {
			res.Tail = append(res.Tail, rec)
		}
	}
	if len(res.Tail) > 0 && res.Tail[0].LSN != res.SnapshotLSN+1 {
		return nil, nil, fmt.Errorf("persist: wal starts at LSN %d but snapshot covers through %d", res.Tail[0].LSN, res.SnapshotLSN)
	}
	if res.Snapshot == nil && len(records) > 0 && records[0].LSN != 1 {
		return nil, nil, fmt.Errorf("persist: wal starts at LSN %d with no snapshot", records[0].LSN)
	}

	next := res.SnapshotLSN + 1
	if n := len(records); n > 0 && records[n-1].LSN+1 > next {
		next = records[n-1].LSN + 1
	}
	if n := len(segs); n > 0 && segs[n-1].first == 0 {
		segs[n-1].first = next
	}
	log, err := openLog(dir, segs, next)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: open wal: %w", err)
	}
	log.SetSegmentBytes(opt.SegmentBytes)
	st := &Store{dir: dir, log: log, keep: opt.KeepSnapshots}

	// GC resume: the manifest records the floor a previous (possibly
	// interrupted) GC pass committed to. The floor is clamped to the newest
	// snapshot that actually validated above — the manifest authorizes
	// resuming deletions, never deleting past present coverage.
	if m := readManifest(dir); m != nil {
		floor := m.CoveredLSN
		if floor > res.SnapshotLSN {
			floor = res.SnapshotLSN
		}
		if floor > 0 {
			st.removeSnapshotsBelow(floor)
			log.removeCoveredThrough(floor)
		}
	}
	res.HeadLSN = log.headLSN()
	return st, res, nil
}

// Append writes one record to the WAL and returns its LSN.
func (s *Store) Append(rec *Record) (int64, error) { return s.log.Append(rec) }

// LastLSN returns the LSN of the most recent record (snapshot-covered or
// appended), 0 when nothing was ever logged.
func (s *Store) LastLSN() int64 { return s.log.LastLSN() }

// HeadLSN returns the oldest WAL record still on disk (the retained
// head); when the log holds no durable records it is the next LSN.
func (s *Store) HeadLSN() int64 { return s.log.headLSN() }

// DisableSync turns off per-record fsync (tests and benchmarks).
func (s *Store) DisableSync() { s.log.DisableSync() }

// SetFailpoint installs (or clears, with nil) the WAL fault-injection
// hook; see Failpoint.
func (s *Store) SetFailpoint(fp Failpoint) { s.log.SetFailpoint(fp) }

// SetFlushHook installs (or clears, with nil) the durable-batch observer;
// see FlushHook.
func (s *Store) SetFlushHook(h FlushHook) { s.log.SetFlushHook(h) }

// AppendRaw appends already-framed WAL bytes verbatim (see Log.AppendRaw);
// replication followers write shipped primary frames with it.
func (s *Store) AppendRaw(data []byte, first, last int64) error {
	return s.log.AppendRaw(data, first, last)
}

// durableWAL reads the durable WAL bytes — every segment, the final one
// clamped to its durable size (a torn crash image or an injected torn
// batch past it is not yet part of the log) — as one contiguous image.
func (s *Store) durableWAL() ([]byte, error) {
	var out []byte
	for i := range s.log.segs {
		seg := &s.log.segs[i]
		if seg.size == 0 {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, segmentName(seg.ord)))
		if err != nil {
			return nil, fmt.Errorf("persist: read wal segment: %w", err)
		}
		if int64(len(data)) > seg.size {
			data = data[:seg.size]
		}
		out = append(out, data...)
	}
	return out, nil
}

// ReadFramesFrom reads the durable WAL frames with LSN >= from, split
// into chunks of at most maxChunk bytes at frame boundaries. It serves a
// replication follower's backlog request; the caller must ensure no
// concurrent append (the commit pipeline's serialization point). A
// position older than the retained head — its segments were GC'd under
// snapshot coverage — fails with a TruncatedHeadError so the caller can
// fall back to a snapshot bootstrap; a position beyond the end means the
// requester is ahead of this log and is a plain error.
func (s *Store) ReadFramesFrom(from int64, maxChunk int) ([]WALChunk, error) {
	if from < 1 {
		from = 1
	}
	data, err := s.durableWAL()
	if err != nil {
		return nil, err
	}
	recs, offs, err := ParseFrames(data)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		next := s.log.next
		if from == next {
			return nil, nil // empty log, requester is current
		}
		if from < next {
			return nil, &TruncatedHeadError{From: from, Head: next}
		}
		return nil, fmt.Errorf("persist: wal position %d is beyond the durable end %d", from, next-1)
	}
	first, last := recs[0].LSN, recs[len(recs)-1].LSN
	if from < first {
		return nil, &TruncatedHeadError{From: from, Head: first}
	}
	if from > last+1 {
		return nil, fmt.Errorf("persist: wal position %d is beyond the durable end %d", from, last)
	}
	if from == last+1 {
		return nil, nil // requester is current
	}
	start := offs[from-first]
	return SplitFrames(data[start:], maxChunk)
}

// writeSnapshotFile atomically installs raw snapshot bytes as
// snapshotName(lsn): temp file, fsync, rename, directory fsync.
func (s *Store) writeSnapshotFile(write func(*os.File) error, lsn int64) error {
	tmp, err := os.CreateTemp(s.dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("persist: snapshot temp: %w", err)
	}
	tmpName := tmp.Name()
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("persist: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("persist: snapshot close: %w", err)
	}
	final := filepath.Join(s.dir, snapshotName(lsn))
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("persist: snapshot rename: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("persist: snapshot dir sync: %w", err)
	}
	return nil
}

// SaveSnapshot atomically installs snap as the newest snapshot — temp
// file, fsync, rename, directory fsync — stamped with the durable last
// LSN, then seals the active WAL segment and runs the retention GC:
// snapshots beyond the keep-count and WAL segments covered by the oldest
// retained snapshot are deleted, with the intent manifest made durable
// first. A poisoned log refuses: its tail is in an unknown state.
func (s *Store) SaveSnapshot(snap *EngineSnapshot) error {
	if s.log.broken != nil {
		return s.log.broken
	}
	snap.LSN = s.log.LastLSN()
	if err := s.writeSnapshotFile(func(f *os.File) error { return EncodeSnapshot(f, snap) }, snap.LSN); err != nil {
		return err
	}
	if err := s.log.Rotate(); err != nil {
		return err
	}
	s.gc()
	return nil
}

// snapshotLSNs lists the snapshot versions on disk, oldest first.
func (s *Store) snapshotLSNs() []int64 {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var lsns []int64
	for _, ent := range entries {
		if lsn, ok := parseSnapshotName(ent.Name()); ok {
			lsns = append(lsns, lsn)
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	return lsns
}

// removeSnapshotsBelow deletes snapshot files older than the floor.
// Removal failures are harmless (the newest-by-LSN rule ignores them at
// the next open, and the next GC pass retries).
func (s *Store) removeSnapshotsBelow(floor int64) {
	for _, lsn := range s.snapshotLSNs() {
		if lsn < floor {
			_ = os.Remove(filepath.Join(s.dir, snapshotName(lsn)))
		}
	}
}

// gc compacts the snapshot chain to the keep-count and deletes the WAL
// segments covered by the oldest retained snapshot. The manifest — the
// durable record of what is being deleted and why it is safe — is written
// and fsynced before any file is removed: a crash at any byte of the pass
// leaves either the old manifest (the pass is simply redone later) or the
// new one (the open-time resume completes the deletions). If the manifest
// write fails nothing is deleted.
func (s *Store) gc() {
	keep := s.keep
	if keep < 1 {
		keep = 1
	}
	lsns := s.snapshotLSNs()
	if len(lsns) == 0 {
		return
	}
	retained := lsns
	if len(retained) > keep {
		retained = retained[len(retained)-keep:]
	}
	floor := retained[0]
	if err := writeManifest(s.dir, &Manifest{Version: 1, CoveredLSN: floor, Snapshots: retained}); err != nil {
		return
	}
	s.removeSnapshotsBelow(floor)
	s.log.removeCoveredThrough(floor)
}

// NewestSnapshot returns the newest durable snapshot's verbatim bytes and
// the LSN it covers; ok is false when the directory has none. The bytes
// are shipped to bootstrap a replication follower that fell behind the
// retained head, and are validated on the installing side.
func (s *Store) NewestSnapshot() (data []byte, lsn int64, ok bool, err error) {
	lsns := s.snapshotLSNs()
	if len(lsns) == 0 {
		return nil, 0, false, nil
	}
	lsn = lsns[len(lsns)-1]
	data, err = os.ReadFile(filepath.Join(s.dir, snapshotName(lsn)))
	if err != nil {
		return nil, 0, false, fmt.Errorf("persist: read snapshot: %w", err)
	}
	return data, lsn, true, nil
}

// InstallSnapshot durably installs shipped snapshot bytes as the newest
// snapshot and resets the WAL to continue from lsn+1: a replication
// follower whose resume position predates the primary's retained head
// adopts the primary's snapshot wholesale, then converges byte-identically
// from that point via the ordinary frame stream. The bytes are validated
// before anything is touched; the old segments are removed and a fresh
// one started at the next ordinal. Returns the decoded snapshot for the
// engine to load.
func (s *Store) InstallSnapshot(data []byte, lsn int64) (*EngineSnapshot, error) {
	snap, err := DecodeSnapshot(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("persist: install snapshot: %w", err)
	}
	if snap.LSN != lsn {
		return nil, fmt.Errorf("persist: install snapshot: bytes claim LSN %d, shipped as %d", snap.LSN, lsn)
	}
	if err := s.writeSnapshotFile(func(f *os.File) error {
		_, werr := f.Write(data)
		return werr
	}, lsn); err != nil {
		return nil, err
	}
	// Replace the whole log with a fresh segment at the next ordinal (the
	// snapshot supersedes the follower's entire state).
	if err := s.log.f.Close(); err != nil {
		return nil, fmt.Errorf("persist: install snapshot: %w", err)
	}
	ord := s.log.active().ord + 1
	for i := range s.log.segs {
		_ = os.Remove(filepath.Join(s.dir, segmentName(s.log.segs[i].ord)))
	}
	f, err := os.OpenFile(filepath.Join(s.dir, segmentName(ord)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: install snapshot: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: install snapshot: %w", err)
	}
	s.log.f = f
	s.log.segs = []segment{{ord: ord, first: lsn + 1, size: 0}}
	s.log.next = lsn + 1
	s.log.broken = nil
	s.removeSnapshotsBelow(lsn)
	_ = writeManifest(s.dir, &Manifest{Version: 1, CoveredLSN: lsn, Snapshots: []int64{lsn}})
	return snap, nil
}

// StorageStats summarizes what the lifecycle subsystem keeps on disk. The
// tags are the wire's "storage" reply (adb.StorageStats embeds this).
type StorageStats struct {
	// Segments is the number of WAL segment files; WALBytes their total
	// durable size.
	Segments int   `json:"segments"`
	WALBytes int64 `json:"wal_bytes"`
	// Snapshots is the snapshot chain length; SnapshotBytes its total
	// file size.
	Snapshots     int   `json:"snapshots"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// HeadLSN is the oldest WAL record on disk, LastLSN the newest
	// assigned (buffered included).
	HeadLSN int64 `json:"head_lsn"`
	LastLSN int64 `json:"last_lsn"`
}

// Stats reports the storage footprint. Like every Store method it runs at
// the owner's serialization point (no concurrent append).
func (s *Store) Stats() (StorageStats, error) {
	st := StorageStats{
		Segments: len(s.log.segs),
		WALBytes: s.log.walBytes(),
		HeadLSN:  s.log.headLSN(),
		LastLSN:  s.log.LastLSN(),
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return st, fmt.Errorf("persist: stats: %w", err)
	}
	for _, ent := range entries {
		if _, ok := parseSnapshotName(ent.Name()); !ok {
			continue
		}
		st.Snapshots++
		if info, err := ent.Info(); err == nil {
			st.SnapshotBytes += info.Size()
		}
	}
	return st, nil
}

// WALBytes sums the WAL segment file sizes in a durability directory
// without opening it as a store (test and tooling helper).
func WALBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, ent := range entries {
		if _, ok := parseSegmentName(ent.Name()); !ok {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// Close closes the WAL.
func (s *Store) Close() error { return s.log.Close() }
