// Package persist is the durability subsystem: a versioned snapshot
// format plus an append-only, checksummed write-ahead log. A snapshot
// captures exactly the bounded incremental state of Section 5 (Theorem 1
// is what keeps it small); the WAL records every committed operation
// since, so recovery loads the latest valid snapshot and replays only the
// WAL tail through the engine's normal sweep path.
//
// WAL framing, per record:
//
//	[4-byte magic "PWAL"] [4-byte LE payload length] [4-byte LE CRC32-IEEE
//	of the payload] [JSON payload]
//
// Records carry strictly increasing LSNs assigned at append time; a gap
// in the sequence is a hard error (a silently missing record would break
// firing equivalence). The log is written as numbered segment files
// (wal.000001, wal.000002, ...) rotated at a configurable byte threshold;
// recovery replays them in ordinal order. A torn final record — the only
// damage a crash mid-append can cause — can exist only in the last
// segment; it is truncated and reported. Damage anywhere else (including
// any malformed byte in a sealed segment) is surfaced as an error and
// never skipped.
package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

var walMagic = []byte("PWAL")

const (
	headerLen = 12 // magic + length + crc
	// maxRecordLen bounds a single record (64 MiB); a larger length field
	// is treated as corruption rather than attempted as an allocation.
	maxRecordLen = 1 << 26
)

// Failpoint injects storage faults for testing the engine's degraded
// mode. It is consulted at op "append" (before the frame is written) and
// op "sync" (after the write, before the fsync) with the LSN being
// appended; a non-nil return injects the fault. An injected append fault
// additionally leaves a partial frame on disk — exactly the torn image a
// crash mid-write produces — so recovery's truncation path is exercised
// end to end.
type Failpoint func(op string, lsn int64) error

// FlushHook observes every batch of frames the moment it becomes durable
// (written and fsynced): data is the verbatim frame bytes, first/last the
// contiguous LSN range they cover. It is the WAL-shipping tap of the
// replication layer — because the log is byte-stable, forwarding exactly
// these bytes to a follower reproduces the primary's log bit for bit.
// The hook runs synchronously inside Append/AppendRaw on the appender's
// goroutine; data is only valid for the duration of the call (AppendRaw
// passes its caller's buffer through), so consumers must copy to retain it.
type FlushHook func(data []byte, first, last int64)

// segment is one WAL segment file. first is the LSN of the segment's
// first record; for an empty segment it is the LSN the first record will
// get. size counts durable bytes (a torn crash image past size is not
// part of the log).
type segment struct {
	ord   int64
	first int64
	size  int64
}

// segmentName is the file name of segment ord; the zero-padded ordinal
// makes lexical order equal replay order for the first million segments
// (recovery sorts numerically regardless).
func segmentName(ord int64) string { return fmt.Sprintf("wal.%06d", ord) }

// parseSegmentName extracts the ordinal from a segment file name. The
// suffix must be all digits, so the legacy single-file name "wal.log"
// does not parse as a segment.
func parseSegmentName(name string) (int64, bool) {
	const prefix = "wal."
	if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
		return 0, false
	}
	var ord int64
	for _, c := range name[len(prefix):] {
		if c < '0' || c > '9' {
			return 0, false
		}
		ord = ord*10 + int64(c-'0')
		if ord > 1<<40 {
			return 0, false
		}
	}
	if ord < 1 {
		return 0, false
	}
	return ord, true
}

// Log is an append-only write-ahead log backed by a directory of numbered
// segment files; appends go to the last (active) segment, which rotates
// once it reaches the configured byte threshold. Every append is written
// and fsynced (unless sync is disabled) before it returns, so an
// acknowledged record survives a crash.
type Log struct {
	dir  string
	f    *os.File // active (last) segment, open for append
	segs []segment
	next int64 // next LSN to assign
	sync bool
	// segBytes is the rotation threshold: once the active segment's
	// durable size reaches it, the segment is sealed and a new one
	// started. 0 disables size-based rotation (snapshots still rotate).
	segBytes int64
	fail     Failpoint
	// broken poisons the log after a failed append, fsync or rotation: the
	// file tail is in an unknown state, so further appends could land after
	// garbage and turn a clean torn tail into mid-log corruption.
	broken error
	// flushHook, when set, observes every durable batch (see FlushHook).
	flushHook FlushHook
}

// SetFailpoint installs (or clears, with nil) the fault-injection hook.
func (l *Log) SetFailpoint(fp Failpoint) { l.fail = fp }

// SetFlushHook installs (or clears, with nil) the durable-batch observer.
func (l *Log) SetFlushHook(h FlushHook) { l.flushHook = h }

// openLog opens the log over the scanned segment set. segs must be the
// segments on disk in ordinal order with their durable sizes; the final
// one is opened for appending, truncated to its durable size (discarding
// a torn crash image). next is the LSN the next append gets. When segs is
// empty a fresh first segment is created.
func openLog(dir string, segs []segment, next int64) (*Log, error) {
	if len(segs) == 0 {
		segs = []segment{{ord: 1, first: next, size: 0}}
	}
	act := segs[len(segs)-1]
	f, err := os.OpenFile(filepath.Join(dir, segmentName(act.ord)), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(act.size); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(act.size, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{dir: dir, f: f, segs: segs, next: next, sync: true}, nil
}

// active returns the segment appends go to.
func (l *Log) active() *segment { return &l.segs[len(l.segs)-1] }

// DisableSync turns off the per-record fsync; crash tests and benchmarks
// use it, production durability should not.
func (l *Log) DisableSync() { l.sync = false }

// SetSegmentBytes sets the rotation threshold (0 disables size-based
// rotation).
func (l *Log) SetSegmentBytes(n int64) { l.segBytes = n }

// LastLSN returns the LSN of the most recently appended record, or 0 when
// the log is empty.
func (l *Log) LastLSN() int64 { return l.next - 1 }

// headLSN returns the LSN of the oldest record still on disk; when the
// log holds no durable records it is the LSN the next record will carry.
func (l *Log) headLSN() int64 { return l.segs[0].first }

// walBytes returns the total durable bytes across all segments.
func (l *Log) walBytes() int64 {
	var n int64
	for i := range l.segs {
		n += l.segs[i].size
	}
	return n
}

// frame encodes rec (with its LSN already assigned) into WAL frame bytes.
func frame(rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("persist: encode record: %w", err)
	}
	if len(payload) > maxRecordLen {
		return nil, fmt.Errorf("persist: record of %d bytes exceeds limit %d", len(payload), maxRecordLen)
	}
	buf := make([]byte, headerLen+len(payload))
	copy(buf, walMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(payload))
	copy(buf[headerLen:], payload)
	return buf, nil
}

// Append assigns the next LSN to rec, frames and checksums it, and writes
// it durably (write + fsync unless disabled). The assigned LSN is
// returned. After a write or fsync failure the log is poisoned: every
// further Append fails with the original error, because the file tail is
// in an unknown state.
func (l *Log) Append(rec *Record) (int64, error) {
	if l.broken != nil {
		return 0, l.broken
	}
	rec.LSN = l.next
	buf, err := frame(rec)
	if err != nil {
		return 0, err
	}
	if l.fail != nil {
		if err := l.fail("append", rec.LSN); err != nil {
			// Leave the torn image a crash mid-write produces.
			if n := len(buf) / 2; n > 0 {
				_, _ = l.f.Write(buf[:n])
			}
			l.broken = fmt.Errorf("persist: append: %w", err)
			return 0, l.broken
		}
	}
	if err := l.write(buf, rec.LSN, rec.LSN, l.fail); err != nil {
		return 0, err
	}
	return rec.LSN, nil
}

// AppendRaw appends already-framed WAL bytes verbatim and fsyncs them: a
// replication follower writes the primary's shipped frames with it, so
// the follower's log is byte-identical to the primary's by construction
// (segment boundaries may differ — the concatenation is what matches).
// first/last declare the contiguous LSN range the frames cover; first
// must be the next LSN this log expects.
func (l *Log) AppendRaw(data []byte, first, last int64) error {
	if l.broken != nil {
		return l.broken
	}
	if first != l.next {
		return fmt.Errorf("persist: AppendRaw at LSN %d, expected %d", first, l.next)
	}
	if last < first {
		return fmt.Errorf("persist: AppendRaw range [%d, %d] inverted", first, last)
	}
	return l.write(data, first, last, nil)
}

// write is the tail both appends share: write the frames covering
// [first, last], fsync them unless sync is disabled (consulting fail at
// "sync" first, when set), account them to the active segment, hand them
// to the flush hook and rotate a full segment. A failed write or fsync
// poisons the log.
func (l *Log) write(data []byte, first, last int64, fail Failpoint) error {
	if _, err := l.f.Write(data); err != nil {
		l.broken = fmt.Errorf("persist: append: %w", err)
		return l.broken
	}
	if l.sync {
		if fail != nil {
			if err := fail("sync", first); err != nil {
				l.broken = fmt.Errorf("persist: sync: %w", err)
				return l.broken
			}
		}
		if err := l.f.Sync(); err != nil {
			l.broken = fmt.Errorf("persist: sync: %w", err)
			return l.broken
		}
	}
	l.next = last + 1
	l.active().size += int64(len(data))
	if l.flushHook != nil {
		l.flushHook(data, first, last)
	}
	l.maybeRotate()
	return nil
}

// maybeRotate seals the active segment once it reaches the rotation
// threshold. Called after the durable write that grew the segment.
func (l *Log) maybeRotate() {
	if l.broken != nil || l.segBytes <= 0 || l.active().size < l.segBytes {
		return
	}
	l.rotate()
}

// Rotate seals the active segment, starting a new empty one. A snapshot
// save calls it so the covered segments become eligible for GC. Rotating
// an empty segment is a no-op; a poisoned log returns its error.
func (l *Log) Rotate() error {
	if l.broken != nil {
		return l.broken
	}
	if l.active().size == 0 {
		return nil
	}
	l.rotate()
	return l.broken
}

// rotate seals the active segment (fsync + close) and opens the next
// ordinal with O_EXCL, fsyncing the directory so the new name is durable.
// Any failure poisons the log: a half-rotated state must not take further
// appends.
func (l *Log) rotate() {
	if l.sync {
		if err := l.f.Sync(); err != nil {
			l.broken = fmt.Errorf("persist: rotate sync: %w", err)
			return
		}
	}
	if err := l.f.Close(); err != nil {
		l.broken = fmt.Errorf("persist: rotate close: %w", err)
		return
	}
	ord := l.active().ord + 1
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(ord)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		l.broken = fmt.Errorf("persist: rotate create: %w", err)
		return
	}
	if l.sync {
		if err := syncDir(l.dir); err != nil {
			f.Close()
			l.broken = fmt.Errorf("persist: rotate dir sync: %w", err)
			return
		}
	}
	l.f = f
	l.segs = append(l.segs, segment{ord: ord, first: l.next, size: 0})
}

// removeCoveredThrough deletes sealed segments whose every record has
// LSN <= floor, oldest first, so a crash mid-GC always leaves a
// contiguous ordinal range. The active segment is never removed. Removal
// failures are harmless: the next open (or next GC pass) retries.
func (l *Log) removeCoveredThrough(floor int64) {
	for len(l.segs) >= 2 && l.segs[1].first-1 <= floor {
		_ = os.Remove(filepath.Join(l.dir, segmentName(l.segs[0].ord)))
		l.segs = l.segs[1:]
	}
}

// Close closes the underlying file. Every appended record is already
// written, so there is nothing to flush.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}

// scanResult is what reading a WAL segment yields.
type scanResult struct {
	records []*Record
	// size is the number of valid bytes; less than the file size when a
	// torn tail was truncated.
	size int64
	// truncatedAt is the offset of the torn final record, -1 when intact.
	truncatedAt int64
}

// scanRecords parses a WAL segment image. A malformed suffix is accepted
// as a torn tail only when no complete valid record follows it — otherwise
// the damage is mid-log and scanning fails: skipping a whole committed
// record would silently diverge the recovered engine. (The disambiguation
// scan is conservative: a payload byte sequence that happens to look like
// a later intact frame turns a genuinely torn tail into a reported
// corruption error, which is safe — recovery refuses rather than guesses.)
func scanRecords(data []byte) (*scanResult, error) {
	res := &scanResult{truncatedAt: -1}
	off := int64(0)
	for int64(len(data))-off > 0 {
		rec, recLen, err := parseFrame(data[off:])
		if err != nil {
			if next := findValidFrame(data, off+1); next >= 0 {
				return nil, fmt.Errorf("persist: wal corrupt at offset %d (%v) but intact record found at offset %d; refusing to skip a committed record", off, err, next)
			}
			res.truncatedAt = off
			break
		}
		res.records = append(res.records, rec)
		off += recLen
	}
	res.size = off
	return res, nil
}

// parseFrame parses one record at the head of data, returning it and its
// framed length.
func parseFrame(data []byte) (*Record, int64, error) {
	if len(data) < headerLen {
		return nil, 0, fmt.Errorf("short header (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:4], walMagic) {
		return nil, 0, fmt.Errorf("bad magic %q", data[:4])
	}
	n := binary.LittleEndian.Uint32(data[4:8])
	if n > maxRecordLen {
		return nil, 0, fmt.Errorf("length %d exceeds limit", n)
	}
	if int64(len(data)) < headerLen+int64(n) {
		return nil, 0, fmt.Errorf("short payload (%d of %d bytes)", len(data)-headerLen, n)
	}
	payload := data[headerLen : headerLen+int64(n)]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(data[8:12]); got != want {
		return nil, 0, fmt.Errorf("checksum mismatch (%08x != %08x)", got, want)
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, 0, fmt.Errorf("payload: %w", err)
	}
	return &rec, headerLen + int64(n), nil
}

// ParseFrames strictly decodes a run of complete WAL frames: every byte
// must belong to a valid frame (no torn-tail tolerance — a replication
// batch is delivered whole or not at all) and the records' LSNs must be
// contiguous. offs[i] is the byte offset of record i within data, so a
// consumer can slice the verbatim bytes of any record suffix.
func ParseFrames(data []byte) (recs []*Record, offs []int, err error) {
	off := int64(0)
	for off < int64(len(data)) {
		rec, recLen, err := parseFrame(data[off:])
		if err != nil {
			return nil, nil, fmt.Errorf("persist: frame at offset %d: %w", off, err)
		}
		if n := len(recs); n > 0 && rec.LSN != recs[n-1].LSN+1 {
			return nil, nil, fmt.Errorf("persist: wal LSN gap in batch: %d follows %d", rec.LSN, recs[n-1].LSN)
		}
		recs = append(recs, rec)
		offs = append(offs, int(off))
		off += recLen
	}
	return recs, offs, nil
}

// WALChunk is a shippable run of contiguous WAL frames: the verbatim
// bytes plus the LSN range they cover.
type WALChunk struct {
	Data        []byte
	First, Last int64
}

// SplitFrames cuts a run of contiguous frames into chunks of at most max
// bytes, always at frame boundaries (one oversized frame is its own
// chunk). The chunks' bytes alias data.
func SplitFrames(data []byte, max int) ([]WALChunk, error) {
	recs, offs, err := ParseFrames(data)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, nil
	}
	var out []WALChunk
	start := 0
	for i := range recs {
		end := len(data)
		if i+1 < len(offs) {
			end = offs[i+1]
		}
		if end-offs[start] > max && i > start {
			out = append(out, WALChunk{
				Data:  data[offs[start]:offs[i]],
				First: recs[start].LSN,
				Last:  recs[i-1].LSN,
			})
			start = i
		}
	}
	out = append(out, WALChunk{
		Data:  data[offs[start]:],
		First: recs[start].LSN,
		Last:  recs[len(recs)-1].LSN,
	})
	return out, nil
}

// findValidFrame scans forward from offset from for any complete, valid
// record; it returns the offset or -1.
func findValidFrame(data []byte, from int64) int64 {
	for off := from; off+headerLen <= int64(len(data)); off++ {
		if !bytes.Equal(data[off:off+4], walMagic) {
			continue
		}
		if _, _, err := parseFrame(data[off:]); err == nil {
			return off
		}
	}
	return -1
}
