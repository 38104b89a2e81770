package persist

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// openRetain opens dir with a small rotation threshold and the given
// snapshot keep-count, sync disabled for speed.
func openRetain(t *testing.T, dir string, segBytes int64, keep int) (*Store, *OpenResult) {
	t.Helper()
	st, res, err := OpenOptions(dir, Options{SegmentBytes: segBytes, KeepSnapshots: keep})
	if err != nil {
		t.Fatal(err)
	}
	st.DisableSync()
	return st, res
}

func appendEmits(t *testing.T, st *Store, from, n int) int64 {
	t.Helper()
	var last int64
	for i := 0; i < n; i++ {
		lsn, err := st.Append(&Record{Kind: KindEmit, TS: int64(from + i), Events: [][]json.RawMessage{{json.RawMessage(`"e"`)}}})
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	return last
}

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ent := range entries {
		if _, ok := parseSegmentName(ent.Name()); ok {
			out = append(out, ent.Name())
		}
	}
	return out
}

func snapshotFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ent := range entries {
		if _, ok := parseSnapshotName(ent.Name()); ok {
			out = append(out, ent.Name())
		}
	}
	return out
}

// TestSegmentRotationRoundTrip appends enough records to force several
// rotations, then reopens and checks every record replays in order across
// the segment boundaries.
func TestSegmentRotationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRetain(t, dir, 256, 1)
	if _, err := st.Append(&Record{Kind: KindInit, Init: &InitRecord{}}); err != nil {
		t.Fatal(err)
	}
	last := appendEmits(t, st, 1, 40)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(segmentFiles(t, dir)); n < 3 {
		t.Fatalf("40 records at a 256-byte threshold left %d segments, want several", n)
	}
	st2, res := openRetain(t, dir, 256, 1)
	defer st2.Close()
	if int64(len(res.Tail)) != last {
		t.Fatalf("recovered %d records, want %d", len(res.Tail), last)
	}
	for i, rec := range res.Tail {
		if rec.LSN != int64(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
	}
	if res.TruncatedAt != -1 {
		t.Fatalf("clean multi-segment log reported truncation at %d", res.TruncatedAt)
	}
}

// TestSegmentBoundaryTornFinalEveryByte extends the every-byte fault
// suite across a rotation boundary: the log spans several segments, and
// the final segment is truncated at every byte offset in turn. Recovery
// must keep every record of the sealed segments, keep the parseable
// prefix of the final one, and report the truncation — never skip, never
// fail.
func TestSegmentBoundaryTornFinalEveryByte(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRetain(t, dir, 128, 1)
	if _, err := st.Append(&Record{Kind: KindInit, Init: &InitRecord{}}); err != nil {
		t.Fatal(err)
	}
	appendEmits(t, st, 1, 20)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segmentFiles(t, dir)
	if len(segs) < 2 {
		t.Fatalf("need at least 2 segments, got %d", len(segs))
	}
	finalPath := filepath.Join(dir, segs[len(segs)-1])
	finalData, err := os.ReadFile(finalPath)
	if err != nil {
		t.Fatal(err)
	}
	var sealed int
	for _, name := range segs[:len(segs)-1] {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		scan, err := scanRecords(data)
		if err != nil {
			t.Fatal(err)
		}
		sealed += len(scan.records)
	}
	// Frame offsets within the final segment.
	var offs []int64
	off := int64(0)
	for off < int64(len(finalData)) {
		offs = append(offs, off)
		_, n, err := parseFrame(finalData[off:])
		if err != nil {
			t.Fatalf("frame at %d: %v", off, err)
		}
		off += n
	}
	for cut := int64(0); cut <= int64(len(finalData)); cut++ {
		if err := os.WriteFile(finalPath, finalData[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st2, res, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// Count frames wholly before the cut.
		complete := 0
		for i := range offs {
			end := int64(len(finalData))
			if i+1 < len(offs) {
				end = offs[i+1]
			}
			if end <= cut {
				complete++
			}
		}
		if want := sealed + complete; len(res.Tail) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(res.Tail), want)
		}
		st2.Close()
	}
}

// TestSnapshotGCKeepCount drives repeated append+snapshot cycles and
// checks the retention GC holds the line: at most keep snapshots, at most
// two live segments (the active one plus at most one not yet covered),
// and a monotonically advancing retained head.
func TestSnapshotGCKeepCount(t *testing.T) {
	const keep = 2
	dir := t.TempDir()
	st, _ := openRetain(t, dir, 256, keep)
	if _, err := st.Append(&Record{Kind: KindInit, Init: &InitRecord{}}); err != nil {
		t.Fatal(err)
	}
	var lastHead int64
	var segCounts []int
	next := 1
	for cycle := 0; cycle < 6; cycle++ {
		appendEmits(t, st, next, 10)
		next += 10
		if err := st.SaveSnapshot(testSnapshot(0)); err != nil {
			t.Fatal(err)
		}
		if n := len(snapshotFiles(t, dir)); n > keep {
			t.Fatalf("cycle %d: %d snapshots on disk, keep-count is %d", cycle, n, keep)
		}
		head := st.HeadLSN()
		if head < lastHead {
			t.Fatalf("cycle %d: retained head moved backwards (%d -> %d)", cycle, lastHead, head)
		}
		lastHead = head
		segCounts = append(segCounts, len(segmentFiles(t, dir)))
	}
	// Constant per-cycle traffic must reach a steady-state segment count:
	// the chain reaches back exactly keep snapshot cycles, never further.
	n := len(segCounts)
	if segCounts[n-1] != segCounts[n-2] || segCounts[n-2] != segCounts[n-3] {
		t.Fatalf("segment count still growing after 6 cycles: %v", segCounts)
	}
	// The oldest retained snapshot still covers the head: reopening works
	// and replays only what the newest snapshot does not cover.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, res, err := OpenOptions(dir, Options{SegmentBytes: 256, KeepSnapshots: keep})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if res.Snapshot == nil {
		t.Fatal("no snapshot recovered")
	}
	if len(res.Tail) != 0 {
		t.Fatalf("tail of %d records after a final snapshot", len(res.Tail))
	}
	if res.HeadLSN <= 1 {
		t.Fatalf("retained head never advanced past %d", res.HeadLSN)
	}
	// Disk stays bounded: the segment chain only reaches back to the
	// oldest retained snapshot (two 10-record cycles at this threshold).
	if n := len(segmentFiles(t, dir)); n > segCounts[len(segCounts)-1] {
		t.Fatalf("%d segments on disk after reopen, steady state was %d", n, segCounts[len(segCounts)-1])
	}
}

// TestManifestClampNeverOverdeletes plants a manifest claiming a GC floor
// far past the newest snapshot; the open-time resume must clamp it to
// real snapshot coverage and keep every uncovered record.
func TestManifestClampNeverOverdeletes(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRetain(t, dir, 0, 1)
	if _, err := st.Append(&Record{Kind: KindInit, Init: &InitRecord{}}); err != nil {
		t.Fatal(err)
	}
	appendEmits(t, st, 1, 5)
	if err := st.SaveSnapshot(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	appendEmits(t, st, 6, 5) // uncovered tail
	tail := st.LastLSN()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := writeManifest(dir, &Manifest{Version: 1, CoveredLSN: 1 << 40, Snapshots: []int64{1 << 40}}); err != nil {
		t.Fatal(err)
	}
	st2, res, err := Open(dir)
	if err != nil {
		t.Fatalf("lying manifest broke recovery: %v", err)
	}
	defer st2.Close()
	if res.Snapshot == nil || len(res.Tail) != int(tail-res.SnapshotLSN) {
		t.Fatalf("recovered %d tail records after snapshot %d, want %d", len(res.Tail), res.SnapshotLSN, tail-res.SnapshotLSN)
	}
}

// TestManifestTornEveryByte truncates the manifest at every byte (and
// replaces it with garbage): recovery must treat every damaged form as
// advisory-absent and recover the same state.
func TestManifestTornEveryByte(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRetain(t, dir, 256, 2)
	if _, err := st.Append(&Record{Kind: KindInit, Init: &InitRecord{}}); err != nil {
		t.Fatal(err)
	}
	appendEmits(t, st, 1, 10)
	if err := st.SaveSnapshot(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	appendEmits(t, st, 11, 5)
	wantTail := st.LastLSN()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, manifestFile)
	manData, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	images := [][]byte{[]byte("garbage"), []byte(`{"version":99}`)}
	for cut := 0; cut < len(manData); cut++ {
		images = append(images, manData[:cut])
	}
	for i, img := range images {
		if err := os.WriteFile(manPath, img, 0o644); err != nil {
			t.Fatal(err)
		}
		st2, res, err := Open(dir)
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		if got := res.SnapshotLSN + int64(len(res.Tail)); got != wantTail {
			t.Fatalf("image %d: recovered through LSN %d, want %d", i, got, wantTail)
		}
		st2.Close()
		// Restore the good manifest for the next iteration's baseline.
		if err := os.WriteFile(manPath, manData, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStaleManifestUnderDeletes restores an older GC's manifest after a
// newer GC pass ran; the open must only under-delete (resume less than it
// could) and recover the full state.
func TestStaleManifestUnderDeletes(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRetain(t, dir, 256, 1)
	if _, err := st.Append(&Record{Kind: KindInit, Init: &InitRecord{}}); err != nil {
		t.Fatal(err)
	}
	appendEmits(t, st, 1, 10)
	if err := st.SaveSnapshot(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	stale, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	appendEmits(t, st, 11, 10)
	if err := st.SaveSnapshot(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	appendEmits(t, st, 21, 3)
	wantTail := st.LastLSN()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFile), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, res, err := Open(dir)
	if err != nil {
		t.Fatalf("stale manifest broke recovery: %v", err)
	}
	defer st2.Close()
	if got := res.SnapshotLSN + int64(len(res.Tail)); got != wantTail {
		t.Fatalf("recovered through LSN %d, want %d", got, wantTail)
	}
}

// TestReadFramesTruncatedHead asks for a backlog position the GC already
// deleted; the typed error must surface so replication falls back to a
// snapshot bootstrap.
func TestReadFramesTruncatedHead(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRetain(t, dir, 0, 1)
	if _, err := st.Append(&Record{Kind: KindInit, Init: &InitRecord{}}); err != nil {
		t.Fatal(err)
	}
	appendEmits(t, st, 1, 5)
	if err := st.SaveSnapshot(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	appendEmits(t, st, 6, 2)
	defer st.Close()
	_, err := st.ReadFramesFrom(1, 1<<20)
	if err == nil {
		t.Fatal("reading below the retained head succeeded")
	}
	var th *TruncatedHeadError
	if !errors.As(err, &th) {
		t.Fatalf("error %v is not a TruncatedHeadError", err)
	}
	if !errors.Is(err, ErrTruncatedHead) {
		t.Fatalf("error %v does not unwrap to ErrTruncatedHead", err)
	}
	if th.From != 1 || th.Head != 7 {
		t.Fatalf("TruncatedHeadError{From:%d, Head:%d}, want {1, 7}", th.From, th.Head)
	}
	// The retained portion still reads fine.
	chunks, err := st.ReadFramesFrom(7, 1<<20)
	if err != nil || len(chunks) == 0 {
		t.Fatalf("retained read failed: %v (%d chunks)", err, len(chunks))
	}
}

// TestInstallSnapshotBootstrap ships the newest snapshot from one store
// into a fresh one and checks the receiver continues from exactly
// lsn+1 — the follower-bootstrap contract.
func TestInstallSnapshotBootstrap(t *testing.T) {
	src := t.TempDir()
	st, _ := openRetain(t, src, 0, 1)
	if _, err := st.Append(&Record{Kind: KindInit, Init: &InitRecord{}}); err != nil {
		t.Fatal(err)
	}
	appendEmits(t, st, 1, 7)
	if err := st.SaveSnapshot(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	data, lsn, ok, err := st.NewestSnapshot()
	if err != nil || !ok {
		t.Fatalf("NewestSnapshot: %v (ok=%t)", err, ok)
	}
	st.Close()

	dst := t.TempDir()
	st2, _ := openRetain(t, dst, 0, 1)
	snap, err := st2.InstallSnapshot(data, lsn)
	if err != nil {
		t.Fatal(err)
	}
	if snap.LSN != lsn {
		t.Fatalf("installed snapshot LSN %d, want %d", snap.LSN, lsn)
	}
	got, err := st2.Append(&Record{Kind: KindEmit, TS: 99, Events: [][]json.RawMessage{{json.RawMessage(`"e"`)}}})
	if err != nil {
		t.Fatal(err)
	}
	if got != lsn+1 {
		t.Fatalf("first append after install got LSN %d, want %d", got, lsn+1)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, res, err := Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if res.SnapshotLSN != lsn || len(res.Tail) != 1 || res.Tail[0].LSN != lsn+1 {
		t.Fatalf("reopen after install: snapshot %d, tail %d", res.SnapshotLSN, len(res.Tail))
	}
	// A wrong-LSN install is refused before touching anything.
	if _, err := st3.InstallSnapshot(data, lsn+5); err == nil {
		t.Fatal("mismatched install LSN accepted")
	}
}

// TestLegacyWALMigration renames a single-file wal.log layout into the
// segment scheme on open, and refuses a directory holding both formats.
func TestLegacyWALMigration(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 5)
	if err := os.Rename(filepath.Join(dir, segmentName(1)), filepath.Join(dir, legacyWALFile)); err != nil {
		t.Fatal(err)
	}
	st, res, err := Open(dir)
	if err != nil {
		t.Fatalf("legacy open: %v", err)
	}
	if len(res.Tail) != 5 {
		t.Fatalf("migrated %d records, want 5", len(res.Tail))
	}
	st.Close()
	if _, err := os.Stat(filepath.Join(dir, legacyWALFile)); !os.IsNotExist(err) {
		t.Fatal("wal.log still present after migration")
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(1))); err != nil {
		t.Fatalf("segment missing after migration: %v", err)
	}
	// Both formats at once is ambiguous.
	if err := os.WriteFile(filepath.Join(dir, legacyWALFile), []byte{}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil {
		t.Fatal("open with both wal.log and segments succeeded")
	}
}
