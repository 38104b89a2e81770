package persist

// Replication primitives: the flush hook that feeds WAL shipping, the
// raw-frame append on the follower side, and the backlog reader. The
// anchor property throughout: the bytes a hook or reader hands out are
// exactly the bytes in the wal file, so a follower that persists them
// verbatim owns a byte-identical log.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// openUnsynced opens dir with fsync off.
func openUnsynced(t *testing.T, dir string) *Store {
	t.Helper()
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.DisableSync()
	return st
}

// reopenRecords opens dir fresh and returns the replayable record list.
func reopenRecords(t *testing.T, dir string) []*Record {
	t.Helper()
	st, res, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	return res.Tail
}

// TestFlushHookDeliversExactFileBytes checks the concatenated hook
// payloads equal the wal file, one contiguous LSN range per append.
func TestFlushHookDeliversExactFileBytes(t *testing.T) {
	dir := t.TempDir()
	st := openUnsynced(t, dir)
	defer st.Close()

	var shipped []byte
	var next int64 = 1
	st.SetFlushHook(func(data []byte, first, last int64) {
		if first != next || last != first {
			t.Fatalf("append covers [%d,%d], want [%d,%d]", first, last, next, next)
		}
		next = last + 1
		shipped = append(shipped, data...)
	})

	if _, err := st.Append(&Record{Kind: KindInit, Init: &InitRecord{Start: 0}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := st.Append(emitRecord(int64(i))); err != nil {
			t.Fatal(err)
		}
	}

	file, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shipped, file) {
		t.Fatalf("hook shipped %d bytes != wal file %d bytes", len(shipped), len(file))
	}
	if next != 12 {
		t.Fatalf("hook covered through LSN %d, want 11", next-1)
	}
}

// TestAppendRawReplicatesByteIdentical ships a primary's wal to a fresh
// dir through the flush hook and checks file bytes and replayable
// records agree.
func TestAppendRawReplicatesByteIdentical(t *testing.T) {
	primary := t.TempDir()
	follower := t.TempDir()

	pst := openUnsynced(t, primary)
	defer pst.Close()
	fst := openUnsynced(t, follower)
	defer fst.Close()

	pst.SetFlushHook(func(data []byte, first, last int64) {
		cp := make([]byte, len(data))
		copy(cp, data)
		if err := fst.AppendRaw(cp, first, last); err != nil {
			t.Fatalf("AppendRaw [%d,%d]: %v", first, last, err)
		}
	})

	if _, err := pst.Append(&Record{Kind: KindInit, Init: &InitRecord{Start: 0}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, err := pst.Append(emitRecord(int64(i))); err != nil {
			t.Fatal(err)
		}
	}

	pb, _ := os.ReadFile(filepath.Join(primary, segmentName(1)))
	fb, _ := os.ReadFile(filepath.Join(follower, segmentName(1)))
	if !bytes.Equal(pb, fb) {
		t.Fatalf("follower wal differs: %d vs %d bytes", len(fb), len(pb))
	}
	if got, want := len(reopenRecords(t, follower)), len(reopenRecords(t, primary)); got != want {
		t.Fatalf("follower replays %d records, primary %d", got, want)
	}
}

// TestAppendRawRejectsGapAndDuplicate pins the contiguity guard: frames
// must start exactly at the next LSN.
func TestAppendRawRejectsGapAndDuplicate(t *testing.T) {
	src := t.TempDir()
	appendN(t, src, 3)
	data, err := os.ReadFile(filepath.Join(src, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}

	dst := openUnsynced(t, t.TempDir())
	defer dst.Close()
	if err := dst.AppendRaw(data, 2, 3); err == nil {
		t.Fatal("gap (first=2 into empty log) accepted")
	}
	if err := dst.AppendRaw(data, 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := dst.AppendRaw(data, 1, 3); err == nil {
		t.Fatal("duplicate frames accepted")
	}
	if dst.LastLSN() != 3 {
		t.Fatalf("LastLSN = %d, want 3", dst.LastLSN())
	}
}

// TestReadFramesFromChunks checks the backlog reader: contiguous
// coverage, bounded chunks, and the boundary conditions (current
// requester, unavailable past).
func TestReadFramesFromChunks(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 20)
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	chunks, err := st.ReadFramesFrom(1, 256)
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	next := int64(1)
	for _, c := range chunks {
		if c.First != next {
			t.Fatalf("chunk starts at %d, want %d", c.First, next)
		}
		if len(c.Data) > 256 && c.First != c.Last {
			t.Fatalf("multi-frame chunk of %d bytes exceeds max", len(c.Data))
		}
		next = c.Last + 1
		all = append(all, c.Data...)
	}
	if next != 21 {
		t.Fatalf("chunks cover through %d, want 20", next-1)
	}
	file, _ := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if !bytes.Equal(all, file) {
		t.Fatal("chunk bytes differ from wal file")
	}

	// Mid-log resume.
	chunks, err = st.ReadFramesFrom(11, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) == 0 || chunks[0].First != 11 || chunks[len(chunks)-1].Last != 20 {
		t.Fatalf("resume from 11 got %+v", chunks)
	}
	// A requester already at the durable tip gets nothing, no error.
	chunks, err = st.ReadFramesFrom(21, 1<<20)
	if err != nil || chunks != nil {
		t.Fatalf("tip requester: %v, %v", chunks, err)
	}
	// Beyond the tip is a protocol error.
	if _, err := st.ReadFramesFrom(23, 1<<20); err == nil {
		t.Fatal("future position accepted")
	}
}

// TestReadFramesFromSnapshotCovered: once a snapshot resets the wal, the
// pre-snapshot backlog is gone and the reader must say so rather than
// hand out a gapped stream.
func TestReadFramesFromSnapshotCovered(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 5)
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.DisableSync()
	if err := st.SaveSnapshot(testSnapshot(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadFramesFrom(3, 1<<20); err == nil {
		t.Fatal("snapshot-covered position accepted")
	}
	// The post-snapshot tip is still fine.
	if chunks, err := st.ReadFramesFrom(6, 1<<20); err != nil || chunks != nil {
		t.Fatalf("tip after snapshot: %v, %v", chunks, err)
	}
}

// TestEpochRecordRecovery: epoch records and the snapshot epoch field
// both surface through OpenResult.Epoch, taking the max.
func TestEpochRecordRecovery(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.DisableSync()
	if _, err := st.Append(&Record{Kind: KindInit, Init: &InitRecord{Start: 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(&Record{Kind: KindEpoch, Epoch: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(emitRecord(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(&Record{Kind: KindEpoch, Epoch: 7}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, res, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 7 {
		t.Fatalf("recovered epoch %d, want 7", res.Epoch)
	}
	st2.DisableSync()
	snap := testSnapshot(st2.LastLSN())
	snap.Epoch = 7
	if err := st2.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	st3, res, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if res.Epoch != 7 {
		t.Fatalf("epoch after snapshot round-trip %d, want 7", res.Epoch)
	}
}
