package persist

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// emitRec builds a distinguishable emit record.
func emitRec(ts int64) *Record {
	return &Record{Kind: KindEmit, TS: ts, Events: [][]json.RawMessage{{json.RawMessage(`"e"`)}}}
}

// openGroupStore opens dir with fsync off and the given batch size.
func openGroupStore(t *testing.T, dir string, group int) *Store {
	t.Helper()
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.DisableSync()
	if group > 1 {
		if err := st.SetGroupCommit(group); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// reopenRecords closes nothing; it opens dir fresh and returns the
// replayable record list.
func reopenRecords(t *testing.T, dir string) []*Record {
	t.Helper()
	st, res, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	return res.Tail
}

// TestGroupCommitSameBytes is the equivalence core: the same record
// sequence appended with group commit produces a byte-identical WAL file
// to per-record appends, once flushed.
func TestGroupCommitSameBytes(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	for dir, group := range map[string]int{dirA: 1, dirB: 8} {
		st := openGroupStore(t, dir, group)
		for i := 0; i < 20; i++ {
			if _, err := st.Append(emitRec(int64(i + 1))); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil { // Close flushes the partial batch
			t.Fatal(err)
		}
	}
	a, err := os.ReadFile(filepath.Join(dirA, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dirB, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || string(a) != string(b) {
		t.Fatalf("wal bytes differ: per-record %d bytes, grouped %d bytes", len(a), len(b))
	}
}

// TestGroupCommitLSNsAndAutoFlush checks LSN assignment is immediate
// (LastLSN includes buffered records) and that the batch self-flushes at
// the group size.
func TestGroupCommitLSNsAndAutoFlush(t *testing.T) {
	dir := t.TempDir()
	st := openGroupStore(t, dir, 4)
	for i := 0; i < 6; i++ {
		lsn, err := st.Append(emitRec(int64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != int64(i+1) {
			t.Fatalf("append %d got LSN %d", i, lsn)
		}
		if st.LastLSN() != lsn {
			t.Fatalf("LastLSN = %d after appending %d", st.LastLSN(), lsn)
		}
	}
	// 6 appends with group 4: records 1-4 auto-flushed, 5-6 still buffered.
	if got := reopenRecords(t, dir); len(got) != 4 {
		t.Fatalf("durable records before flush = %d, want 4", len(got))
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := reopenRecords(t, dir); len(got) != 6 {
		t.Fatalf("durable records after flush = %d, want 6", len(got))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitCrashLosesOnlyTail models a crash with a part-full
// buffer (the store is simply never flushed or closed): recovery sees
// exactly the flushed prefix, with no torn tail.
func TestGroupCommitCrashLosesOnlyTail(t *testing.T) {
	dir := t.TempDir()
	st := openGroupStore(t, dir, 5)
	for i := 0; i < 13; i++ {
		if _, err := st.Append(emitRec(int64(i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: drop the store on the floor (10 records flushed, 3 buffered).
	st2, res, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if res.TruncatedAt >= 0 {
		t.Fatal("clean group-commit crash must not leave a torn tail")
	}
	if len(res.Tail) != 10 {
		t.Fatalf("recovered %d records, want the 10 flushed ones", len(res.Tail))
	}
	for i, rec := range res.Tail {
		if rec.LSN != int64(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
	}
}

// TestGroupCommitFailpointTornBatch injects an append fault mid-batch:
// the flush must poison the log, leave the pre-fault prefix plus a torn
// frame, and recovery must truncate back to the last whole record.
func TestGroupCommitFailpointTornBatch(t *testing.T) {
	dir := t.TempDir()
	st := openGroupStore(t, dir, 4)
	boom := errors.New("disk gone")
	st.SetFailpoint(func(op string, lsn int64) error {
		if op == "append" && lsn == 3 {
			return boom
		}
		return nil
	})
	var appendErr error
	for i := 0; i < 4; i++ {
		if _, err := st.Append(emitRec(int64(i + 1))); err != nil {
			appendErr = err
			break
		}
	}
	if !errors.Is(appendErr, boom) {
		t.Fatalf("batch flush did not surface the fault: %v", appendErr)
	}
	// Poisoned: further appends refuse.
	if _, err := st.Append(emitRec(99)); !errors.Is(err, boom) {
		t.Fatalf("poisoned log accepted an append: %v", err)
	}
	// Poisoned log closes clean (the error already surfaced).
	if err := st.Close(); err != nil {
		t.Fatalf("Close after poison: %v", err)
	}
	st2, res, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if res.TruncatedAt < 0 {
		t.Fatal("torn batch tail not detected")
	}
	if len(res.Tail) != 2 {
		t.Fatalf("recovered %d records, want the 2 before the fault", len(res.Tail))
	}
}

// TestGroupCommitSyncFault checks a sync-stage fault poisons the whole
// batch even though the frames were written.
func TestGroupCommitSyncFault(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetGroupCommit(3); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("fsync gone")
	st.SetFailpoint(func(op string, lsn int64) error {
		if op == "sync" && lsn == 2 {
			return boom
		}
		return nil
	})
	var appendErr error
	for i := 0; i < 3; i++ {
		if _, err := st.Append(emitRec(int64(i + 1))); err != nil {
			appendErr = err
			break
		}
	}
	if !errors.Is(appendErr, boom) {
		t.Fatalf("sync fault not surfaced: %v", appendErr)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close after sync poison: %v", err)
	}
}

// TestGroupCommitResetDropsBuffer checks a snapshot reset discards the
// buffered suffix: the snapshot was stamped with LastLSN (which includes
// the buffer), so the next append continues the sequence.
func TestGroupCommitResetDropsBuffer(t *testing.T) {
	dir := t.TempDir()
	st := openGroupStore(t, dir, 10)
	for i := 0; i < 7; i++ {
		if _, err := st.Append(emitRec(int64(i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.SaveSnapshot(testSnapshot(st.LastLSN())); err != nil {
		t.Fatal(err)
	}
	if lsn, err := st.Append(emitRec(100)); err != nil || lsn != 8 {
		t.Fatalf("post-reset append: lsn=%d err=%v, want 8", lsn, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, res, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if res.Snapshot == nil || res.Snapshot.LSN != 7 {
		t.Fatalf("snapshot not at LSN 7: %+v", res.Snapshot)
	}
	if len(res.Tail) != 1 || res.Tail[0].LSN != 8 {
		t.Fatalf("post-snapshot tail = %+v, want one record at LSN 8", res.Tail)
	}
}

// TestSetGroupCommitFlushesPending checks switching modes flushes the
// buffer first, so no record straddles the mode change.
func TestSetGroupCommitFlushesPending(t *testing.T) {
	dir := t.TempDir()
	st := openGroupStore(t, dir, 8)
	for i := 0; i < 3; i++ {
		if _, err := st.Append(emitRec(int64(i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	if got := reopenRecords(t, dir); len(got) != 0 {
		t.Fatalf("records flushed early: %d", len(got))
	}
	if err := st.SetGroupCommit(1); err != nil {
		t.Fatal(err)
	}
	if got := reopenRecords(t, dir); len(got) != 3 {
		t.Fatalf("mode change did not flush: %d records", len(got))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
