package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptlactive/internal/histio"
)

// testSnapshot builds a minimal valid snapshot stamped at the given LSN.
func testSnapshot(lsn int64) *EngineSnapshot {
	return &EngineSnapshot{
		Init:    &InitRecord{Start: 0},
		LSN:     lsn,
		History: []histio.StateJSON{{Time: 0, DB: map[string]json.RawMessage{}}},
	}
}

// appendN opens dir and appends n emit records (LSNs continuing from
// whatever the store already holds), leaving the store closed.
func appendN(t *testing.T, dir string, n int) {
	t.Helper()
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.DisableSync()
	if st.LastLSN() == 0 {
		if _, err := st.Append(&Record{Kind: KindInit, Init: &InitRecord{Start: 0}}); err != nil {
			t.Fatal(err)
		}
		n--
	}
	for i := 0; i < n; i++ {
		if _, err := st.Append(&Record{Kind: KindEmit, TS: int64(i + 1), Events: [][]json.RawMessage{{json.RawMessage(`"e"`)}}}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	snap := testSnapshot(7)
	snap.Rules = []RuleSnapshot{{Name: "r", Text: "true", Cursor: 1, Eval: json.RawMessage(`{}`)}}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.LSN != 7 || len(got.Rules) != 1 || got.Rules[0].Name != "r" || got.Rules[0].Text != "true" {
		t.Fatalf("round trip lost data: %+v", got)
	}
}

func TestEnvelopeRejectsDamage(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, testSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	cases := map[string]string{
		"payload flip":  strings.Replace(good, `"start"`, `"START"`, 1),
		"version":       strings.Replace(good, `"version":1`, `"version":99`, 1),
		"kind":          strings.Replace(good, SnapshotKind, "other-thing", 1),
		"not json":      good[:len(good)/2],
		"empty":         "",
		"wrong payload": `{"version":1,"kind":"engine-snapshot","crc":0,"payload":null}`,
	}
	for name, blob := range cases {
		if _, err := DecodeSnapshot(strings.NewReader(blob)); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}

func TestSnapshotValidate(t *testing.T) {
	cases := map[string]*EngineSnapshot{
		"no init":    {History: []histio.StateJSON{{}}},
		"no history": {Init: &InitRecord{}},
		"bad cursor": {
			Init:    &InitRecord{},
			History: []histio.StateJSON{{}},
			Rules:   []RuleSnapshot{{Name: "r", Cursor: 5}},
		},
		"empty rule name": {
			Init:    &InitRecord{},
			History: []histio.StateJSON{{}},
			Rules:   []RuleSnapshot{{Cursor: 0}},
		},
	}
	for name, snap := range cases {
		if err := snap.validate(); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}

func TestOpenFreshAndReopen(t *testing.T) {
	dir := t.TempDir()
	st, res, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot != nil || len(res.Tail) != 0 || res.TruncatedAt != -1 {
		t.Fatalf("fresh dir: %+v", res)
	}
	st.DisableSync()
	for i := 1; i <= 3; i++ {
		lsn, err := st.Append(&Record{Kind: KindEmit, TS: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != int64(i) {
			t.Fatalf("lsn = %d, want %d", lsn, i)
		}
	}
	if st.LastLSN() != 3 {
		t.Fatalf("LastLSN = %d", st.LastLSN())
	}
	st.Close()

	_, res, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tail) != 3 || res.Tail[0].LSN != 1 || res.Tail[2].TS != 3 {
		t.Fatalf("reopen tail: %+v", res.Tail)
	}
}

func TestSaveSnapshotResetsWALAndPrunes(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 5)
	st, res, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.DisableSync()
	if len(res.Tail) != 5 {
		t.Fatalf("tail = %d records", len(res.Tail))
	}
	if err := st.SaveSnapshot(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	// First snapshot covers LSNs 1..5.
	if _, err := st.Append(&Record{Kind: KindEmit, TS: 10}); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, res2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if res2.Snapshot == nil || res2.SnapshotLSN != 6 {
		t.Fatalf("snapshot LSN = %d, want 6", res2.SnapshotLSN)
	}
	if len(res2.Tail) != 0 {
		t.Fatalf("tail after snapshot = %d records", len(res2.Tail))
	}
	// The superseded snapshot file must be gone.
	entries, _ := os.ReadDir(dir)
	snaps := 0
	for _, ent := range entries {
		if _, ok := parseSnapshotName(ent.Name()); ok {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("%d snapshot files retained, want 1", snaps)
	}
	// Appends continue past the snapshot LSN.
	if lsn, err := st2.Append(&Record{Kind: KindEmit, TS: 11}); err != nil || lsn != 7 {
		t.Fatalf("append after recover: lsn=%d err=%v", lsn, err)
	}
}

// TestCrashBetweenSnapshotAndReset simulates a crash after the snapshot
// file is installed but before the WAL reset: the covered records are
// still in the file and must be skipped, not replayed.
func TestCrashBetweenSnapshotAndReset(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 4)
	// Install a snapshot covering LSNs 1..4 by hand, leaving the WAL alone.
	f, err := os.Create(filepath.Join(dir, snapshotName(4)))
	if err != nil {
		t.Fatal(err)
	}
	if err := EncodeSnapshot(f, testSnapshot(4)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, res, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if res.SnapshotLSN != 4 || len(res.Tail) != 0 {
		t.Fatalf("snapLSN=%d tail=%d, want 4/0", res.SnapshotLSN, len(res.Tail))
	}
	if lsn, err := st.Append(&Record{Kind: KindEmit, TS: 9}); err != nil || lsn != 5 {
		t.Fatalf("append: lsn=%d err=%v", lsn, err)
	}
}

func TestOpenRejectsLSNGap(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.DisableSync()
	if _, err := st.Append(&Record{Kind: KindEmit, TS: 1}); err != nil {
		t.Fatal(err)
	}
	// Force a gap.
	st.log.next = 5
	if _, err := st.Append(&Record{Kind: KindEmit, TS: 2}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("want LSN gap error, got %v", err)
	}
}

func TestOpenRejectsDamagedNewestSnapshot(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 2)
	if err := os.WriteFile(filepath.Join(dir, snapshotName(2)), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil {
		t.Fatal("damaged newest snapshot: want error, got nil")
	}
}

func TestOpenRejectsTailAfterGapFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 3)
	// Snapshot claims to cover through LSN 1 only; WAL holds 1..3, so tail
	// 2..3 is continuous. Now install one claiming LSN 0 with a WAL
	// starting at 2: records 2..3 follow a hole.
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.DisableSync()
	if err := st.SaveSnapshot(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(&Record{Kind: KindEmit, TS: 7}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Remove the snapshot: the WAL now starts at LSN 4 with nothing before.
	if err := os.Remove(filepath.Join(dir, snapshotName(3))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil {
		t.Fatal("wal starting past a missing snapshot: want error, got nil")
	}
}

// buildWAL writes n records to a fresh dir and returns the raw WAL image
// plus each record's starting offset.
func buildWAL(t *testing.T, n int) (string, []byte, []int64) {
	t.Helper()
	dir := t.TempDir()
	appendN(t, dir, n)
	data, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	off := int64(0)
	for off < int64(len(data)) {
		offs = append(offs, off)
		_, n, err := parseFrame(data[off:])
		if err != nil {
			t.Fatalf("frame at %d: %v", off, err)
		}
		off += n
	}
	return dir, data, offs
}

// TestTornFinalRecordEveryTruncation is the fault-injection satellite:
// truncating the WAL at every byte offset inside the final record must
// recover the prefix and report the replay point — never panic, never
// fail, never skip a full record.
func TestTornFinalRecordEveryTruncation(t *testing.T) {
	const n = 5
	dir, data, offs := buildWAL(t, n)
	finalStart := offs[n-1]
	walPath := filepath.Join(dir, segmentName(1))
	for cut := finalStart; cut <= int64(len(data)); cut++ {
		if err := os.WriteFile(walPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, res, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		complete := cut == int64(len(data))
		wantRecords := n - 1
		if complete {
			wantRecords = n
		}
		if len(res.Tail) != wantRecords {
			t.Fatalf("cut %d: %d records, want %d", cut, len(res.Tail), wantRecords)
		}
		switch {
		case complete && res.TruncatedAt != -1:
			t.Fatalf("cut %d: spurious truncation at %d", cut, res.TruncatedAt)
		case !complete && cut == finalStart && res.TruncatedAt != -1:
			// A cut exactly at the record boundary is a clean shorter log.
			t.Fatalf("cut %d: boundary cut reported truncation at %d", cut, res.TruncatedAt)
		case !complete && cut > finalStart && res.TruncatedAt != finalStart:
			t.Fatalf("cut %d: truncation reported at %d, want %d", cut, res.TruncatedAt, finalStart)
		}
		// The torn bytes must be gone from disk: appending must produce a
		// log whose next open sees wantRecords+1 records.
		st.DisableSync()
		if _, err := st.Append(&Record{Kind: KindEmit, TS: 99}); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		st.Close()
		st2, res2, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if len(res2.Tail) != wantRecords+1 {
			t.Fatalf("cut %d: after append %d records, want %d", cut, len(res2.Tail), wantRecords+1)
		}
		st2.Close()
	}
}

// TestCorruptFinalRecordEveryByte flips every byte of the final record in
// turn; recovery must truncate the torn tail and keep the intact prefix.
func TestCorruptFinalRecordEveryByte(t *testing.T) {
	const n = 5
	dir, data, offs := buildWAL(t, n)
	finalStart := offs[n-1]
	walPath := filepath.Join(dir, segmentName(1))
	for pos := finalStart; pos < int64(len(data)); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0xff
		if err := os.WriteFile(walPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		st, res, err := Open(dir)
		if err != nil {
			t.Fatalf("flip %d: %v", pos, err)
		}
		if len(res.Tail) != n-1 {
			t.Fatalf("flip %d: %d records, want %d", pos, len(res.Tail), n-1)
		}
		if res.TruncatedAt != finalStart {
			t.Fatalf("flip %d: truncation at %d, want %d", pos, res.TruncatedAt, finalStart)
		}
		st.Close()
	}
}

// TestCorruptMidLogIsHardError flips a byte in every non-final record in
// turn; intact records follow, so recovery must refuse rather than skip a
// committed record.
func TestCorruptMidLogIsHardError(t *testing.T) {
	const n = 5
	dir, data, offs := buildWAL(t, n)
	walPath := filepath.Join(dir, segmentName(1))
	for rec := 0; rec < n-1; rec++ {
		// One flip inside the payload and one in the header of each record.
		for _, pos := range []int64{offs[rec] + 5, offs[rec] + headerLen + 2} {
			mut := append([]byte(nil), data...)
			mut[pos] ^= 0xff
			if err := os.WriteFile(walPath, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := Open(dir)
			if err == nil {
				t.Fatalf("record %d flip at %d: want error, got nil", rec, pos)
			}
			if !strings.Contains(err.Error(), "refusing to skip") {
				t.Fatalf("record %d flip at %d: error %v does not refuse", rec, pos, err)
			}
		}
	}
}

func TestSnapshotNameRoundTrip(t *testing.T) {
	for _, lsn := range []int64{0, 1, 42, 1 << 40} {
		got, ok := parseSnapshotName(snapshotName(lsn))
		if !ok || got != lsn {
			t.Fatalf("parse(%s) = %d,%t", snapshotName(lsn), got, ok)
		}
	}
	for _, bad := range []string{"wal.log", "snap-.snap", "snap-x.snap", "snap-1.tmp", fmt.Sprintf("snap-%020d", 3)} {
		if _, ok := parseSnapshotName(bad); ok {
			t.Fatalf("parse(%s) accepted", bad)
		}
	}
}
