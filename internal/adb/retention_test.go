package adb

import (
	"errors"
	"testing"

	"ptlactive/internal/value"
)

// execSeries commits one update per tick over [1, n] so the engine clock
// and item a's history advance predictably.
func execSeries(t *testing.T, e *Engine, n int64) {
	t.Helper()
	for ts := int64(1); ts <= n; ts++ {
		if err := e.Exec(ts, map[string]value.Value{"a": value.NewInt(ts)}); err != nil {
			t.Fatalf("exec at %d: %v", ts, err)
		}
	}
}

// TestRetentionDropRefusesOldReads: once Compact has discarded the states
// every rule has consumed — here up to the cursor of a Manual rule last
// flushed at 14 — a point-in-time read older than the oldest retained
// state is refused with the typed error, while reads from that state on
// keep answering. Before the start of an uncompacted engine a read is a
// plain miss.
func TestRetentionDropRefusesOldReads(t *testing.T) {
	e := NewEngine(Config{Initial: map[string]value.Value{"a": value.NewInt(0)}})
	if _, ok, err := e.ItemAsOfChecked("a", -1); ok || err != nil {
		t.Fatalf("before start = %t, %v; want miss, nil", ok, err)
	}
	if err := e.AddTrigger("lag", `item("a") > 100`, nil, WithScheduling(Manual)); err != nil {
		t.Fatal(err)
	}
	execSeries(t, e, 14)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for ts := int64(15); ts <= 20; ts++ {
		if err := e.Exec(ts, map[string]value.Value{"a": value.NewInt(ts)}); err != nil {
			t.Fatal(err)
		}
	}
	if e.Compact() == 0 {
		t.Fatal("nothing compacted")
	}
	if _, _, err := e.ItemAsOfChecked("a", 3); err == nil {
		t.Fatal("read below the floor succeeded")
	} else {
		if !errors.Is(err, ErrHistoryTruncated) {
			t.Fatalf("error %v does not match ErrHistoryTruncated", err)
		}
		var hte *HistoryTruncatedError
		if !errors.As(err, &hte) || hte.Time != 3 || hte.Floor != 15 {
			t.Fatalf("typed error = %+v; want Time 3, Floor 15", hte)
		}
	}
	for _, ts := range []int64{15, 17, 20, 99} {
		v, ok, err := e.ItemAsOfChecked("a", ts)
		if want := min(ts, 20); err != nil || !ok || v.AsInt() != want {
			t.Fatalf("ItemAsOfChecked(a, %d) = %v, %t, %v; want %d", ts, v, ok, err, want)
		}
	}
	// The untyped accessor misses rather than erroring.
	if _, ok := e.ItemAsOf("a", 3); ok {
		t.Fatal("ItemAsOf answered below the floor")
	}
	// An item absent from the retained state reads Null, not a truncation.
	if v, ok, err := e.ItemAsOfChecked("zzz", 17); !ok || err != nil || !v.IsNull() {
		t.Fatalf("absent item = %v, %t, %v; want Null, true, nil", v, ok, err)
	}
}

// TestRetentionGCChaosUnderGroupCommit drives a durable engine with tiny
// segments, an aggressive snapshot cadence and a group-commit flusher in
// flight, so segment rotation and snapshot-chain GC race the background
// flush goroutine; under -race this is the lifecycle subsystem's
// concurrency check, and the disk footprint must stay bounded.
func TestRetentionGCChaosUnderGroupCommit(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Initial:       map[string]value.Value{"a": value.NewInt(0)},
		Durability:    DurabilitySnapshot,
		SnapshotEvery: 5,
		GroupCommit:   8,
		NoFsync:       true,
		Retention: Retention{
			SegmentBytes:  512,
			KeepSnapshots: 2,
		},
	}
	e, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	execSeries(t, e, 300)
	if err := e.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	st, err := e.Storage()
	if err != nil {
		t.Fatal(err)
	}
	// With 512-byte segments GCed behind a 2-deep snapshot chain, the live
	// segment count must stay small no matter how many commits ran.
	if st.Segments > 8 {
		t.Fatalf("segment count grew without bound: %+v", st)
	}
	if st.Snapshots > 2 {
		t.Fatalf("snapshot chain not compacted: %+v", st)
	}
	if st.HeadLSN <= 1 {
		t.Fatalf("no WAL head advance (GC never ran): %+v", st)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// The survivor must still recover, answer reads from its retained
	// state and refuse those its checkpoints compacted away.
	e, err = Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := e.Now(); got != 300 {
		t.Fatalf("recovered clock %d, want 300", got)
	}
	v, ok, err := e.ItemAsOfChecked("a", 300)
	if err != nil || !ok || v.AsInt() != 300 {
		t.Fatalf("read after recovery = %v, %t, %v; want 300", v, ok, err)
	}
	if _, _, err := e.ItemAsOfChecked("a", 42); !errors.Is(err, ErrHistoryTruncated) {
		t.Fatalf("read below the checkpoint's compaction = %v; want ErrHistoryTruncated", err)
	}
}
