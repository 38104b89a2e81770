package vtime

import (
	"errors"
	"testing"

	"ptlactive/internal/history"
	"ptlactive/internal/value"
)

// historiesEqual compares two histories state by state.
func historiesEqual(a, b *history.History) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		sa, sb := a.At(i), b.At(i)
		if sa.TS != sb.TS || !sa.DB.Equal(sb.DB) || sa.Events.Len() != sb.Events.Len() {
			return false
		}
		for _, ev := range sa.Events.Events() {
			if !sb.Events.Contains(ev) {
				return false
			}
		}
	}
	return true
}

// truncStore builds a complete valid-time history with a retroactive
// correction: txn 4 commits at 13 but writes a value valid at 7.
func truncStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore(history.EmptyDB(), 0, 10)
	post := func(txn int64, item string, v int64, valid, at int64) {
		t.Helper()
		if err := s.Post(txn, item, value.NewInt(v), valid, at); err != nil {
			t.Fatal(err)
		}
	}
	commit := func(txn, ts int64) {
		t.Helper()
		if err := s.Commit(txn, ts); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(1); id <= 4; id++ {
		if err := s.Begin(id); err != nil {
			t.Fatal(err)
		}
	}
	post(1, "a", 1, 1, 1)
	commit(1, 2)
	post(2, "a", 2, 3, 3)
	commit(2, 4)
	post(3, "b", 7, 5, 5)
	commit(3, 6)
	post(4, "a", 9, 7, 12) // retroactive: valid 7, committed 13
	commit(4, 13)
	if !s.Complete() {
		t.Fatal("store should be complete")
	}
	return s
}

// TestTruncateBeforePreservesSuffixViews: truncation folds the dropped
// prefix into the base so that every state at or after the returned cut
// materializes exactly as before, and reads below the new floor are
// refused with the typed sentinel.
func TestTruncateBeforePreservesSuffixViews(t *testing.T) {
	s := truncStore(t)
	before := s.CommittedAt(Infinity)

	cut, err := s.TruncateBefore(5)
	if err != nil {
		t.Fatal(err)
	}
	if cut != 5 {
		t.Fatalf("cut = %d, want 5 (no retro update below it)", cut)
	}
	if s.Floor() != 5 {
		t.Fatalf("Floor = %d, want 5", s.Floor())
	}

	after := s.CommittedAt(Infinity)
	if after.Len() >= before.Len() {
		t.Fatalf("truncation dropped nothing: %d -> %d states", before.Len(), after.Len())
	}
	// The surviving states must match the tail of the pre-truncation view
	// state for state: same timestamps, same database values.
	off := before.Len() - after.Len()
	for i := 0; i < after.Len(); i++ {
		sa, sb := after.At(i), before.At(off+i)
		if sa.TS != sb.TS || !sa.DB.Equal(sb.DB) {
			t.Fatalf("state %d diverged after truncation: ts %d/%d db %v/%v",
				i, sa.TS, sb.TS, sa.DB, sb.DB)
		}
	}

	if _, err := s.CommittedAtChecked(3); err == nil {
		t.Fatal("read below the floor succeeded")
	} else if !errors.Is(err, history.ErrHistoryTruncated) {
		t.Fatalf("error %v does not match ErrHistoryTruncated", err)
	}
	if _, err := s.CommittedAtChecked(5); err != nil {
		t.Fatalf("read at the floor refused: %v", err)
	}
}

// TestTruncateCutRetreatsBelowRetroactiveUpdates: asking for a cut above
// a committed-later retroactive update must retreat below the update's
// valid time — folding it would bake a correction into views taken
// before its transaction committed.
func TestTruncateCutRetreatsBelowRetroactiveUpdates(t *testing.T) {
	s := truncStore(t)
	// txn 4 committed at 13 with an update valid at 7: a cut at 10 must
	// retreat to 7.
	cut, err := s.TruncateBefore(10)
	if err != nil {
		t.Fatal(err)
	}
	if cut != 7 {
		t.Fatalf("cut = %d, want retreat to 7", cut)
	}
	// Views from the cut on still materialize: the retro update appears
	// only at t >= its commit time.
	h, err := s.CommittedAtChecked(12)
	if err != nil {
		t.Fatal(err)
	}
	last, _ := h.Last()
	if v, ok := last.DB.Get("a"); !ok || v.AsInt() != 2 {
		t.Fatalf("a at 12 = %v, want 2 (txn 4 not yet committed)", v)
	}
	h, err = s.CommittedAtChecked(Infinity)
	if err != nil {
		t.Fatal(err)
	}
	last, _ = h.Last()
	if v, ok := last.DB.Get("a"); !ok || v.AsInt() != 9 {
		t.Fatalf("a at infinity = %v, want 9 (retro commit applied)", v)
	}
}

// TestTruncateRefusesIncompleteHistory: a pending transaction could
// still commit updates into the fold region, so truncation requires a
// complete history.
func TestTruncateRefusesIncompleteHistory(t *testing.T) {
	s := NewStore(history.EmptyDB(), 0, 10)
	if err := s.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Post(1, "a", value.NewInt(1), 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TruncateBefore(1); err == nil {
		t.Fatal("truncate of an incomplete history succeeded")
	}
	if s.Floor() != 0 {
		t.Fatalf("floor moved on a refused truncate: %d", s.Floor())
	}
}

// TestTruncateIsIdempotentAndMonotone: re-truncating at or below the
// floor is a no-op, and successive truncations only advance the floor.
func TestTruncateIsIdempotentAndMonotone(t *testing.T) {
	s := truncStore(t)
	cut1, err := s.TruncateBefore(5)
	if err != nil {
		t.Fatal(err)
	}
	want := s.CommittedAt(Infinity)
	cut2, err := s.TruncateBefore(3)
	if err != nil {
		t.Fatal(err)
	}
	if cut2 > cut1 {
		t.Fatalf("truncate below the floor advanced it: %d -> %d", cut1, cut2)
	}
	got := s.CommittedAt(Infinity)
	if !historiesEqual(want, got) {
		t.Fatal("no-op truncate changed the materialized view")
	}
}
