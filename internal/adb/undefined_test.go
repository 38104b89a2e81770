package adb

import (
	"testing"

	"ptlactive/internal/value"
)

// TestIllKindedWriteWedgesNothing: a write that makes one rule's
// comparison ill-kinded leaves that rule false, not failing. With r:
// item("a") > 5 (no action) and q: item("b") > 5, committing a = "x",
// b = 9 and then nine more values of b returns nil every time, q's action
// runs on each of its ten firings, and Compact drops every state but the
// newest, as r's cursor keeps up.
func TestIllKindedWriteWedgesNothing(t *testing.T) {
	e := NewEngine(Config{Initial: map[string]value.Value{"a": value.NewInt(0), "b": value.NewInt(0)}})
	ran := 0
	if err := e.AddTrigger("r", `item("a") > 5`, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.AddTrigger("q", `item("b") > 5`, func(*ActionContext) error { ran++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(1, map[string]value.Value{"a": value.NewString("x"), "b": value.NewInt(9)}); err != nil {
		t.Errorf("commit 1: %v", err)
	}
	for ts := int64(2); ts <= 10; ts++ {
		if err := e.Exec(ts, map[string]value.Value{"b": value.NewInt(9 + ts)}); err != nil {
			t.Errorf("commit %d: %v", ts, err)
		}
	}
	if ran != 10 {
		t.Errorf("q's action ran %d times, want 10", ran)
	}
	if n := e.Compact(); n != 10 {
		t.Errorf("Compact dropped %d states, want 10", n)
	}
}

// TestMissingItemReadsNull: item("a") of an item a commit deleted is Null,
// so `item("a") > 5`, true before, is false from then on, and the deleting
// commit and every later one return nil while Compact keeps advancing.
func TestMissingItemReadsNull(t *testing.T) {
	e := NewEngine(Config{Initial: map[string]value.Value{"a": value.NewInt(9), "b": value.NewInt(0)}})
	fired := 0
	if err := e.AddTrigger("r", `item("a") > 5`, func(*ActionContext) error { fired++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := e.Begin().Delete("a").Commit(1); err != nil {
		t.Errorf("deleting commit: %v", err)
	}
	for ts := int64(2); ts <= 5; ts++ {
		if err := e.Exec(ts, map[string]value.Value{"b": value.NewInt(ts)}); err != nil {
			t.Errorf("commit %d: %v", ts, err)
		}
	}
	if fired != 1 { // at the state it was added in, before the delete
		t.Errorf("r fired %d times, want 1", fired)
	}
	if n := e.Compact(); n != 5 {
		t.Errorf("Compact dropped %d states, want 5", n)
	}
}
