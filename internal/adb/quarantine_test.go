package adb

import (
	"errors"
	"fmt"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/value"
)

// fireOnce emits one @hit state, which fires every rule gated on @hit.
func fireOnce(t *testing.T, e *Engine, ts int64) {
	t.Helper()
	if err := e.Emit(ts, event.New("hit")); err != nil {
		t.Fatalf("Emit(%d): %v", ts, err)
	}
}

// TestActionPanicIsolated is the sandbox property: a panicking action is
// recovered into a typed per-rule fault, the sweep completes, and the
// other rules' actions run exactly as if the bad rule were absent. Both
// settings of the ignored Config.Workers must behave alike.
func TestActionPanicIsolated(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var goodRuns int
			e := NewEngine(Config{
				Initial: map[string]value.Value{"a": value.NewInt(1)},
				Workers: workers,
			})
			if err := e.AddTrigger("bad", `@hit`, func(ctx *ActionContext) error {
				panic("kaboom")
			}); err != nil {
				t.Fatal(err)
			}
			if err := e.AddTrigger("good", `@hit`, func(ctx *ActionContext) error {
				goodRuns++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			fireOnce(t, e, 1)
			fireOnce(t, e, 2)

			if goodRuns != 2 {
				t.Errorf("good action ran %d times, want 2", goodRuns)
			}
			// Both rules' conditions held at both states: four firings total.
			if got := len(e.Firings()); got != 4 {
				t.Errorf("%d firings recorded, want 4", got)
			}
			h, ok := e.RuleHealth("bad")
			if !ok {
				t.Fatal("no health for rule bad")
			}
			if h.TotalFailures != 2 || h.ConsecutiveFailures != 2 {
				t.Errorf("bad health = %+v, want 2 total / 2 consecutive", h)
			}
			if !errors.Is(h.LastError, ErrActionPanic) {
				t.Errorf("LastError = %v, want ErrActionPanic", h.LastError)
			}
			var pe *ActionPanicError
			if !errors.As(h.LastError, &pe) || pe.Value != "kaboom" || len(pe.Stack) == 0 {
				t.Errorf("panic detail lost: %+v", pe)
			}
			// The panicking action never succeeded, so it has no entry in the
			// executed-predicate log; the good rule has both.
			if got := len(e.Executions("bad", e.Now()+1)); got != 0 {
				t.Errorf("bad has %d executions, want 0", got)
			}
			if got := len(e.Executions("good", e.Now()+1)); got != 2 {
				t.Errorf("good has %d executions, want 2", got)
			}
		})
	}
}

// TestQuarantineAndRevive is the circuit breaker: MaxRuleFailures
// consecutive action failures quarantine the rule (condition maintained,
// firings recorded, action suppressed), and ReviveRule re-arms it, at
// either setting of the ignored Config.Workers.
func TestQuarantineAndRevive(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var faults []RuleFault
			calls := 0
			fail := true
			e := NewEngine(Config{
				Initial:         map[string]value.Value{"a": value.NewInt(1)},
				Workers:         workers,
				MaxRuleFailures: 2,
				OnRuleFault:     func(f RuleFault) { faults = append(faults, f) },
			})
			if err := e.AddTrigger("flaky", `@hit`, func(ctx *ActionContext) error {
				calls++
				if fail {
					return errors.New("downstream unavailable")
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			fireOnce(t, e, 1) // failure 1
			fireOnce(t, e, 2) // failure 2: breaker trips
			fireOnce(t, e, 3) // suppressed
			fireOnce(t, e, 4) // suppressed

			if calls != 2 {
				t.Errorf("action invoked %d times, want 2 (quarantine suppresses the rest)", calls)
			}
			if got := len(e.Firings()); got != 4 {
				t.Errorf("%d firings, want 4 — quarantine must not stop condition maintenance", got)
			}
			h, _ := e.RuleHealth("flaky")
			if !h.Quarantined || h.ConsecutiveFailures != 2 || h.TotalFailures != 2 {
				t.Errorf("health after trip = %+v", h)
			}
			if got := e.QuarantinedRules(); len(got) != 1 || got[0] != "flaky" {
				t.Errorf("QuarantinedRules = %v, want [flaky]", got)
			}
			// Fault stream: 2 failures, the quarantine trip, 2 suppressions.
			if len(faults) != 5 {
				t.Fatalf("%d faults reported, want 5: %v", len(faults), faults)
			}
			if !errors.Is(faults[2].Err, ErrRuleQuarantined) {
				t.Errorf("fault[2] = %v, want the quarantine trip", faults[2].Err)
			}
			for _, i := range []int{3, 4} {
				if !errors.Is(faults[i].Err, ErrRuleQuarantined) {
					t.Errorf("fault[%d] = %v, want a suppression fault", i, faults[i].Err)
				}
			}

			// Revive with the downstream healthy again: the action runs.
			fail = false
			if err := e.ReviveRule("flaky"); err != nil {
				t.Fatal(err)
			}
			h, _ = e.RuleHealth("flaky")
			if h.Quarantined || h.ConsecutiveFailures != 0 {
				t.Errorf("health after revive = %+v", h)
			}
			if h.TotalFailures != 2 {
				t.Errorf("revive erased the lifetime total: %+v", h)
			}
			fireOnce(t, e, 5)
			if calls != 3 {
				t.Errorf("action invoked %d times after revive, want 3", calls)
			}
			if h, _ := e.RuleHealth("flaky"); h.Quarantined {
				t.Error("rule re-quarantined after a success")
			}
			if err := e.ReviveRule("nosuch"); err == nil {
				t.Error("ReviveRule accepted an unknown rule name")
			}
		})
	}
}

// TestActionErrorDoesNotFailSweep pins that a plain error return (no
// panic) is likewise isolated: Emit succeeds, health records
// the failure, and no executed-predicate entry is made.
func TestActionErrorDoesNotFailSweep(t *testing.T) {
	e := NewEngine(Config{Initial: map[string]value.Value{"a": value.NewInt(1)}})
	boom := errors.New("boom")
	if err := e.AddTrigger("errs", `@hit`, func(ctx *ActionContext) error { return boom }); err != nil {
		t.Fatal(err)
	}
	fireOnce(t, e, 1)
	h, _ := e.RuleHealth("errs")
	if !errors.Is(h.LastError, boom) || h.TotalFailures != 1 || h.LastFailureAt != 1 {
		t.Errorf("health = %+v, want the recorded boom at t=1", h)
	}
	if got := len(e.Executions("errs", e.Now()+1)); got != 0 {
		t.Errorf("failed action has %d executions, want 0", got)
	}
}
