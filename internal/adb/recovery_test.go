package adb

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/value"
)

// firingsEqual compares firing sequences structurally; bindings are
// compared by value so a nil and an empty binding are equal.
func firingsEqual(a, b []Firing) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Rule != y.Rule || x.Time != y.Time || x.StateIndex != y.StateIndex || len(x.Binding) != len(y.Binding) {
			return false
		}
		for k, v := range x.Binding {
			w, ok := y.Binding[k]
			if !ok || !v.Equal(w) {
				return false
			}
		}
	}
	return true
}

// TestCrashRecoveryEquivalence is the crash-equivalence property: over
// random rule sets and random histories, killing the engine at every
// commit boundary and restoring must yield exactly the run an
// uninterrupted engine produces — firing sequence, clock, database, step
// counts, and the byte-identical order of constraint aborts. Recovery must
// also replay only the records logged since the last snapshot.
func TestCrashRecoveryEquivalence(t *testing.T) {
	trials := 4
	states := 36
	if testing.Short() {
		trials, states = 2, 18
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(7000 + trial)
		rules := 3 + trial%5
		mode := DurabilityWAL
		if trial%2 == 1 {
			mode = DurabilitySnapshot
		}
		p := randomEngineParams(seed, rules, true)
		ops := randomOps(seed*31, rules, states, 0)

		ref := NewEngine(p.config())
		p.register(t, ref)
		var refAborts []string
		for _, op := range ops {
			if name := applyOp(t, ref, op); name != "" {
				refAborts = append(refAborts, name)
			}
		}

		for k := 0; k <= len(ops); k++ {
			dir := t.TempDir()
			cfg := p.config()
			cfg.Durability = mode
			cfg.SnapshotEvery = 5
			cfg.NoFsync = true
			e1, err := Restore(cfg, dir)
			if err != nil {
				t.Fatalf("trial %d cut %d: fresh Restore: %v", trial, k, err)
			}
			p.register(t, e1)
			var aborts []string
			for _, op := range ops[:k] {
				if name := applyOp(t, e1, op); name != "" {
					aborts = append(aborts, name)
				}
			}
			since := e1.walSince
			if err := e1.Close(); err != nil {
				t.Fatalf("trial %d cut %d: Close: %v", trial, k, err)
			}

			e2, err := Restore(cfg, dir)
			if err != nil {
				t.Fatalf("trial %d cut %d: Restore: %v", trial, k, err)
			}
			rec := e2.Recovery()
			if len(rec.ReplayErrors) != 0 {
				t.Fatalf("trial %d cut %d: replay errors: %v", trial, k, rec.ReplayErrors)
			}
			if rec.ReplayedRecords != since {
				t.Fatalf("trial %d cut %d: replayed %d records, want the %d logged since the last snapshot",
					trial, k, rec.ReplayedRecords, since)
			}
			for _, op := range ops[k:] {
				if name := applyOp(t, e2, op); name != "" {
					aborts = append(aborts, name)
				}
			}
			if !firingsEqual(ref.Firings(), e2.Firings()) {
				t.Fatalf("trial %d cut %d: firing sequences diverge:\n  reference (%d): %v\n  recovered (%d): %v",
					trial, k, len(ref.Firings()), ref.Firings(), len(e2.Firings()), e2.Firings())
			}
			if ref.Now() != e2.Now() {
				t.Fatalf("trial %d cut %d: clocks diverge: %d vs %d", trial, k, ref.Now(), e2.Now())
			}
			if !ref.DB().Equal(e2.DB()) {
				t.Fatalf("trial %d cut %d: databases diverge: %v vs %v", trial, k, ref.DB(), e2.DB())
			}
			if ref.EvalSteps() != e2.EvalSteps() {
				t.Fatalf("trial %d cut %d: eval steps diverge: %d vs %d", trial, k, ref.EvalSteps(), e2.EvalSteps())
			}
			if !reflect.DeepEqual(refAborts, aborts) {
				t.Fatalf("trial %d cut %d: abort sequences diverge:\n  reference: %v\n  recovered: %v",
					trial, k, refAborts, aborts)
			}
			if err := e2.Close(); err != nil {
				t.Fatalf("trial %d cut %d: Close: %v", trial, k, err)
			}
		}
	}
}

// TestRecoveryReplaysOnlyTail pins the tail-only property: with periodic
// snapshots, recovery replays at most SnapshotEvery records no matter how
// long the full history is.
func TestRecoveryReplaysOnlyTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Initial:       map[string]value.Value{"a": value.NewInt(0)},
		Durability:    DurabilitySnapshot,
		SnapshotEvery: 5,
		NoFsync:       true,
	}
	e, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddTrigger("r", `@tick and item("a") > 0`, nil); err != nil {
		t.Fatal(err)
	}
	const commits = 33
	for i := 1; i <= commits; i++ {
		if err := e.Exec(int64(i), map[string]value.Value{"a": value.NewInt(int64(i))}, event.New("tick")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	rec := e2.Recovery()
	if rec.SnapshotLSN == 0 {
		t.Fatal("no snapshot was taken in 33 commits with SnapshotEvery=5")
	}
	if rec.ReplayedRecords >= cfg.SnapshotEvery {
		t.Fatalf("replayed %d records, want fewer than SnapshotEvery=%d", rec.ReplayedRecords, cfg.SnapshotEvery)
	}
	if got := len(e2.Firings()); got != commits {
		t.Fatalf("recovered %d firings, want %d", got, commits)
	}
	if e2.Now() != commits {
		t.Fatalf("recovered clock %d, want %d", e2.Now(), commits)
	}
}

// TestRestoreTornTail is the adb-level torn-write test: a crash mid-append
// leaves a torn final record; Restore truncates it, reports the recovery
// point and comes up as the engine that never saw that operation.
func TestRestoreTornTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Initial:    map[string]value.Value{"a": value.NewInt(0)},
		Durability: DurabilityWAL,
		NoFsync:    true,
	}
	e, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddTrigger("r", `@tick`, nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := e.Exec(int64(i), map[string]value.Value{"a": value.NewInt(int64(i))}, event.New("tick")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "wal.000001")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	e2, err := Restore(cfg, dir)
	if err != nil {
		t.Fatalf("torn tail must recover, got %v", err)
	}
	defer e2.Close()
	rec := e2.Recovery()
	if rec.TruncatedAt < 0 {
		t.Fatal("recovery did not report the truncation point")
	}
	if e2.Now() != 4 {
		t.Fatalf("recovered clock %d, want 4 (the torn commit is gone)", e2.Now())
	}
	if len(e2.Firings()) != 4 {
		t.Fatalf("recovered %d firings, want 4", len(e2.Firings()))
	}
	if v, _ := e2.DB().Get("a"); v.AsInt() != 4 {
		t.Fatalf("recovered a = %v, want 4", v)
	}
}

// TestRecoveryWithActionCascade checks that cascade-derived operations are
// not logged and are re-derived by replay: a trigger whose action commits
// a follow-up transaction recovers to the uninterrupted engine, including
// the executed-predicate log.
func TestRecoveryWithActionCascade(t *testing.T) {
	bump := func(ctx *ActionContext) error {
		n, _ := ctx.DB().Get("n")
		return ctx.Exec(map[string]value.Value{"n": value.NewInt(n.AsInt() + 1)})
	}
	run := func(e *Engine) {
		t.Helper()
		if err := e.AddTrigger("bump", `@bump`, bump); err != nil {
			t.Fatal(err)
		}
		for _, ts := range []int64{10, 20, 30} {
			if err := e.Emit(ts, event.New("bump")); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref := NewEngine(Config{Initial: map[string]value.Value{"n": value.NewInt(0)}})
	run(ref)

	dir := t.TempDir()
	cfg := Config{
		Initial:    map[string]value.Value{"n": value.NewInt(0)},
		Durability: DurabilityWAL,
		NoFsync:    true,
		Actions:    map[string]Action{"bump": bump},
	}
	e, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	run(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if n, _ := e2.DB().Get("n"); n.AsInt() != 3 {
		t.Fatalf("recovered n = %v, want 3", n)
	}
	if ref.Now() != e2.Now() {
		t.Fatalf("clocks diverge: %d vs %d", ref.Now(), e2.Now())
	}
	if !firingsEqual(ref.Firings(), e2.Firings()) {
		t.Fatalf("firings diverge: %v vs %v", ref.Firings(), e2.Firings())
	}
	want := ref.Executions("bump", 1<<40)
	got := e2.Executions("bump", 1<<40)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("executed log diverges: %v vs %v", want, got)
	}
	// The recovered engine keeps cascading.
	if err := e2.Emit(40, event.New("bump")); err != nil {
		t.Fatal(err)
	}
	if n, _ := e2.DB().Get("n"); n.AsInt() != 4 {
		t.Fatalf("post-recovery cascade: n = %v, want 4", n)
	}
}

// flakyAction fails while item "bad" is 1 and otherwise bumps "n" —
// deterministic over the database, so replay re-derives the same failure
// pattern.
func flakyAction(ctx *ActionContext) error {
	if v, _ := ctx.DB().Get("bad"); v.AsInt() == 1 {
		return errors.New("downstream unavailable")
	}
	n, _ := ctx.DB().Get("n")
	return ctx.Exec(map[string]value.Value{"n": value.NewInt(n.AsInt() + 1)})
}

// TestRecoveryPreservesRuleHealth pins that rule health is part of the
// snapshot: after a checkpoint covers the failures that quarantined a
// rule, recovery replays zero records — so the quarantine, the failure
// counters and the forensic record must come from the snapshot itself,
// and the recovered engine must keep suppressing the action.
func TestRecoveryPreservesRuleHealth(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Initial:         map[string]value.Value{"bad": value.NewInt(1), "n": value.NewInt(0)},
		Durability:      DurabilityWAL,
		NoFsync:         true,
		MaxRuleFailures: 2,
		Actions:         map[string]Action{"flaky": flakyAction},
	}
	e, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddTrigger("flaky", `@hit`, flakyAction); err != nil {
		t.Fatal(err)
	}
	for _, ts := range []int64{1, 2} { // two failures: the breaker trips
		if err := e.Emit(ts, event.New("hit")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if rec := e2.Recovery(); rec.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records, want 0 — health must come from the snapshot", rec.ReplayedRecords)
	}
	h, ok := e2.RuleHealth("flaky")
	if !ok {
		t.Fatal("no health for rule flaky")
	}
	if !h.Quarantined || h.ConsecutiveFailures != 2 || h.TotalFailures != 2 || h.LastFailureAt != 2 {
		t.Fatalf("recovered health = %+v, want quarantined with 2/2 failures at t=2", h)
	}
	if h.LastError == nil || h.LastError.Error() != "downstream unavailable" {
		t.Fatalf("recovered LastError = %v, want the forensic text", h.LastError)
	}
	if got := e2.QuarantinedRules(); len(got) != 1 || got[0] != "flaky" {
		t.Fatalf("QuarantinedRules = %v, want [flaky]", got)
	}
	// The quarantine keeps suppressing post-recovery: even with the
	// downstream healthy again, the action must not run.
	if err := e2.Exec(3, map[string]value.Value{"bad": value.NewInt(0)}, event.New("hit")); err != nil {
		t.Fatal(err)
	}
	if n, _ := e2.DB().Get("n"); n.AsInt() != 0 {
		t.Fatalf("quarantined action ran after recovery: n = %v", n)
	}
}

// TestReviveReplayed pins that ReviveRule is WAL-logged: replay re-trips
// the quarantine at the same point, then the revive record lifts it at
// the same point, so actions that ran after the original revive run
// during replay too.
func TestReviveReplayed(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Initial:         map[string]value.Value{"bad": value.NewInt(1), "n": value.NewInt(0)},
		Durability:      DurabilityWAL,
		NoFsync:         true,
		MaxRuleFailures: 2,
		Actions:         map[string]Action{"flaky": flakyAction},
	}
	e, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddTrigger("flaky", `@hit`, flakyAction); err != nil {
		t.Fatal(err)
	}
	for _, ts := range []int64{1, 2} { // two failures: the breaker trips
		if err := e.Emit(ts, event.New("hit")); err != nil {
			t.Fatal(err)
		}
	}
	// Downstream healthy again, but the firing at t=3 is still suppressed.
	if err := e.Exec(3, map[string]value.Value{"bad": value.NewInt(0)}, event.New("hit")); err != nil {
		t.Fatal(err)
	}
	if err := e.ReviveRule("flaky"); err != nil {
		t.Fatal(err)
	}
	if err := e.Emit(4, event.New("hit")); err != nil { // action runs: n=1
		t.Fatal(err)
	}
	if n, _ := e.DB().Get("n"); n.AsInt() != 1 {
		t.Fatalf("n = %v before crash, want 1", n)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	// Without the revive record, replay would keep the rule quarantined at
	// t=4 and n would recover as 0.
	if n, _ := e2.DB().Get("n"); n.AsInt() != 1 {
		t.Fatalf("recovered n = %v, want 1 — the revive was not replayed", n)
	}
	h, _ := e2.RuleHealth("flaky")
	if h.Quarantined || h.ConsecutiveFailures != 0 || h.TotalFailures != 2 {
		t.Fatalf("recovered health = %+v, want revived with lifetime total 2", h)
	}
	// The recovered engine keeps running the action. (The revived action's
	// own cascade committed at t=5, so the next external instant is 6.)
	if err := e2.Emit(6, event.New("hit")); err != nil {
		t.Fatal(err)
	}
	if n, _ := e2.DB().Get("n"); n.AsInt() != 2 {
		t.Fatalf("post-recovery n = %v, want 2", n)
	}
}

// TestNewEngineRejectsDurability pins the construction contract: durable
// engines come from Restore only.
func TestNewEngineRejectsDurability(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEngine with Durability set: want panic")
		}
	}()
	NewEngine(Config{Durability: DurabilityWAL})
}

// TestSaveSnapshotRestoresThroughWriter checks Engine.SaveSnapshot against
// a plain writer plus Checkpoint on a durable engine.
func TestCheckpointAndManualSave(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Initial:    map[string]value.Value{"a": value.NewInt(1)},
		Durability: DurabilityWAL,
		NoFsync:    true,
	}
	e, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddTrigger("r", `@tick since item("a") > 2`, nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 7; i++ {
		if err := e.Exec(int64(i), map[string]value.Value{"a": value.NewInt(int64(i))}, event.New("tick")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if e.walSince != 0 {
		t.Fatalf("walSince = %d after Checkpoint, want 0", e.walSince)
	}
	// Two more commits after the checkpoint: recovery must replay exactly
	// those.
	for i := 8; i <= 9; i++ {
		if err := e.Exec(int64(i), map[string]value.Value{"a": value.NewInt(int64(i))}, event.New("tick")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	rec := e2.Recovery()
	if rec.SnapshotLSN == 0 || rec.ReplayedRecords != 2 {
		t.Fatalf("recovery = %+v, want snapshot plus 2 replayed records", rec)
	}
	if e2.Now() != 9 {
		t.Fatalf("clock %d, want 9", e2.Now())
	}
	// Point-in-time reads answer for instants at or after the compaction
	// horizon the checkpoint established (earlier states are discarded by
	// Compact, same as on a memory engine).
	if v, ok := e2.ItemAsOf("a", 8); !ok || v.AsInt() != 8 {
		t.Fatalf("ItemAsOf(a, 8) = %v,%t, want 8", v, ok)
	}
	// Memory engines can still snapshot to a writer.
	mem := NewEngine(Config{Initial: map[string]value.Value{"x": value.NewInt(1)}})
	var sink nopWriter
	if err := mem.SaveSnapshot(&sink); err != nil {
		t.Fatalf("SaveSnapshot on memory engine: %v", err)
	}
}

type nopWriter struct{ n int }

func (w *nopWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
