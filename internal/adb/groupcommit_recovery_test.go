package adb

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/value"
)

// TestGroupCommitSyncWALDurability: with group commit, an engine that
// calls SyncWAL and is then abandoned (no Close — the crash model)
// recovers the complete run, part-full batch included.
func TestGroupCommitSyncWALDurability(t *testing.T) {
	const seed, rules, states = 8100, 5, 40
	p := randomEngineParams(seed, rules, true)
	ops := randomOps(seed*31, rules, states, 0)

	ref := NewEngine(p.config(1))
	p.register(t, ref)
	for _, op := range ops {
		applyOp(t, ref, op)
	}

	dir := t.TempDir()
	cfg := p.config(1)
	cfg.Durability = DurabilityWAL
	cfg.NoFsync = true
	cfg.GroupCommit = 8
	e1, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	p.register(t, e1)
	for _, op := range ops {
		applyOp(t, e1, op)
	}
	if err := e1.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	// Crash: abandon e1 without Close.

	e2, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if len(e2.Recovery().ReplayErrors) != 0 {
		t.Fatalf("replay errors: %v", e2.Recovery().ReplayErrors)
	}
	if !firingsEqual(ref.Firings(), e2.Firings()) {
		t.Fatalf("firings diverge after group-commit recovery:\n ref (%d)\n got (%d)",
			len(ref.Firings()), len(e2.Firings()))
	}
	if ref.Now() != e2.Now() || !ref.DB().Equal(e2.DB()) {
		t.Fatal("state diverges after group-commit recovery")
	}
}

// TestGroupCommitCrashPrefix: without a final sync, a crash loses at most
// the buffered batch suffix; the recovered engine must be exactly the
// engine that ran the flushed prefix of commits. Every operation here
// logs one WAL record, so the flush boundary is computable.
func TestGroupCommitCrashPrefix(t *testing.T) {
	const group = 4
	const commits = 9 // setup logs 2 records (init + rule): 11 total, 8 flushed
	mkRef := func(n int) *Engine {
		e := NewEngine(Config{Initial: map[string]value.Value{"a": value.NewInt(0)}})
		if err := e.AddTrigger("r", `item("a") > 5`, nil, WithScheduling(Relevant)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := e.Exec(int64(i+1), map[string]value.Value{"a": value.NewInt(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}

	dir := t.TempDir()
	cfg := Config{
		Initial:     map[string]value.Value{"a": value.NewInt(0)},
		Durability:  DurabilityWAL,
		NoFsync:     true,
		GroupCommit: group,
	}
	e1, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.AddTrigger("r", `item("a") > 5`, nil, WithScheduling(Relevant)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < commits; i++ {
		if err := e1.Exec(int64(i+1), map[string]value.Value{"a": value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Crash with 3 records buffered (init + rule + 9 commits = 11; two
	// batches of 4 flushed).
	e2, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	flushedCommits := (2+commits)/group*group - 2
	ref := mkRef(flushedCommits)
	if e2.Recovery().ReplayedRecords != flushedCommits+2 { // + init and rule records
		t.Fatalf("replayed %d records, want %d", e2.Recovery().ReplayedRecords, flushedCommits+2)
	}
	if !firingsEqual(ref.Firings(), e2.Firings()) {
		t.Fatalf("prefix firings diverge: ref %v vs recovered %v", ref.Firings(), e2.Firings())
	}
	if ref.Now() != e2.Now() || !ref.DB().Equal(e2.DB()) {
		t.Fatalf("prefix state diverges: now %d vs %d, db %v vs %v", ref.Now(), e2.Now(), ref.DB(), e2.DB())
	}
}

// TestMemoSnapshotRoundTrip: the quiescent-rule memo is part of the
// snapshot, so a restored engine keeps replaying (not re-evaluating)
// untouched rules — pinned by exact EvalSteps equality with an
// uninterrupted engine across a snapshot+restore cut.
func TestMemoSnapshotRoundTrip(t *testing.T) {
	initial := map[string]value.Value{"a": value.NewInt(0), "other": value.NewInt(0)}
	addRules := func(e *Engine) {
		// One quiescent rule with a free-variable binding (the memo must
		// carry bindings, not just the fired bit) and one without.
		if err := e.AddTrigger("bound", `[x <- item("a")] x > 3`, nil, WithScheduling(Relevant)); err != nil {
			t.Fatal(err)
		}
		if err := e.AddTrigger("plain", `item("a") > 10`, nil, WithScheduling(Relevant)); err != nil {
			t.Fatal(err)
		}
	}
	drivePrefix := func(e *Engine) {
		// Fire both rules, then commit only to the unrelated item so the
		// memos are live at the cut.
		if err := e.Exec(1, map[string]value.Value{"a": value.NewInt(20)}); err != nil {
			t.Fatal(err)
		}
		for ts := int64(2); ts <= 4; ts++ {
			if err := e.Exec(ts, map[string]value.Value{"other": value.NewInt(ts)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	driveSuffix := func(e *Engine) {
		for ts := int64(5); ts <= 8; ts++ {
			if err := e.Exec(ts, map[string]value.Value{"other": value.NewInt(ts)}); err != nil {
				t.Fatal(err)
			}
		}
	}

	ref := NewEngine(Config{Initial: initial})
	addRules(ref)
	drivePrefix(ref)
	driveSuffix(ref)

	dir := t.TempDir()
	cfg := Config{
		Initial:    initial,
		Durability: DurabilitySnapshot,
		// Large interval: only the explicit checkpoint writes a snapshot,
		// so recovery restores memo state from it rather than replaying.
		SnapshotEvery: 1000,
		NoFsync:       true,
	}
	e1, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	addRules(e1)
	drivePrefix(e1)
	if err := e1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Recovery().ReplayedRecords != 0 {
		t.Fatalf("expected snapshot-only recovery, replayed %d", e2.Recovery().ReplayedRecords)
	}
	for _, name := range []string{"bound", "plain"} {
		r := e2.index[name]
		if !r.memoValid || !r.memoFired {
			t.Fatalf("rule %s memo not restored: valid=%v fired=%v", name, r.memoValid, r.memoFired)
		}
	}
	if len(e2.index["bound"].memoBindings) != 1 {
		t.Fatalf("bound memo bindings = %v", e2.index["bound"].memoBindings)
	}
	stepsBefore := e2.EvalSteps()
	driveSuffix(e2)
	if !firingsEqual(ref.Firings(), e2.Firings()) {
		t.Fatalf("firings diverge across snapshot cut:\n ref: %v\n got: %v", ref.Firings(), e2.Firings())
	}
	// The restored engine must replay from the memo, spending zero
	// evaluator steps on the suffix — exactly like the uninterrupted one.
	if got := e2.EvalSteps() - stepsBefore; got != 0 {
		t.Fatalf("restored engine re-evaluated %d steps; the memo should cover the suffix", got)
	}
}

// TestOldLogWithAblationFlagsRestores: the init record no longer carries
// the nofast/noindex ablation flags, but logs written while it did must
// still open. The fixture is a WAL written by the last commit that had
// Config.DisableFastPath and DisableReadSetIndex, with both set; it restores
// onto the one engine there now is — fast path, indexed sweep — and yields
// the firing stream that engine produces when driven through the same
// operations live (firings never depended on either flag).
func TestOldLogWithAblationFlagsRestores(t *testing.T) {
	const fixture = "testdata/wal_nofast_noindex/wal.000001"
	raw, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"nofast":true,"noindex":true`)) {
		t.Fatalf("%s does not carry the old flags", fixture)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.000001"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := Restore(Config{NoFsync: true}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if errs := old.Recovery().ReplayErrors; len(errs) != 0 {
		t.Fatalf("replay errors: %v", errs)
	}
	if old.coarse {
		t.Fatal("an old noindex log restored a coarse engine")
	}
	if r := old.index["high"]; r.class != classQuiescent {
		t.Fatalf("restored rule class = %d, want the indexed classification", r.class)
	}

	// The script the fixture was written from.
	live := NewEngine(Config{
		Initial:    map[string]value.Value{"a": value.NewInt(0), "b": value.NewInt(0)},
		TrackItems: []string{"a"},
	})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(live.AddTrigger("high", `item("a") > 5`, nil, WithScheduling(Relevant)))
	must(live.AddTrigger("ping", `@ping and item("b") > 2`, nil, WithScheduling(Relevant)))
	must(live.AddTrigger("rose", `[x <- item("a")] previously <= 6 (item("a") < x)`, nil))
	must(live.AddTrigger("since", `item("b") >= 3 since @ping`, nil, WithScheduling(Relevant)))
	must(live.AddConstraint("cap", `item("a") <= 9`))
	rejected := 0
	for ts := int64(1); ts <= 40; ts++ {
		switch ts % 5 {
		case 0:
			must(live.Emit(ts, event.New("ping")))
		case 3:
			if err := live.Exec(ts, map[string]value.Value{"a": value.NewInt((ts * 3) % 13)}); err != nil {
				if !errors.Is(err, ErrConstraintViolation) {
					t.Fatal(err)
				}
				rejected++
			}
		default:
			must(live.Exec(ts, map[string]value.Value{"b": value.NewInt(ts % 6), "a": value.NewInt(ts % 8)}))
		}
	}
	if rejected == 0 || len(live.Firings()) == 0 {
		t.Fatalf("script exercises nothing: %d rejections, %d firings", rejected, len(live.Firings()))
	}
	if !firingsEqual(live.Firings(), old.Firings()) {
		t.Fatalf("firings diverge:\n live: %v\n old log: %v", live.Firings(), old.Firings())
	}
	if !live.DB().Equal(old.DB()) || live.Now() != old.Now() {
		t.Fatal("database or clock diverge")
	}
	// And the restored engine keeps logging in today's format.
	must(old.Exec(41, map[string]value.Value{"a": value.NewInt(7)}))
}
