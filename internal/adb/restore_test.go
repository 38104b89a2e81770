package adb

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ptlactive/internal/persist"
	"ptlactive/internal/value"
)

// TestAbandonedEngineRecoversAcknowledged: every append is written
// before the operation returns, so an engine abandoned without Close (the
// crash model) recovers every operation it acknowledged.
func TestAbandonedEngineRecoversAcknowledged(t *testing.T) {
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
	e1, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	p.register(t, e1)
	for _, op := range ops {
		applyOp(t, e1, op)
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
		t.Fatalf("firings diverge after recovery:\n ref (%d)\n got (%d)",
			len(ref.Firings()), len(e2.Firings()))
	}
	if ref.Now() != e2.Now() || !ref.DB().Equal(e2.DB()) {
		t.Fatal("state diverges after recovery")
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

// TestPreTextLogRefused: rules are logged as their printed condition
// ("text"). A log from before that carries a JSON AST under "cond", and
// there is no migrator and no second reader, so Restore refuses it, naming
// the record. The fixture is such a log: written by the last commit whose
// init record carried the nofast/noindex flags, its second frame is the
// addrule of rule "high". Refused, never truncated: when that addrule is
// the final frame, it still decodes as a frame, so the store does not take
// it for a torn tail and drop the rule without a sound.
func TestPreTextLogRefused(t *testing.T) {
	const fixture = "testdata/wal_nofast_noindex/wal.000001"
	raw, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	recs, offs, err := persist.ParseFrames(raw)
	if err != nil {
		t.Fatal(err)
	}
	if recs[1].Kind != persist.KindAddRule || recs[1].Name != "high" || recs[1].Text != "" ||
		!bytes.Contains(raw[offs[1]:offs[2]], []byte(`"cond":{`)) {
		t.Fatalf("%s: frame 2 is not an AST-form addrule: %+v", fixture, recs[1])
	}
	for name, c := range map[string]struct {
		log    []byte
		frames int
	}{
		"whole log":    {raw, len(recs)},
		"addrule last": {raw[:offs[2]], 2},
	} {
		log := c.log
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.000001")
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := Restore(Config{NoFsync: true}, dir)
		if err == nil {
			e.Close()
			t.Fatalf("%s: a pre-text log restored", name)
		}
		if msg := err.Error(); !strings.Contains(msg, "LSN 2") || !strings.Contains(msg, "predates text conditions") {
			t.Fatalf("%s: error %q does not name LSN 2 as predating text conditions", name, msg)
		}
		st, res, err := persist.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
		if res.TruncatedAt != -1 || len(res.Tail) != c.frames {
			t.Fatalf("%s: store truncated at %d and kept %d of %d records", name, res.TruncatedAt, len(res.Tail), c.frames)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, log) {
			t.Fatalf("%s: refusing the log changed its bytes (%d to %d)", name, len(log), len(after))
		}
	}
}

// TestPreTextSnapshotRefused: a snapshot rule entry from before rules were
// stored as text carries only its "cond" AST, and restore refuses it,
// naming the rule.
func TestPreTextSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{NoFsync: true, Initial: map[string]value.Value{"a": value.NewInt(0)}}
	e, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddTrigger("high", `item("a") > 5`, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(1, map[string]value.Value{"a": value.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots %v (%v)", snaps, err)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	var env persist.Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	// The entry as written before conditions were text: the same rule, its
	// condition as a JSON AST under "cond".
	text := regexp.MustCompile(`"text":"(?:[^"\\]|\\.)*"`)
	if n := len(text.FindAll(env.Payload, -1)); n != 1 {
		t.Fatalf("%d rule texts in the snapshot, want 1", n)
	}
	env.Payload = text.ReplaceAll(env.Payload, []byte(`"cond":{"k":"cmp","op":4,"l":{"k":"call","name":"item","args":[{"k":"const","v":{"str":"a"}}]},"r":{"k":"const","v":{"int":5}}}`))
	env.CRC = crc32.ChecksumIEEE(env.Payload)
	blob, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snaps[0], append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err = Restore(cfg, dir)
	if err == nil {
		e.Close()
		t.Fatal("a snapshot with a pre-text rule entry restored")
	}
	if msg := err.Error(); !strings.Contains(msg, "snapshot rule high") || !strings.Contains(msg, "predates text conditions") {
		t.Fatalf("error %q does not name rule high as predating text conditions", msg)
	}
}
