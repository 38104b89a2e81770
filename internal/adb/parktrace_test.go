package adb

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/persist"
	"ptlactive/internal/value"
)

// parkTrace is a deterministic operation mix built to move rules through
// every transition of the sweep's bookkeeping: on top of randomOps' emits,
// commits, aborts and flushes it registers rules mid-trace, fires an action
// that commits re-entrantly ("act" sets item c, which "qc" reads: a
// quiescent rule that fires, replays its memo across untouched commits and
// then stops) and compacts every few operations. With observer set, an
// OnFiring observer reads the firing log at every firing, whichever rule
// fired, and checks that it ends at the firing it is told about. A durable
// engine is checkpointed, closed and restored mid-trace.
type parkTrace struct {
	p        engineParams
	ops      []engineOp
	observer bool
}

func newParkTrace(seed int64, rules, states int, withConstraints, observer, fixpoint bool) parkTrace {
	return parkTrace{
		p:        randomIndexParams(seed, rules, withConstraints, fixpoint),
		ops:      randomOps(seed*31, rules, states, 0),
		observer: observer,
	}
}

func parkAction(ctx *ActionContext) error {
	return ctx.Exec(map[string]value.Value{"c": value.NewInt(ctx.FiredAt % 7)})
}

func (tr parkTrace) config() Config {
	cfg := tr.p.config()
	cfg.Initial["c"] = value.NewInt(0)
	cfg.Initial["d"] = value.NewInt(0)
	cfg.Actions = map[string]Action{"act": parkAction}
	return cfg
}

func mustAdd(t *testing.T, e *Engine, name, cond string, action Action) {
	t.Helper()
	if err := e.AddTrigger(name, cond, action, WithScheduling(Relevant)); err != nil {
		t.Fatalf("AddTrigger %s: %v", name, err)
	}
}

// run drives the trace. reopen, when set, is called after every operation
// with its index and may hand back a restored engine; run returns the
// engine the trace ended on.
func (tr parkTrace) run(t *testing.T, e *Engine, reopen func(e *Engine, i int) *Engine) *Engine {
	t.Helper()
	tr.p.register(t, e)
	mustAdd(t, e, "act", `@go and item("a") >= 0`, parkAction)
	mustAdd(t, e, "qc", `item("c") > 3`, nil)
	mustAdd(t, e, "qd", `item("d") > 0`, nil)
	if tr.observer {
		e.OnFiring(func(f Firing) {
			if _, last := e.FiringsFrom(e.FiringCount() - 1); len(last) != 1 || !reflect.DeepEqual(last[0], f) {
				t.Errorf("observer told of %v, but the log ends at %v", f, last)
			}
		})
	}
	emit := func(name string) {
		if err := e.Emit(e.Now()+1, event.New(name)); err != nil {
			t.Fatalf("Emit %s: %v", name, err)
		}
	}
	// spread leaves the cursors spread out, for whoever snapshots or compares
	// them next: a state that wakes the rules gated on ev0, then one no rule
	// listens to. Eager rules end at the newest state, the woken gated rules
	// one behind, the rest at their last commit, manual ones at the last
	// Flush.
	spread := func() {
		emit("ev0")
		emit("noise")
	}
	for i, op := range tr.ops {
		// Actions commit at now+1, so the trace takes its timestamps from
		// the engine's clock rather than from randomOps.
		op.ts = e.Now() + 1 + int64(i%3)
		applyOp(t, e, op)
		switch i % 5 {
		case 1:
			emit("go")
		case 3:
			emit("ping")
		case 4:
			applyOp(t, e, engineOp{
				kind:   opExec,
				ts:     e.Now() + 1,
				upd:    map[string]value.Value{"b": value.NewInt(int64(i % 60))},
				events: []event.Event{event.New("go")},
			})
		}
		if i%11 == 10 {
			e.Compact()
		}
		if i == len(tr.ops)/3 {
			mustAdd(t, e, "late_q", `item("b") > 20`, nil)
			mustAdd(t, e, "late_g", `@ev0 and item("b") > 1`, nil)
			mustAdd(t, e, "late_t", `previously item("a") > 10`, nil)
			if err := e.AddConstraint("late_c", `not (item("b") > 57)`); err != nil {
				t.Fatalf("AddConstraint: %v", err)
			}
			mustAdd(t, e, "zz_obs", `@ping and item("a") >= 0`, nil)
		}
		if i == len(tr.ops)/2 {
			spread()
		}
		if reopen != nil {
			e = reopen(e, i)
		}
	}
	spread()
	return e
}

// runDurable drives the trace on a durable engine in dir: a checkpoint a
// few operations before the midpoint, then at the midpoint a SaveSnapshot,
// Close and Restore (snapshot plus a WAL tail), and a SaveSnapshot at the
// end. It returns the final engine and the two snapshot encodings.
func (tr parkTrace) runDurable(t *testing.T, dir string) (e *Engine, mid, end []byte) {
	t.Helper()
	cfg := tr.config()
	cfg.Durability = DurabilityWAL
	cfg.NoFsync = true
	e, err := Restore(cfg, dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	save := func(e *Engine) []byte {
		var buf bytes.Buffer
		if err := e.SaveSnapshot(&buf); err != nil {
			t.Fatalf("SaveSnapshot: %v", err)
		}
		return buf.Bytes()
	}
	half := len(tr.ops) / 2
	e = tr.run(t, e, func(e *Engine, i int) *Engine {
		switch i {
		case half - 4:
			if err := e.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		case half:
			mid = save(e)
			if err := e.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if e, err = Restore(cfg, dir); err != nil {
				t.Fatalf("Restore mid-trace: %v", err)
			}
		}
		return e
	})
	return e, mid, save(e)
}

// parkFixture is the one trace whose snapshot bytes are pinned: to the
// encoding the commit before wake lists and the parked cursor produced, but
// for the step counter and the rule conditions' form (see
// TestParkFixtureMovedStepsOnly).
func parkFixture() parkTrace { return newParkTrace(7100, 9, 90, true, false, false) }

const parkFixtureDir = "testdata/park_trace"

// TestParkTraceFixture checks the durable twin of the fixture trace against
// testdata/park_trace/{mid,end}.snap. The files
// were first written by the parent commit of the wake-list sweep running
// this same file (ADB_WRITE_PARK_FIXTURE=1 go test -run TestParkTraceFixture)
// and rewritten twice since: when constraints stopped stepping an accepted
// commit twice, and when rule conditions began to be stored as text.
// Cursors, memos, step counter and firing log are all in the snapshot, so
// byte equality pins every one of them. The files also carry the two
// sections of a deleted second copy of history (the init record's "track"
// and the "tracked" auxiliary-relation rows) and the executions of rules
// without an action; the comparison is against the files with those cut
// out (withoutTracked), and the files themselves, decoded and restored as
// they are, must re-encode to the same bytes.
func TestParkTraceFixture(t *testing.T) {
	tr := parkFixture()
	e, mid, end := tr.runDurable(t, t.TempDir())
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{"mid.snap": mid, "end.snap": end} {
		path := filepath.Join(parkFixtureDir, name)
		if os.Getenv("ADB_WRITE_PARK_FIXTURE") != "" {
			if err := os.MkdirAll(parkFixtureDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		old, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := withoutTracked(t, old)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: snapshot bytes differ from the parent's encoding (%d vs %d bytes)%s",
				name, len(got), len(want), firstDiff(got, want))
		}
		snap, err := persist.DecodeSnapshot(bytes.NewReader(old))
		if err != nil {
			t.Fatal(err)
		}
		restored, err := engineFromSnapshot(tr.config(), snap)
		if err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		again, err := restored.buildSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		again.LSN = snap.LSN // a restored engine without a store has none
		var buf bytes.Buffer
		if err := persist.EncodeSnapshot(&buf, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s restored and re-encoded differs%s", name, firstDiff(buf.Bytes(), want))
		}
	}
}

// withoutTracked cuts from a fixture snapshot what the engine no longer
// writes: the init record's "track" list, the trailing "tracked" section,
// and the executions of every rule but "act", the trace's one rule with an
// action (the files were written when each firing of an action-less rule
// was also logged as an execution). Each section must occur exactly once;
// the kept executions are re-encoded as the engine encodes them, and the
// envelope is re-sealed with the checksum of the cut payload.
func withoutTracked(t *testing.T, data []byte) []byte {
	t.Helper()
	var env persist.Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	payload := env.Payload
	for _, cut := range []*regexp.Regexp{
		regexp.MustCompile(`,"track":\[[^\]]*\]`),
		regexp.MustCompile(`,"tracked":\[.*\]\}$`),
	} {
		if n := len(cut.FindAll(payload, -1)); n != 1 {
			t.Fatalf("fixture has %d matches of %s, want 1", n, cut)
		}
		payload = cut.ReplaceAllFunc(payload, func(m []byte) []byte {
			if m[len(m)-1] == '}' {
				return []byte("}")
			}
			return nil
		})
	}
	var sec struct {
		Execs json.RawMessage `json:"execs"`
	}
	if err := json.Unmarshal(payload, &sec); err != nil {
		t.Fatal(err)
	}
	var execs, kept []persist.ExecutionSnapshot
	if err := json.Unmarshal(sec.Execs, &execs); err != nil {
		t.Fatal(err)
	}
	for _, ex := range execs {
		if ex.Rule == "act" {
			kept = append(kept, ex)
		}
	}
	raw, err := json.Marshal(kept)
	if err != nil || len(kept) == 0 {
		t.Fatalf("fixture keeps %d of %d executions: %v", len(kept), len(execs), err)
	}
	section := append([]byte(`"execs":`), sec.Execs...)
	if n := bytes.Count(payload, section); n != 1 {
		t.Fatalf("fixture has %d execs sections, want 1", n)
	}
	payload = bytes.Replace(payload, section, append([]byte(`"execs":`), raw...), 1)
	var buf bytes.Buffer
	if err := persist.WriteEnvelope(&buf, persist.SnapshotKind, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParkFixtureMovedStepsOnly ties the fixture to the one the rule-table
// scan wrote. Two things have moved since. A constraint used to cost two
// steps per accepted commit (a clone's, then the sweep's over the same
// state) and costs one. And each rule's condition, once a JSON AST under
// "cond", is now its printed text under "text"; decoding every old "cond"
// gave exactly the new "text", for all 19 rules of both files. Put the old
// counter back and drop the conditions, and the payload must hash to the
// scan-era payload with its "cond" objects dropped.
func TestParkFixtureMovedStepsOnly(t *testing.T) {
	condText := regexp.MustCompile(`"text":"(?:[^"\\]|\\.)*",`)
	for name, old := range map[string]struct {
		now, was int
		sha256   string
	}{
		"mid.snap": {832, 926, "46af76111040119be77fc9406cb9326ed471a0a8e9df68067a7243534478f14b"},
		"end.snap": {1726, 1931, "a8f17e7d8bf80d0e8cc8bfee9cbf2ffb17531c3d6a7c9f0785fb67e3a08be505"},
	} {
		data, err := os.ReadFile(filepath.Join(parkFixtureDir, name))
		if err != nil {
			t.Fatal(err)
		}
		var env persist.Envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		now, was := fmt.Sprintf(`"evalSteps":%d,`, old.now), fmt.Sprintf(`"evalSteps":%d,`, old.was)
		if bytes.Count(env.Payload, []byte(now)) != 1 {
			t.Fatalf("%s: want exactly one %s", name, now)
		}
		payload := bytes.Replace(env.Payload, []byte(now), []byte(was), 1)
		if n := len(condText.FindAll(payload, -1)); n != 19 {
			t.Fatalf("%s: %d rule conditions, want 19", name, n)
		}
		payload = condText.ReplaceAll(payload, nil)
		if got := fmt.Sprintf("%x", sha256.Sum256(payload)); got != old.sha256 {
			t.Fatalf("%s differs from the scan-era fixture in more than evalSteps and the rule conditions (sha256 %s, want %s)", name, got, old.sha256)
		}
	}
}

func firstDiff(a, b []byte) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			lo, hi := max(0, i-60), i+60
			return fmt.Sprintf("\n at byte %d:\n got  ...%s\n want ...%s", i, a[lo:min(hi, len(a))], b[lo:min(hi, len(b))])
		}
	}
	return ""
}
