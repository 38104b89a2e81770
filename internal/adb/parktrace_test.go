package adb

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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
// then stops), compacts every few operations and — on memory engines —
// lets an OnFiring observer commit from inside the merge. The observed rule
// is registered last, so every other outcome of the sweep is merged before
// the observer's nested commit starts (observers are documented not to
// mutate; the trace only guards that a nested sweep finds the engine
// consistent). A durable engine is checkpointed, closed and restored
// mid-trace.
type parkTrace struct {
	p        engineParams
	ops      []engineOp
	observer bool
}

func newParkTrace(seed int64, rules, states int, withConstraints, observer bool) parkTrace {
	return parkTrace{
		p:        randomIndexParams(seed, rules, withConstraints),
		ops:      randomOps(seed*31, rules, states, 0),
		observer: observer,
	}
}

func parkAction(ctx *ActionContext) error {
	return ctx.Exec(map[string]value.Value{"c": value.NewInt(ctx.FiredAt % 7)})
}

func (tr parkTrace) config(workers int) Config {
	cfg := tr.p.config(workers)
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
			if f.Rule != "zz_obs" {
				return
			}
			if err := e.Exec(e.Now()+1, map[string]value.Value{"d": value.NewInt(f.Time % 3)}); err != nil {
				t.Errorf("observer commit: %v", err)
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
		// Actions and the observer commit at now+1, so the trace takes its
		// timestamps from the engine's clock rather than from randomOps.
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
func (tr parkTrace) runDurable(t *testing.T, workers int, dir string) (e *Engine, mid, end []byte) {
	t.Helper()
	cfg := tr.config(workers)
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
// for the step counter (see TestParkFixtureMovedStepsOnly).
func parkFixture() parkTrace { return newParkTrace(7100, 9, 90, true, false) }

const parkFixtureDir = "testdata/park_trace"

// TestParkTraceFixture checks the durable twin of the fixture trace against
// testdata/park_trace/{mid,end}.snap at one worker and at four. The files
// were first written by the parent commit of the wake-list sweep running
// this same file (ADB_WRITE_PARK_FIXTURE=1 go test -run TestParkTraceFixture)
// and rewritten once since, when constraints stopped stepping an accepted
// commit twice: cursors, memos, step counter and firing log are all in the
// snapshot, so byte equality pins every one of them.
func TestParkTraceFixture(t *testing.T) {
	tr := parkFixture()
	for _, workers := range []int{1, 4} {
		e, mid, end := tr.runDurable(t, workers, t.TempDir())
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string][]byte{"mid.snap": mid, "end.snap": end} {
			path := filepath.Join(parkFixtureDir, name)
			if os.Getenv("ADB_WRITE_PARK_FIXTURE") != "" && workers == 1 {
				if err := os.MkdirAll(parkFixtureDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("workers=%d: %s: snapshot bytes differ from the parent's encoding (%d vs %d bytes)%s",
					workers, name, len(got), len(want), firstDiff(got, want))
			}
		}
	}
}

// TestParkFixtureMovedStepsOnly ties the rewritten fixture to the one the
// rule-table scan wrote. A constraint used to cost two steps per accepted
// commit (a clone's, then the sweep's over the same state) and costs one;
// nothing else the snapshot holds may have moved. Put the old counter back,
// redo the envelope checksum over it, and the file must hash to the old one.
func TestParkFixtureMovedStepsOnly(t *testing.T) {
	for name, old := range map[string]struct {
		now, was int
		sha256   string
	}{
		"mid.snap": {832, 926, "b4c5c8664240ad8d86e17eb60b2e28d559308898749e841d8922005f8b86ea7f"},
		"end.snap": {1726, 1931, "7a9757d29bb97ecd34cce6b92af48e34a0cb0dfe23c19009f4efc749b9ecd471"},
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
		env.Payload = bytes.Replace(env.Payload, []byte(now), []byte(was), 1)
		env.CRC = crc32.ChecksumIEEE(env.Payload)
		blob, err := json.Marshal(&env)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(append(blob, '\n'))); got != old.sha256 {
			t.Fatalf("%s differs from the parent's fixture in more than evalSteps and crc (sha256 %s, want %s)", name, got, old.sha256)
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
