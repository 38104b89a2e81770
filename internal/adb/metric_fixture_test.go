package adb

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ptlactive/internal/core"
	"ptlactive/internal/value"
)

// metricFixtureDir holds a data directory (a checkpoint and a WAL tail)
// written by the commit before bounded operators, captured values and
// windowed aggregates stepped on the fast path: every rule's state in it is
// a general evaluator's constraint graph. ADB_WRITE_METRIC_FIXTURE=1 go
// test -run TestRestoreGeneralMetricFixture ./internal/adb rewrites it, and
// is to be run at that commit only.
const metricFixtureDir = "testdata/metric_general"

// metricCut is how many of metricOps the fixture directory holds.
const metricCut = 43

// metricOps is the fixture's trace: a price that wanders around 100, dips
// under half of it every thirteenth commit and comes back, with a poke
// event every third commit.
func metricOps() []compatOp {
	var ops []compatOp
	for i := int64(1); i <= 60; i++ {
		px := float64(90 + (i*37)%23)
		if i%13 == 5 {
			px = 41
		}
		ops = append(ops, compatOp{ts: 3 * i, set: map[string]value.Value{"px": value.NewFloat(px)}, poke: i%3 == 0})
	}
	return ops
}

// metricRules are the paper's doubled-within-10 trigger, the same without
// its bound, a windowed sum and a bounded throughout.
var metricRules = []struct{ name, cond string }{
	{"doubled", `[t <- time] [x <- item("px")] previously (item("px") <= 0.5 * x and time >= t - 10)`},
	{"doubled_ever", `[x <- item("px")] previously (item("px") <= 0.5 * x)`},
	{"volume", `sum(item("px"); window 20; @poke) > 300 and @poke`},
	{"calm", `throughout <= 6 item("px") > 50`},
}

func metricEngine(t *testing.T, cfg Config, dir string) *Engine {
	t.Helper()
	var e *Engine
	if dir == "" {
		e = NewEngine(cfg)
	} else {
		var err error
		if e, err = Restore(cfg, dir); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range metricRules {
		if err := e.AddTrigger(r.name, r.cond, nil); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestRestoreGeneralMetricFixture: the fixture's snapshot holds constraint
// graphs, and the encoded kind picks the evaluator each rule resumes on.
// The bounded doubled rule's clauses, the bounded throughout's and the
// windowed sum's constant registers become fast registers; the unbounded
// doubled rule's graph cannot, so the general evaluator resumes it. Either
// way the restored engine fires, commit for commit, as a memory engine fed
// the same operations, over the rest of the trace.
func TestRestoreGeneralMetricFixture(t *testing.T) {
	ops := metricOps()
	cfg := Config{Initial: map[string]value.Value{"px": value.NewFloat(100)}}
	durable := cfg
	durable.Durability, durable.SnapshotEvery, durable.NoFsync = DurabilitySnapshot, 8, true
	if os.Getenv("ADB_WRITE_METRIC_FIXTURE") != "" {
		if err := os.RemoveAll(metricFixtureDir); err != nil {
			t.Fatal(err)
		}
		e := metricEngine(t, durable, metricFixtureDir)
		for _, op := range ops[:metricCut] {
			applyCompat(t, e, op)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	ents, err := os.ReadDir(metricFixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(metricFixtureDir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Ext(ent.Name()) == ".snap" && (bytes.Contains(data, []byte(`"kind":"fast"`)) || !bytes.Contains(data, []byte(`"kind":"general"`))) {
			t.Fatalf("%s holds fast-kind evaluator state", ent.Name())
		}
		if err := os.WriteFile(filepath.Join(dir, ent.Name()), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}

	mem := metricEngine(t, cfg, "")
	for _, op := range ops[:metricCut] {
		applyCompat(t, mem, op)
	}
	e, err := Restore(durable, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if rec := e.Recovery(); len(rec.ReplayErrors) != 0 || rec.SnapshotLSN == 0 || rec.ReplayedRecords == 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	for _, r := range metricRules {
		_, general := e.index[r.name].ev.(*core.Evaluator)
		if general != (r.name == "doubled_ever") {
			t.Fatalf("rule %s resumed on %T", r.name, e.index[r.name].ev)
		}
	}
	fired := map[string]int{}
	for i := metricCut; i <= len(ops); i++ {
		if !firingsEqual(e.Firings(), mem.Firings()) || !e.DB().Equal(mem.DB()) || e.EvalSteps() != mem.EvalSteps() {
			t.Fatalf("after op %d: firings\n got %v\nwant %v", i, e.Firings(), mem.Firings())
		}
		if i < len(ops) {
			applyCompat(t, mem, ops[i])
			applyCompat(t, e, ops[i])
		}
	}
	for _, f := range mem.Firings() {
		if f.Time > ops[metricCut-1].ts {
			fired[f.Rule]++
		}
	}
	for _, r := range metricRules {
		if fired[r.name] == 0 {
			t.Fatalf("rule %s does not fire after the cut: %v", r.name, fired)
		}
	}
}
