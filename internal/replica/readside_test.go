package replica

import (
	"fmt"
	"reflect"
	"testing"

	"ptlactive/internal/adb"
	"ptlactive/internal/event"
	"ptlactive/internal/server"
	"ptlactive/internal/value"
)

// readQueries is every read-side query of a backend, each rendering its
// answer (wire form, error included) as one comparable value.
var readQueries = []struct {
	name string
	ask  func(b server.Backend) any
}{
	{"now", func(b server.Backend) any { return b.Now() }},
	{"items", func(b server.Backend) any { v, err := b.Items(); return []any{v, err} }},
	{"firings from -3", func(b server.Backend) any { v, err := b.Firings(-3); return []any{v, err} }},
	{"firings from 0", func(b server.Backend) any { v, err := b.Firings(0); return []any{v, err} }},
	{"firings from mid", func(b server.Backend) any { v, err := b.Firings(2); return []any{v, err} }},
	{"firings from beyond", func(b server.Backend) any { v, err := b.Firings(1 << 20); return []any{v, err} }},
	{"sync from -3", func(b server.Backend) any { return syncFirings(b, -3) }},
	{"sync from mid", func(b server.Backend) any { return syncFirings(b, 2) }},
	{"sync from beyond", func(b server.Backend) any { return syncFirings(b, 1<<20) }},
	{"rules", func(b server.Backend) any { v, err := b.Rules(); return []any{v, err} }},
	{"health", func(b server.Backend) any { v, deg, err := b.Health(); return []any{v, deg, err} }},
	{"storage", func(b server.Backend) any {
		v, err := b.Storage()
		return []any{v, err}
	}},
}

// shippedBatch is one WAL batch with the epoch it was flushed under.
type shippedBatch struct {
	data  []byte
	epoch int64
}

func syncFirings(b server.Backend, from int) any {
	var got []any
	b.SyncFirings(from, func(start int, backlog []server.FiringEvent) { got = []any{start, backlog} })
	b.Barrier()
	return got
}

// assertSameReads asks every read query of both backends and compares.
func assertSameReads(t *testing.T, phase string, want, got server.Backend) {
	t.Helper()
	for _, q := range readQueries {
		if w, g := q.ask(want), q.ask(got); !reflect.DeepEqual(w, g) {
			t.Errorf("%s: %s diverges:\n engine backend: %+v\n node:           %+v", phase, q.name, w, g)
		}
	}
}

// TestReadSideParity drives one log through an EngineBackend, a follower
// Node, and that Node after promotion, and checks that every read query —
// items, firings from before, inside and past the log, the subscription
// backlog clamp, rules, health, storage — answers identically from all
// three: there is one read side, not one per role.
func TestReadSideParity(t *testing.T) {
	boom := func(*adb.ActionContext) error { return fmt.Errorf("boom") }
	cfg := adb.Config{
		NoFsync:         true,
		Initial:         map[string]value.Value{"a": value.NewInt(0), "b": value.NewInt(1)},
		MaxRuleFailures: 2,
		Actions:         map[string]adb.Action{"flaky": boom},
	}
	eng, err := adb.Restore(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(eng.AddTrigger("hot", `item("a") > 5`, nil, adb.WithScheduling(adb.Relevant)))
	must(eng.AddTrigger("flaky", `@tick`, boom))
	must(eng.AddTrigger("lagging", `item("b") > 0`, nil, adb.WithScheduling(adb.Manual)))
	must(eng.AddConstraint("cap", `item("a") <= 9`))
	for ts := int64(1); ts <= 6; ts++ {
		must(eng.Exec(2*ts, map[string]value.Value{"a": value.NewInt(3 + ts)}))
		must(eng.Emit(2*ts+1, event.New("tick"))) // flaky fails; quarantined after two
	}
	if err := eng.Exec(20, map[string]value.Value{"a": value.NewInt(50)}); err == nil {
		t.Fatal("constraint did not reject")
	}
	be := server.NewEngineBackend(eng)
	defer be.Close()
	if fs, _ := be.Firings(0); len(fs) < 4 {
		t.Fatalf("only %d firings; the mid-log cases need more", len(fs))
	}
	if _, deg, _ := be.Health(); deg != "" {
		t.Fatal(deg)
	}

	node, err := NewFollower(adb.Config{NoFsync: true, Actions: cfg.Actions}, t.TempDir(), "primary:1", "self:1")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	// Before the primary's init frame the node has no engine: every query
	// answers empty instead of panicking.
	if now := node.Now(); now != 0 {
		t.Errorf("fresh follower: now = %d", now)
	}
	if items, err := node.Items(); err != nil || len(items) != 0 {
		t.Errorf("fresh follower: items = %v, %v", items, err)
	}
	for _, from := range []int{-3, 0, 2} {
		if fs, err := node.Firings(from); err != nil || len(fs) != 0 {
			t.Errorf("fresh follower: firings(%d) = %v, %v", from, fs, err)
		}
		if got := syncFirings(node, from); !reflect.DeepEqual(got, []any{0, []server.FiringEvent{}}) {
			t.Errorf("fresh follower: sync(%d) = %v", from, got)
		}
	}
	if rules, err := node.Rules(); err != nil || len(rules) != 0 {
		t.Errorf("fresh follower: rules = %v, %v", rules, err)
	}
	if hs, deg, err := node.Health(); err != nil || len(hs) != 0 || deg != "" {
		t.Errorf("fresh follower: health = %v, %q, %v", hs, deg, err)
	}
	if st, err := node.Storage(); err != nil || st.LastLSN != 0 {
		t.Errorf("fresh follower: storage = %+v, %v", st, err)
	}

	// onPipeline runs fn at a backend's serialization point and reports its
	// error on the test goroutine.
	onPipeline := func(b *server.EngineBackend, fn func() error) {
		t.Helper()
		var err error
		b.Do(func() { err = fn() })
		must(err)
	}
	var chunks []shippedBatch
	onPipeline(be, func() error {
		cs, err := eng.WALReadFrom(1, 1<<20)
		for _, c := range cs {
			chunks = append(chunks, shippedBatch{c.Data, eng.Epoch()})
		}
		return err
	})
	for _, c := range chunks {
		if _, err := node.Apply(c.data, c.epoch); err != nil {
			t.Fatal(err)
		}
	}
	assertSameReads(t, "follower", be, node)

	// Promote the node; the reference logs the same epoch record, so the
	// two logs (and the storage answers) stay byte-identical.
	must(node.Promote(2))
	onPipeline(be, func() error { return eng.BumpEpoch(2) })
	assertSameReads(t, "promoted", be, node)

	// Both now take the same write and still agree.
	for _, b := range []server.Backend{be, node} {
		var txErr error
		b.GoTxn(30, map[string]value.Value{"a": value.NewInt(8)}, nil, nil, func(_ int64, err error) { txErr = err })
		b.Barrier()
		must(txErr)
	}
	assertSameReads(t, "promoted, after a write", be, node)
}
