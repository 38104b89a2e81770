package cluster

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"ptlactive/internal/adb"
	"ptlactive/internal/core"
	"ptlactive/internal/event"
	"ptlactive/internal/server"
	"ptlactive/internal/server/wire"
	"ptlactive/internal/value"
)

// keyOn brute-forces a key with the given prefix that hashes to the
// wanted shard.
func keyOn(t *testing.T, p Partitioner, shard int, prefix string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("%s%d", prefix, i)
		if p.Owner(k) == shard {
			return k
		}
	}
	t.Fatalf("no key with prefix %q on shard %d", prefix, shard)
	return ""
}

func newLocalFront(t *testing.T, n int) *Front {
	t.Helper()
	shards := make([]Shard, n)
	for i := range shards {
		shards[i] = NewLocalShard(adb.NewEngine(adb.Config{}))
	}
	f, err := New(Config{Shards: shards})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func doTxn(f *Front, ts int64, updates map[string]value.Value) (int64, error) {
	done := make(chan struct{})
	var outTS int64
	var outErr error
	f.GoTxn(ts, updates, nil, nil, func(ts int64, err error) {
		outTS, outErr = ts, err
		close(done)
	})
	<-done
	return outTS, outErr
}

func doRule(f *Front, name, cond string, constraint bool) error {
	done := make(chan error, 1)
	f.GoRule(name, cond, constraint, int(adb.Relevant), func(err error) { done <- err })
	return <-done
}

// waitFirings polls the merged log until pred is satisfied or the
// deadline passes (the relay chain is asynchronous past Barrier).
func waitFirings(t *testing.T, f *Front, pred func([]server.FiringEvent) bool) []server.FiringEvent {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, fs, err := f.Firings(0, math.MaxInt)
		if err != nil {
			t.Fatalf("Firings: %v", err)
		}
		if pred(fs) {
			return fs
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for firings; have %d: %+v", len(fs), fs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFrontRoutesSingleShardTxns(t *testing.T) {
	f := newLocalFront(t, 3)
	p := f.Partitioner()
	k0 := keyOn(t, p, 0, "a")
	k1 := keyOn(t, p, 1, "b")

	if _, err := doTxn(f, 0, map[string]value.Value{k0: value.NewInt(1)}); err != nil {
		t.Fatalf("txn on shard 0: %v", err)
	}
	if _, err := doTxn(f, 0, map[string]value.Value{k1: value.NewInt(2)}); err != nil {
		t.Fatalf("txn on shard 1: %v", err)
	}
	items, err := f.Items()
	if err != nil {
		t.Fatalf("Items: %v", err)
	}
	if got := items[k0]; !got.Equal(value.NewInt(1)) {
		t.Fatalf("item %s = %v, want 1", k0, got)
	}
	if got := items[k1]; !got.Equal(value.NewInt(2)) {
		t.Fatalf("item %s = %v, want 2", k1, got)
	}
}

func TestFrontRefusesCrossShardTxn(t *testing.T) {
	f := newLocalFront(t, 3)
	p := f.Partitioner()
	k0 := keyOn(t, p, 0, "a")
	k1 := keyOn(t, p, 1, "b")

	_, err := doTxn(f, 0, map[string]value.Value{k0: value.NewInt(1), k1: value.NewInt(2)})
	if !errors.Is(err, wire.ErrCrossShard) {
		t.Fatalf("cross-shard txn: err = %v, want ErrCrossShard", err)
	}
}

func TestFrontLocalRuleFires(t *testing.T) {
	f := newLocalFront(t, 3)
	p := f.Partitioner()
	k := keyOn(t, p, 1, "x")

	if err := doRule(f, "watch", fmt.Sprintf("item(%q) > 5", k), false); err != nil {
		t.Fatalf("GoRule: %v", err)
	}
	if _, err := doTxn(f, 0, map[string]value.Value{k: value.NewInt(9)}); err != nil {
		t.Fatalf("txn: %v", err)
	}
	f.Barrier()
	fs := waitFirings(t, f, func(fs []server.FiringEvent) bool { return len(fs) >= 1 })
	if fs[0].F.Rule != "watch" {
		t.Fatalf("firing rule = %q, want watch", fs[0].F.Rule)
	}
	if fs[0].Seq != 0 {
		t.Fatalf("firing seq = %d, want 0", fs[0].Seq)
	}
}

func TestFrontCrossShardRelay(t *testing.T) {
	f := newLocalFront(t, 3)
	p := f.Partitioner()
	item := keyOn(t, p, 0, "it")
	home := p.Owner(item)
	// An event symbol owned by a different shard than the item.
	var ev string
	for i := 0; ; i++ {
		ev = fmt.Sprintf("sig%d", i)
		if p.Owner(ev) != home {
			break
		}
	}
	evShard := p.Owner(ev)

	cond := fmt.Sprintf("@%s(X) and item(%q) > 0", ev, item)
	if err := doRule(f, "cross", cond, false); err != nil {
		t.Fatalf("GoRule cross: %v", err)
	}
	// The relay trigger must sit on the event owner's shard, the rule on
	// the item's shard — and neither shows up in the merged rule listing
	// except the user rule.
	rules, err := f.Rules()
	if err != nil {
		t.Fatalf("Rules: %v", err)
	}
	if len(rules) != 1 || rules[0].Name != "cross" {
		t.Fatalf("Rules = %+v, want just cross", rules)
	}
	f.mu.Lock()
	gotHome := f.ruleHomes["cross"]
	f.mu.Unlock()
	if gotHome != home {
		t.Fatalf("cross homed on %d, want %d", gotHome, home)
	}

	if _, err := doTxn(f, 0, map[string]value.Value{item: value.NewInt(3)}); err != nil {
		t.Fatalf("seed txn: %v", err)
	}
	// Emitting the event routes to its owner shard; the relay forwards it
	// to the home shard, where the rule observes it.
	done := make(chan error, 1)
	f.GoEmit(0, []event.Event{event.New(ev, value.NewInt(7))}, func(_ int64, err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatalf("GoEmit: %v", err)
	}

	fs := waitFirings(t, f, func(fs []server.FiringEvent) bool {
		for _, fe := range fs {
			if fe.F.Rule == "cross" {
				return true
			}
		}
		return false
	})
	var cross *server.FiringEvent
	for i := range fs {
		if fs[i].F.Rule == "cross" {
			cross = &fs[i]
		}
	}
	if got := cross.F.Binding["X"]; !got.Equal(value.NewInt(7)) {
		t.Fatalf("binding X = %v, want 7", got)
	}
	// The relay trigger's own firing (on the event-owner shard) must be
	// hidden from the merged log.
	for _, fe := range fs {
		if fe.Gap == 0 && fe.F.Rule != "cross" {
			t.Fatalf("unexpected visible firing %+v", fe)
		}
	}
	_ = evShard
}

// remoteEventFor brute-forces an event symbol owned by a shard other
// than home.
func remoteEventFor(p Partitioner, home int) string {
	for i := 0; ; i++ {
		ev := fmt.Sprintf("sig%d", i)
		if p.Owner(ev) != home {
			return ev
		}
	}
}

// countRelays lists the relay triggers present on one shard.
func countRelays(t *testing.T, sh Shard) int {
	t.Helper()
	rules, err := sh.Rules()
	if err != nil {
		t.Fatalf("shard Rules: %v", err)
	}
	n := 0
	for _, r := range rules {
		if strings.HasPrefix(r.Name, relayPrefix) {
			n++
		}
	}
	return n
}

// TestFrontSharedRemoteEventRelay: two rules homed on one shard
// observing the same remotely-owned event symbol must share a single
// relay trigger, so one occurrence forwards once and fires each rule
// exactly once — not once per observing rule.
func TestFrontSharedRemoteEventRelay(t *testing.T) {
	f := newLocalFront(t, 3)
	p := f.Partitioner()
	item := keyOn(t, p, 0, "it")
	home := p.Owner(item)
	ev := remoteEventFor(p, home)
	owner := p.Owner(ev)

	cond := fmt.Sprintf("@%s(X) and item(%q) > 0", ev, item)
	for _, name := range []string{"r1", "r2"} {
		if err := doRule(f, name, cond, false); err != nil {
			t.Fatalf("GoRule %s: %v", name, err)
		}
	}
	if n := countRelays(t, f.shards[owner]); n != 1 {
		t.Fatalf("owner shard has %d relay triggers, want 1 shared", n)
	}

	if _, err := doTxn(f, 0, map[string]value.Value{item: value.NewInt(3)}); err != nil {
		t.Fatalf("seed txn: %v", err)
	}
	done := make(chan error, 1)
	f.GoEmit(0, []event.Event{event.New(ev, value.NewInt(7))}, func(_ int64, err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatalf("GoEmit: %v", err)
	}

	count := func(fs []server.FiringEvent) map[string]int {
		c := map[string]int{}
		for _, fe := range fs {
			if fe.Gap == 0 {
				c[fe.F.Rule]++
			}
		}
		return c
	}
	waitFirings(t, f, func(fs []server.FiringEvent) bool {
		c := count(fs)
		return c["r1"] >= 1 && c["r2"] >= 1
	})
	// Let any erroneous duplicate forward (the bug this test pins: one
	// relay per observing rule) finish its commit before counting.
	time.Sleep(200 * time.Millisecond)
	f.Barrier()
	_, fs, err := f.Firings(0, math.MaxInt)
	if err != nil {
		t.Fatalf("Firings: %v", err)
	}
	c := count(fs)
	if c["r1"] != 1 || c["r2"] != 1 {
		t.Fatalf("firing counts r1=%d r2=%d, want exactly 1 each (duplicate relay forwarding?)", c["r1"], c["r2"])
	}
}

// TestFrontRelaySurvivesFailedRegistration: a home-shard registration
// failure must leave the shared relay reusable — a later rule with the
// same footprint registers cleanly against the existing relay instead of
// failing on a duplicate relay name.
func TestFrontRelaySurvivesFailedRegistration(t *testing.T) {
	f := newLocalFront(t, 3)
	p := f.Partitioner()
	item := keyOn(t, p, 0, "it")
	home := p.Owner(item)
	ev := remoteEventFor(p, home)
	owner := p.Owner(ev)
	cond := fmt.Sprintf("@%s(X) and item(%q) > 0", ev, item)

	// Occupy the rule name directly on the home shard, behind the router's
	// back, so the router's home registration fails after its relay step.
	errc := make(chan error, 1)
	f.shards[home].GoRule("taken", fmt.Sprintf("item(%q) > 100", item), false,
		int(adb.Relevant), func(err error) { errc <- err })
	if err := <-errc; err != nil {
		t.Fatalf("pre-registering on shard: %v", err)
	}
	if err := doRule(f, "taken", cond, false); err == nil {
		t.Fatal("GoRule taken: expected duplicate-name failure from the home shard")
	}
	if n := countRelays(t, f.shards[owner]); n != 1 {
		t.Fatalf("owner shard has %d relay triggers after failed registration, want 1", n)
	}

	// A sibling rule with the same remote event must reuse that relay.
	if err := doRule(f, "ok", cond, false); err != nil {
		t.Fatalf("GoRule ok after failed sibling: %v", err)
	}
	if n := countRelays(t, f.shards[owner]); n != 1 {
		t.Fatalf("owner shard has %d relay triggers, want 1 shared", n)
	}
	if _, err := doTxn(f, 0, map[string]value.Value{item: value.NewInt(3)}); err != nil {
		t.Fatalf("seed txn: %v", err)
	}
	done := make(chan error, 1)
	f.GoEmit(0, []event.Event{event.New(ev, value.NewInt(5))}, func(_ int64, err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatalf("GoEmit: %v", err)
	}
	waitFirings(t, f, func(fs []server.FiringEvent) bool {
		for _, fe := range fs {
			if fe.Gap == 0 && fe.F.Rule == "ok" {
				return true
			}
		}
		return false
	})
}

// TestFrontConcurrentDuplicateRuleName: two concurrent registrations of
// one name must resolve to exactly one winner — the name is reserved
// under the lock before the asynchronous fan-out begins.
func TestFrontConcurrentDuplicateRuleName(t *testing.T) {
	f := newLocalFront(t, 2)
	p := f.Partitioner()
	k := keyOn(t, p, 0, "x")
	cond := fmt.Sprintf("item(%q) > 0", k)
	res := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go f.GoRule("dup", cond, false, int(adb.Relevant), func(err error) { res <- err })
	}
	var oks int
	for i := 0; i < 2; i++ {
		if err := <-res; err == nil {
			oks++
		}
	}
	if oks != 1 {
		t.Fatalf("%d of 2 concurrent same-name registrations succeeded, want exactly 1", oks)
	}
	f.mu.Lock()
	_, homed := f.ruleHomes["dup"]
	pending := f.rulePending["dup"]
	f.mu.Unlock()
	if !homed || pending {
		t.Fatalf("after settle: homed=%v pending=%v, want homed and not pending", homed, pending)
	}
}

// TestFrontGapDegradesHealth: a shard firing-subscription gap loses any
// relay firings inside it, so the cluster must report degraded health
// naming the shard.
func TestFrontGapDegradesHealth(t *testing.T) {
	f := newLocalFront(t, 2)
	f.in <- fanMsg{shard: 1, fe: server.FiringEvent{Gap: 3}}
	f.Barrier()
	_, degraded, err := f.Health()
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if !strings.Contains(degraded, "shard 1") || !strings.Contains(degraded, "gapped (3") {
		t.Fatalf("degraded = %q, want a shard 1 gap cause", degraded)
	}
}

// TestFrontSnapshotAroundGaps holds the merged log's reads to the log of
// entries the fan-in merged: gap entries at its start, between firings,
// back to back and at its end, and every from, covered or not, inside a
// gap or past the end, returns the first limit entries whose sequence
// numbers reach from, with the same sequence numbers and bindings.
func TestFrontSnapshotAroundGaps(t *testing.T) {
	f := newLocalFront(t, 2)
	firing := func(i int) server.FiringEvent {
		b := core.Binding{}
		if i%2 == 0 {
			b["A"] = value.NewInt(int64(i))
		}
		return server.FiringEvent{F: adb.Firing{Rule: fmt.Sprintf("r%d", i%3), Binding: b, Time: int64(i), StateIndex: i}}
	}
	gap := func(n int) server.FiringEvent { return server.FiringEvent{Gap: n} }
	in := []server.FiringEvent{gap(2), firing(1), firing(2), gap(3), firing(3), gap(1), gap(2), firing(4), firing(5), gap(4)}
	var want []server.FiringEvent
	seq := 0
	for _, fe := range in {
		f.in <- fanMsg{shard: 1, fe: fe}
		fe.Seq = seq
		want = append(want, fe)
		seq += max(fe.Gap, 1)
	}
	f.Barrier()
	for from := -1; from <= seq+1; from++ {
		clamped := min(max(from, 0), seq)
		var tail []server.FiringEvent
		for _, fe := range want {
			if fe.Seq+max(fe.Gap, 1) > clamped {
				tail = append(tail, fe)
			}
		}
		for _, limit := range []int{0, 1, 2, math.MaxInt} {
			want := tail[:min(limit, len(tail))]
			gotFrom, got, err := f.Firings(from, limit)
			if err != nil || gotFrom != clamped || len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("Firings(%d, %d) = %d, %+v, %v; want %d, %+v", from, limit, gotFrom, got, err, clamped, want)
			}
		}
	}
}

func TestFrontRefusesCrossShardConstraint(t *testing.T) {
	f := newLocalFront(t, 3)
	p := f.Partitioner()
	item := keyOn(t, p, 0, "it")
	var ev string
	for i := 0; ; i++ {
		ev = fmt.Sprintf("sig%d", i)
		if p.Owner(ev) != p.Owner(item) {
			break
		}
	}
	cond := fmt.Sprintf("not (@%s and item(%q) > 0)", ev, item)
	err := doRule(f, "c", cond, true)
	if !errors.Is(err, wire.ErrCrossShard) {
		t.Fatalf("cross-shard constraint: err = %v, want ErrCrossShard", err)
	}
}

// TestFrontFiringsLimit reads a routed firing back from the merged log,
// bounded and not.
func TestFrontFiringsLimit(t *testing.T) {
	f := newLocalFront(t, 2)
	p := f.Partitioner()
	k := keyOn(t, p, 0, "x")
	if err := doRule(f, "w", fmt.Sprintf("item(%q) > 0", k), false); err != nil {
		t.Fatalf("GoRule: %v", err)
	}
	if _, err := doTxn(f, 0, map[string]value.Value{k: value.NewInt(1)}); err != nil {
		t.Fatalf("txn: %v", err)
	}
	f.Barrier()
	waitFirings(t, f, func(fs []server.FiringEvent) bool { return len(fs) >= 1 })

	for _, limit := range []int{1, math.MaxInt} {
		from, fs, err := f.Firings(0, limit)
		if err != nil || from != 0 || len(fs) != 1 || fs[0].F.Rule != "w" {
			t.Fatalf("Firings(0, %d) = %d, %+v, %v", limit, from, fs, err)
		}
	}
	if from, fs, err := f.Firings(0, 0); err != nil || from != 0 || len(fs) != 0 {
		t.Fatalf("Firings(0, 0) = %d, %+v, %v", from, fs, err)
	}
}

// TestFrontRelaysEventsUnderAggregateConnective: a rule homed by its item
// whose aggregate samples on remotely-owned events nested under a
// connective — sum(item(a); @s; (@u or @w)) — gets a relay for u and w on
// their owner shard, and the aggregate samples the forwarded occurrence.
// The footprint used to stop at the sampling formula's root, so Place
// emitted no RemoteEvent for u/w, no relay was registered, and the rule
// never sampled: the occurrence was lost for good.
func TestFrontRelaysEventsUnderAggregateConnective(t *testing.T) {
	f := newLocalFront(t, 2)
	p := f.Partitioner()
	item := keyOn(t, p, 0, "it")
	home := p.Owner(item)
	start := keyOn(t, p, home, "start")
	u, w := keyOn(t, p, 1-home, "u"), keyOn(t, p, 1-home, "w")

	cond := fmt.Sprintf("sum(item(%q); @%s; (@%s or @%s)) > 1", item, start, u, w)
	if err := doRule(f, "sampled", cond, false); err != nil {
		t.Fatalf("GoRule: %v", err)
	}
	if n := countRelays(t, f.shards[1-home]); n != 2 {
		t.Fatalf("event owner shard has %d relay triggers, want 2 (one each for %s and %s)", n, u, w)
	}

	if _, err := doTxn(f, 0, map[string]value.Value{item: value.NewInt(2)}); err != nil {
		t.Fatalf("seed txn: %v", err)
	}
	for _, ev := range []string{start, u} {
		done := make(chan error, 1)
		f.GoEmit(0, []event.Event{event.New(ev)}, func(_ int64, err error) { done <- err })
		if err := <-done; err != nil {
			t.Fatalf("GoEmit %s: %v", ev, err)
		}
		f.Barrier()
	}
	// The forwarded @u samples item = 2 on the home shard: sum 2 > 1.
	waitFirings(t, f, func(fs []server.FiringEvent) bool {
		for _, fe := range fs {
			if fe.Gap == 0 && fe.F.Rule == "sampled" {
				return true
			}
		}
		return false
	})
}
