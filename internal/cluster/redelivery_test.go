package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"ptlactive/internal/adb"
	"ptlactive/internal/event"
	"ptlactive/internal/server"
	"ptlactive/internal/value"
)

// TestRelayRedeliveryDedup closes the sharding at-least-once gap: shard
// firing subscriptions may redeliver their backlog (a remote shard
// reconnect replays from the resume point), and before the per-shard Seq
// watermark a redelivered relay firing was forwarded again — emitting the
// occurrence twice on the home shard and firing the rule twice. The test
// replays the event-owner shard's backlog into the fan-in a second time
// and pins exactly one firing per rule.
func TestRelayRedeliveryDedup(t *testing.T) {
	engs := make([]*adb.Engine, 3)
	shards := make([]Shard, 3)
	for i := range shards {
		engs[i] = adb.NewEngine(adb.Config{})
		shards[i] = NewLocalShard(engs[i])
	}
	f, err := New(Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	p := f.Partitioner()
	item := keyOn(t, p, 0, "it")
	home := p.Owner(item)
	ev := remoteEventFor(p, home)
	evShard := p.Owner(ev)

	cond := fmt.Sprintf("@%s(X) and item(%q) > 0", ev, item)
	if err := doRule(f, "cross", cond, false); err != nil {
		t.Fatal(err)
	}
	if _, err := doTxn(f, 0, map[string]value.Value{item: value.NewInt(3)}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	f.GoEmit(0, []event.Event{event.New(ev, value.NewInt(7))}, func(_ int64, err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	count := func(fs []server.FiringEvent) int {
		n := 0
		for _, fe := range fs {
			if fe.F.Rule == "cross" {
				n++
			}
		}
		return n
	}
	waitFirings(t, f, func(fs []server.FiringEvent) bool { return count(fs) >= 1 })

	// Redeliver the event-owner shard's backlog, exactly as a reconnected
	// firing subscription would: same firings, same per-shard sequence
	// numbers, straight into the fan-in.
	redelivered := 0
	for i, fir := range engs[evShard].Firings() {
		if strings.HasPrefix(fir.Rule, relayPrefix) {
			f.in <- fanMsg{shard: evShard, fe: server.FiringEvent{F: fir, Seq: i}}
			redelivered++
		}
	}
	if redelivered == 0 {
		t.Fatal("no relay firing on the event-owner shard; test is vacuous")
	}

	// A duplicate forward would emit again on the home shard and fire the
	// rule a second time; give the (asynchronous) relay chain time to do
	// its worst, then pin the count.
	f.Barrier()
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		_, fs, err := f.Firings(0, math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		if n := count(fs); n != 1 {
			t.Fatalf("rule fired %d times after backlog redelivery, want exactly 1", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
