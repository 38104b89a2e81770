package server

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"ptlactive/client"
	"ptlactive/internal/adb"
	"ptlactive/internal/server/wire"
	"ptlactive/internal/value"
)

// equivRules registers the rule set used by the equivalence tests on any
// rule sink (a client or a local engine wrapped in a closure).
var equivRules = []struct {
	name, cond string
}{
	{"hot", `item("a") > 80`},
	{"crossed", `item("a") > item("b")`},
	{"spike", `[x <- item("b")] lasttime (item("b") < x - 10)`},
}

// equivCodecs are the wire configurations the equivalence tests run
// under: the default offer (negotiates the binary codec) and a
// JSON-only offer. Both must yield byte-identical firing streams.
var equivCodecs = []struct {
	name   string
	codecs []string
	want   string // codec the server must pick
}{
	{"binary", nil, wire.CodecNameBinary},
	{"json", []string{wire.CodecNameJSON}, wire.CodecNameJSON},
}

// dialCodec dials with an explicit codec offer and checks the
// negotiated pick.
func dialCodec(t *testing.T, addr string, codecs []string, want string) *client.Client {
	t.Helper()
	c, err := client.DialOptions(addr, client.Options{Codecs: codecs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if c.Codec() != want {
		t.Fatalf("negotiated codec %q, want %q", c.Codec(), want)
	}
	return c
}

// TestRemoteEquivalence is the acceptance check of the service layer: N
// concurrent clients commit interleaved transactions against the server;
// replaying the merged commit order (by applied timestamp) on a local,
// single-process engine with the same rules must produce the identical
// firing stream — at Workers 1 and 4 (deprecated and ignored, so the two
// must agree) and over both codecs, so the
// serializing pipeline and the codec-independent wire (not luck) are
// what preserve deterministic firing order.
func TestRemoteEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, codec := range equivCodecs {
			workers, codec := workers, codec
			t.Run(fmt.Sprintf("workers=%d/codec=%s", workers, codec.name), func(t *testing.T) {
				runRemoteEquivalence(t, workers, codec.codecs, codec.want)
			})
		}
	}
}

func runRemoteEquivalence(t *testing.T, workers int, codecs []string, wantCodec string) {
	initial := map[string]value.Value{
		"a": value.NewInt(0),
		"b": value.NewInt(50),
	}
	eng := adb.NewEngine(adb.Config{Initial: initial, Workers: workers})
	// The subscriber below starts from 0 after the commits: its queue
	// holds the whole backlog (up to three firings a commit), not the
	// default 256.
	_, addr := startServer(t, Config{Backend: NewEngineBackend(eng), SubscriberQueue: 4096})

	admin := dialCodec(t, addr, codecs, wantCodec)
	for _, r := range equivRules {
		if err := admin.AddTrigger(r.name, r.cond); err != nil {
			t.Fatal(err)
		}
	}

	// N clients, interleaved auto-timestamped commits; each records
	// what it committed and the timestamp the server applied.
	type commit struct {
		ts      int64
		updates map[string]value.Value
	}
	// 240 commits: the pipeline compacts the served engine at least three
	// times under them (compactEvery operations apart).
	const nclients, ncommits = 4, 60
	var mu sync.Mutex
	var all []commit
	var wg sync.WaitGroup
	errs := make(chan error, nclients)
	for ci := 0; ci < nclients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := client.DialOptions(addr, client.Options{Codecs: codecs})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < ncommits; i++ {
				updates := map[string]value.Value{
					"a": value.NewInt(int64((ci*31 + i*17) % 100)),
				}
				if i%3 == ci%3 {
					updates["b"] = value.NewInt(int64((ci*13 + i*29) % 100))
				}
				ts, err := c.Exec(0, updates)
				if err != nil {
					errs <- fmt.Errorf("client %d commit %d: %w", ci, i, err)
					return
				}
				mu.Lock()
				all = append(all, commit{ts: ts, updates: updates})
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The served firing stream, via a fresh subscriber.
	sub := dialCodec(t, addr, codecs, wantCodec)
	stream, err := sub.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	// Queries go through the admin session: the subscriber's read
	// loop is busy delivering the firing backlog and must not be
	// asked to route a response mid-stream.
	nowTS, err := admin.Now()
	if err != nil {
		t.Fatal(err)
	}
	if nowTS != int64(nclients*ncommits) {
		t.Fatalf("server clock = %d, want %d", nowTS, nclients*ncommits)
	}
	if base := eng.BaseIndex(); base <= 2*compactEvery {
		t.Fatalf("served engine's base index %d: fewer than three compactions ran", base)
	}
	served, err := admin.Firings(0)
	if err != nil {
		t.Fatal(err)
	}

	// Replay the merged commit order on a single-process engine.
	sort.Slice(all, func(i, j int) bool { return all[i].ts < all[j].ts })
	for i := 1; i < len(all); i++ {
		if all[i].ts == all[i-1].ts {
			t.Fatalf("duplicate applied timestamp %d", all[i].ts)
		}
	}
	local := adb.NewEngine(adb.Config{Initial: initial, Workers: workers})
	for _, r := range equivRules {
		if err := local.AddTrigger(r.name, r.cond, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, cm := range all {
		if err := local.Exec(cm.ts, cm.updates); err != nil {
			t.Fatal(err)
		}
	}
	want := normFirings(local.Firings())
	served = normFirings(served)

	if len(served) != len(want) {
		t.Fatalf("served %d firings, local run has %d", len(served), len(want))
	}
	if !reflect.DeepEqual(served, want) {
		for i := range want {
			if !reflect.DeepEqual(served[i], want[i]) {
				t.Fatalf("firing %d differs:\nserved: %+v\nlocal:  %+v", i, served[i], want[i])
			}
		}
	}

	// The subscription stream carries the same firings, gap-free and
	// in order.
	for i, w := range want {
		select {
		case ev := <-stream.C:
			if ev.Gap != 0 {
				t.Fatalf("gap of %d at %d in an unloaded stream", ev.Gap, i)
			}
			if ev.Seq != i || !reflect.DeepEqual(normFiring(ev.Firing), w) {
				t.Fatalf("stream event %d = %+v, want seq %d %+v", i, ev, i, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("stream stalled at firing %d of %d", i, len(want))
		}
	}
}

// normFiring canonicalizes the one representation difference the wire
// introduces: an empty binding decodes as nil (histio omits empty maps),
// while the engine may record an allocated empty map.
func normFiring(f adb.Firing) adb.Firing {
	if len(f.Binding) == 0 {
		f.Binding = nil
	}
	return f
}

func normFirings(fs []adb.Firing) []adb.Firing {
	out := make([]adb.Firing, len(fs))
	for i, f := range fs {
		out[i] = normFiring(f)
	}
	return out
}

// TestReservedItemOverWire: a remote write of the item time is refused with
// the engine's typed error, as in process.
func TestReservedItemOverWire(t *testing.T) {
	_, addr := startServer(t, Config{Backend: NewEngineBackend(adb.NewEngine(adb.Config{}))})
	c := dial(t, addr)
	if _, err := c.Exec(1, map[string]value.Value{"time": value.NewInt(99)}); !errors.Is(err, adb.ErrReservedItem) {
		t.Fatalf("remote write of time: %v, want ErrReservedItem", err)
	}
}

// TestDegradedOverWire checks graceful degradation across the network: a
// WAL fault seals the engine, writes fail with ErrDegraded through the
// client, while queries answer and subscriptions keep draining the
// pre-degradation backlog.
func TestDegradedOverWire(t *testing.T) {
	dir := t.TempDir()
	eng, err := adb.Restore(adb.Config{
		Initial: map[string]value.Value{"a": value.NewInt(0)},
	}, dir)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, Config{Backend: NewEngineBackend(eng)})
	c := dial(t, addr)
	if err := c.AddTrigger("hot", `item("a") > 5`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(1, map[string]value.Value{"a": value.NewInt(9)}); err != nil {
		t.Fatal(err)
	}

	// Fault the WAL: the next write attempt seals the engine.
	eng.SetWALFailpoint(func(op string, lsn int64) error {
		return errors.New("injected disk failure")
	})
	_, err = c.Exec(2, map[string]value.Value{"a": value.NewInt(11)})
	if !errors.Is(err, adb.ErrDegraded) {
		t.Fatalf("write on faulted engine: %v, want ErrDegraded", err)
	}
	// Every further write fails the same way.
	if _, err := c.Txn().Set("a", value.NewInt(12)).Commit(); !errors.Is(err, adb.ErrDegraded) {
		t.Fatalf("second write: %v, want ErrDegraded", err)
	}

	// Reads stay alive: health reports the seal, the db and firing log
	// still answer.
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Degraded == "" {
		t.Fatal("health does not report degradation")
	}
	db, err := c.DB()
	if err != nil {
		t.Fatal(err)
	}
	// The sealing commit applied in memory before its WAL append failed
	// (recovery will drop it); reads serve that state, matching the
	// engine's in-process degradation semantics.
	if db["a"].AsInt() != 11 {
		t.Fatalf("db a = %v after degradation", db["a"])
	}

	// Subscriptions keep draining: a fresh subscriber still receives the
	// pre-degradation backlog.
	sub := dial(t, addr)
	stream, err := sub.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-stream.C:
		if ev.Firing.Rule != "hot" || ev.Firing.Time != 1 {
			t.Fatalf("backlog firing = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("backlog never drained on the degraded engine")
	}

	// Graceful drain still works on a degraded engine (Close surfaces the
	// seal to the server log, not to Shutdown): the startServer cleanup
	// exercises it.
}

// TestCrossCodecStreams subscribes two clients — one negotiating the
// binary codec, one pinned to JSON — to the same server and checks they
// observe the identical firing stream: same firings, same sequence
// numbers, no gaps. The binary subscriber additionally receives batched
// multi-firing frames (the backlog is delivered after the commits), so
// this also proves batching changes framing, never content.
func TestCrossCodecStreams(t *testing.T) {
	initial := map[string]value.Value{"a": value.NewInt(0), "b": value.NewInt(50)}
	eng := adb.NewEngine(adb.Config{Initial: initial})
	_, addr := startServer(t, Config{Backend: NewEngineBackend(eng)})

	admin := dial(t, addr)
	for _, r := range equivRules {
		if err := admin.AddTrigger(r.name, r.cond); err != nil {
			t.Fatal(err)
		}
	}
	// Build a firing backlog first so both subscribers drain it via
	// batched (binary peer) and frame-per-firing (JSON peer negotiated
	// batching too, but content must match regardless) delivery.
	const ncommits = 50
	for i := 0; i < ncommits; i++ {
		updates := map[string]value.Value{"a": value.NewInt(int64((i * 37) % 100))}
		if i%2 == 0 {
			updates["b"] = value.NewInt(int64((i * 53) % 100))
		}
		if _, err := admin.Exec(0, updates); err != nil {
			t.Fatal(err)
		}
	}

	bin := dialCodec(t, addr, nil, wire.CodecNameBinary)
	js := dialCodec(t, addr, []string{wire.CodecNameJSON}, wire.CodecNameJSON)
	binStream, err := bin.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	jsStream, err := js.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}

	want, err := admin.Firings(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no firings generated")
	}
	collect := func(name string, ch <-chan client.StreamEvent) []adb.Firing {
		var got []adb.Firing
		for len(got) < len(want) {
			select {
			case ev := <-ch:
				if ev.Gap != 0 {
					t.Fatalf("%s: gap of %d in an unloaded stream", name, ev.Gap)
				}
				if ev.Seq != len(got) {
					t.Fatalf("%s: seq %d, want %d", name, ev.Seq, len(got))
				}
				got = append(got, normFiring(ev.Firing))
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: stream stalled at %d of %d", name, len(got), len(want))
			}
		}
		return got
	}
	gotBin := collect("binary", binStream.C)
	gotJSON := collect("json", jsStream.C)
	if !reflect.DeepEqual(gotBin, gotJSON) {
		t.Fatal("binary and JSON subscribers diverged")
	}
	if !reflect.DeepEqual(gotBin, normFirings(want)) {
		t.Fatal("streamed firings differ from the queried log")
	}
}
