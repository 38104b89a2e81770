package cluster

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"ptlactive/client"
	"ptlactive/internal/adb"
	"ptlactive/internal/server"
	"ptlactive/internal/server/wire"
	"ptlactive/internal/value"
)

// startClusterServer boots a wire server over a Front of n in-process
// memory shards and returns the shard engines (for direct firing-log
// inspection) and the listen address.
func startClusterServer(t *testing.T, n, workers int) ([]*adb.Engine, string) {
	t.Helper()
	engines := make([]*adb.Engine, n)
	shards := make([]Shard, n)
	for i := range shards {
		engines[i] = adb.NewEngine(adb.Config{Workers: workers})
		shards[i] = NewLocalShard(engines[i])
	}
	front, err := New(Config{Shards: shards, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	// The equivalence test subscribes from 0 after its commits: the queue
	// holds the whole backlog (up to three firings a commit), not the
	// default 256.
	srv, err := server.New(server.Config{Backend: front, Logf: t.Logf, SubscriberQueue: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return engines, ln.Addr().String()
}

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

var clusterCodecs = []struct {
	name   string
	codecs []string
	want   string
}{
	{"binary", nil, wire.CodecNameBinary},
	{"json", []string{wire.CodecNameJSON}, wire.CodecNameJSON},
}

// TestClusterShardEquivalence is the acceptance check of the sharded
// service: concurrent wire clients commit single-shard transactions
// through the router, and afterwards every shard's firing stream must be
// byte-identical to a single-process engine replaying that shard's
// commit subsequence in applied-timestamp order — at Workers 1 and 4
// (deprecated and ignored, so the two must agree) and over both codecs, so sharding changes where rules evaluate, never what
// fires. The merged subscription feed must carry exactly the union,
// gap-free, preserving each shard's internal order.
func TestClusterShardEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, codec := range clusterCodecs {
			workers, codec := workers, codec
			t.Run(fmt.Sprintf("workers=%d/codec=%s", workers, codec.name), func(t *testing.T) {
				runClusterEquivalence(t, workers, codec.codecs, codec.want)
			})
		}
	}
}

func runClusterEquivalence(t *testing.T, workers int, codecs []string, wantCodec string) {
	const nShards = 3
	engines, addr := startClusterServer(t, nShards, workers)
	part := NewPartitioner(nShards)

	// Two items per shard (co-located by construction) and the rules that
	// watch them: a threshold, a comparison, and a temporal spike rule,
	// per shard.
	type shardKeys struct{ a, b string }
	keys := make([]shardKeys, nShards)
	rules := make([][]struct{ name, cond string }, nShards)
	for s := 0; s < nShards; s++ {
		keys[s].a = keyOn(t, part, s, fmt.Sprintf("s%da", s))
		keys[s].b = keyOn(t, part, s, fmt.Sprintf("s%db", s))
		rules[s] = []struct{ name, cond string }{
			{fmt.Sprintf("hot%d", s), fmt.Sprintf("item(%q) > 80", keys[s].a)},
			{fmt.Sprintf("crossed%d", s), fmt.Sprintf("item(%q) > item(%q)", keys[s].a, keys[s].b)},
			{fmt.Sprintf("spike%d", s), fmt.Sprintf("[x <- item(%q)] lasttime (item(%q) < x - 10)", keys[s].b, keys[s].b)},
		}
	}

	admin := dialCodec(t, addr, codecs, wantCodec)
	for s := 0; s < nShards; s++ {
		// Seed each shard's items so the comparison rules are defined from
		// the first commit.
		if _, err := admin.Exec(0, map[string]value.Value{
			keys[s].a: value.NewInt(0),
			keys[s].b: value.NewInt(50),
		}); err != nil {
			t.Fatal(err)
		}
		for _, r := range rules[s] {
			if err := admin.AddTrigger(r.name, r.cond); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Concurrent clients, each spraying auto-timestamped commits across
	// the shards; every commit records which shard it routed to and the
	// applied timestamp.
	type commit struct {
		ts      int64
		updates map[string]value.Value
	}
	// 240 commits per shard: each shard's pipeline compacts its engine at
	// least three times under them (every 64 operations).
	const nclients, ncommits = 4, 180
	var mu sync.Mutex
	perShard := make([][]commit, nShards)
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
				s := (ci + i) % nShards
				updates := map[string]value.Value{
					keys[s].a: value.NewInt(int64((ci*31 + i*17) % 100)),
				}
				if i%3 == ci%3 {
					updates[keys[s].b] = value.NewInt(int64((ci*13 + i*29) % 100))
				}
				ts, err := c.Exec(0, updates)
				if err != nil {
					errs <- fmt.Errorf("client %d commit %d: %w", ci, i, err)
					return
				}
				mu.Lock()
				perShard[s] = append(perShard[s], commit{ts: ts, updates: updates})
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Per-shard equivalence: replay each shard's commit subsequence in
	// applied order on a fresh single engine with the same rules; the
	// firing streams must be byte-identical.
	total := 0
	for s := 0; s < nShards; s++ {
		cms := perShard[s]
		sort.Slice(cms, func(i, j int) bool { return cms[i].ts < cms[j].ts })
		for i := 1; i < len(cms); i++ {
			if cms[i].ts == cms[i-1].ts {
				t.Fatalf("shard %d: duplicate applied timestamp %d", s, cms[i].ts)
			}
		}
		local := adb.NewEngine(adb.Config{Workers: workers})
		if err := local.Exec(1, map[string]value.Value{
			keys[s].a: value.NewInt(0),
			keys[s].b: value.NewInt(50),
		}); err != nil {
			t.Fatal(err)
		}
		for _, r := range rules[s] {
			if err := local.AddTrigger(r.name, r.cond, nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, cm := range cms {
			if err := local.Exec(cm.ts, cm.updates); err != nil {
				t.Fatal(err)
			}
		}
		if base := engines[s].BaseIndex(); base <= 2*64 {
			t.Fatalf("shard %d: base index %d, fewer than three compactions ran", s, base)
		}
		want := local.Firings()
		got := engines[s].Firings()
		if !reflect.DeepEqual(got, want) {
			if len(got) != len(want) {
				t.Fatalf("shard %d: %d firings, single-engine replay has %d", s, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("shard %d firing %d differs:\nshard:  %+v\nreplay: %+v", s, i, got[i], want[i])
				}
			}
		}
		total += len(want)
	}
	if total == 0 {
		t.Fatal("workload produced no firings")
	}

	// The merged feed serves exactly the union, gap-free, with each
	// shard's firings in that shard's order.
	sub := dialCodec(t, addr, codecs, wantCodec)
	stream, err := sub.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	shardStreams := make(map[int][]adb.Firing)
	ruleShard := map[string]int{}
	for s := 0; s < nShards; s++ {
		for _, r := range rules[s] {
			ruleShard[r.name] = s
		}
	}
	for i := 0; i < total; i++ {
		select {
		case ev := <-stream.C:
			if ev.Gap != 0 {
				t.Fatalf("gap of %d in an unloaded merged stream", ev.Gap)
			}
			if ev.Seq != i {
				t.Fatalf("merged seq %d, want %d", ev.Seq, i)
			}
			s, ok := ruleShard[ev.Firing.Rule]
			if !ok {
				t.Fatalf("merged stream carries unknown rule %q", ev.Firing.Rule)
			}
			shardStreams[s] = append(shardStreams[s], ev.Firing)
		case <-time.After(10 * time.Second):
			t.Fatalf("merged stream stalled at %d of %d", i, total)
		}
	}
	for s := 0; s < nShards; s++ {
		want := engines[s].Firings()
		got := shardStreams[s]
		// The wire omits empty bindings; the engine may record allocated
		// empty maps. Normalize before comparing.
		norm := func(fs []adb.Firing) []adb.Firing {
			out := make([]adb.Firing, len(fs))
			for i, f := range fs {
				if len(f.Binding) == 0 {
					f.Binding = nil
				}
				out[i] = f
			}
			return out
		}
		if !reflect.DeepEqual(norm(got), norm(want)) {
			t.Fatalf("shard %d: merged stream does not preserve the shard's firing order (%d vs %d firings)", s, len(got), len(want))
		}
	}
}
