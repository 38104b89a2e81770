package cluster

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"ptlactive/internal/adb"
	"ptlactive/internal/event"
	"ptlactive/internal/server"
	"ptlactive/internal/value"
)

// startBackendServer boots one single-engine wire server (what adbserverd
// runs) and returns its address.
func startBackendServer(t *testing.T) string {
	t.Helper()
	srv, err := server.New(server.Config{
		Backend: server.NewEngineBackend(adb.NewEngine(adb.Config{})),
		Logf:    t.Logf,
	})
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
		srv.Shutdown(ctx)
	})
	return ln.Addr().String()
}

// TestFrontOverRemoteShards runs the router over two adbserverd-style
// backends: rule placement, transaction routing and the merged firing
// feed must work identically to local shards, including the cross-shard
// relay riding each backend's firing subscription.
func TestFrontOverRemoteShards(t *testing.T) {
	const nShards = 2
	shards := make([]Shard, nShards)
	for i := range shards {
		sh, err := DialShard(startBackendServer(t))
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = sh
	}
	f, err := New(Config{Shards: shards, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	p := f.Partitioner()

	item := keyOn(t, p, 0, "it")
	home := p.Owner(item)
	var ev string
	for i := 0; ; i++ {
		ev = fmt.Sprintf("sig%d", i)
		if p.Owner(ev) != home {
			break
		}
	}

	// A local rule on the item's shard and a cross-shard rule relaying the
	// event from its owner.
	if err := doRule(f, "watch", fmt.Sprintf("item(%q) > 5", item), false); err != nil {
		t.Fatalf("GoRule watch: %v", err)
	}
	cond := fmt.Sprintf("@%s and item(%q) > 0", ev, item)
	if err := doRule(f, "cross", cond, false); err != nil {
		t.Fatalf("GoRule cross: %v", err)
	}

	if _, err := doTxn(f, 0, map[string]value.Value{item: value.NewInt(9)}); err != nil {
		t.Fatalf("txn: %v", err)
	}
	doneEmit := make(chan error, 1)
	f.GoEmit(0, []event.Event{event.New(ev)}, func(_ int64, err error) { doneEmit <- err })
	if err := <-doneEmit; err != nil {
		t.Fatalf("GoEmit: %v", err)
	}

	fs := waitFirings(t, f, func(fs []server.FiringEvent) bool {
		var watch, cross bool
		for _, fe := range fs {
			switch fe.F.Rule {
			case "watch":
				watch = true
			case "cross":
				cross = true
			}
		}
		return watch && cross
	})
	for i, fe := range fs {
		if fe.Seq != i {
			t.Fatalf("merged seq %d at index %d", fe.Seq, i)
		}
	}
}
