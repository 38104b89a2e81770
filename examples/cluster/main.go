// Cluster: horizontal sharding end to end, all in one process — three
// engine shards owning disjoint hash partitions of the item space behind
// a router that speaks the ordinary wire protocol. A client registers a
// local rule and a cross-shard rule (its event symbol hashes to a
// different shard than its item, so the router plants a hidden relay
// trigger there), commits transactions that route to single shards, and
// follows the globally sequenced merged firing stream. Then the whole
// cluster drains cleanly.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"ptlactive"
	"ptlactive/client"
	"ptlactive/internal/adb"
	"ptlactive/internal/cluster"
	"ptlactive/internal/server"
	"ptlactive/internal/value"
)

// keyOwnedBy brute-forces a name the partitioner places on the wanted
// shard, so the example is deterministic about which shard owns what.
func keyOwnedBy(p cluster.Partitioner, shard int, prefix string) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("%s%d", prefix, i)
		if p.Owner(k) == shard {
			return k
		}
	}
}

func main() {
	// Three in-process shards, each with its own commit pipeline, behind
	// one router. With adbserverd this is `-local 3`; here we assemble
	// the same pieces directly.
	const nShards = 3
	shards := make([]cluster.Shard, nShards)
	for i := range shards {
		shards[i] = cluster.NewLocalShard(adb.NewEngine(adb.Config{}))
	}
	front, err := cluster.New(cluster.Config{Shards: shards})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := server.New(server.Config{Backend: front})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	fmt.Printf("router listening on %s over %d shards\n", ln.Addr(), nShards)

	// Pick names with known owners: an item on shard 0, an event symbol
	// on shard 1. A rule reading both lives on the item's shard and gets
	// a relay trigger on the event's shard.
	p := cluster.NewPartitioner(nShards)
	metric := keyOwnedBy(p, 0, "metric")
	signal := keyOwnedBy(p, 1, "sig")
	fmt.Printf("item %q lives on shard %d, event @%s on shard %d\n",
		metric, p.Owner(metric), signal, p.Owner(signal))

	cli, err := client.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	// Seed the item — the commit routes to shard 0, the only shard its
	// write set touches.
	if _, err := cli.Exec(0, map[string]value.Value{metric: value.NewInt(20)}); err != nil {
		log.Fatal(err)
	}

	// A single-shard rule and a cross-shard rule, registered through the
	// same AddTrigger call a single server would take. The router places
	// both on shard 0 (home of the item footprint) and plants the hidden
	// relay for @sig on shard 1.
	if err := cli.AddTrigger("hot", fmt.Sprintf("item(%q) > 40", metric)); err != nil {
		log.Fatal(err)
	}
	if err := cli.AddTrigger("alarm",
		fmt.Sprintf("@%s and item(%q) > 10", signal, metric)); err != nil {
		log.Fatal(err)
	}

	sub, err := cli.Subscribe(0)
	if err != nil {
		log.Fatal(err)
	}

	// Commits route to the one shard owning everything they touch: the
	// item write to shard 0, the event occurrence to shard 1. The relay
	// forwards @sig's occurrence home, where "alarm" joins it with the
	// item state.
	if _, err := cli.Exec(0, map[string]value.Value{metric: value.NewInt(50)}); err != nil {
		log.Fatal(err)
	}
	if _, err := cli.Emit(0, ptlactive.NewEvent(signal)); err != nil {
		log.Fatal(err)
	}

	// The merged stream is globally sequenced and gap-free: "hot" from
	// the second commit, then — once the relayed occurrence commits on
	// shard 0 — "alarm" plus "hot" again (the item still reads 50).
	for i := 0; i < 3; i++ {
		select {
		case ev := <-sub.C:
			fmt.Printf("  FIRE %s at time %d (seq %d)\n", ev.Firing.Rule, ev.Firing.Time, ev.Seq)
		case <-time.After(5 * time.Second):
			log.Fatal("subscription stalled")
		}
	}

	// Graceful drain: the router barriers every shard, flushes
	// subscribers, and closes the engines.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("cluster drained cleanly")
}
