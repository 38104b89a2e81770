package experiments

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"ptlactive/client"
	"ptlactive/internal/adb"
	"ptlactive/internal/cluster"
	"ptlactive/internal/server"
	"ptlactive/internal/value"
)

// E14Config parameterizes one sharded-cluster measurement: how many
// in-process shards the router fronts, the shared workload every shard
// count runs (items, per-item rules, commits), and the client shape.
type E14Config struct {
	Shards int
	// Items is the partitioned item universe; every item carries one
	// integrity constraint and one trigger, so the cluster-wide rule table
	// is 2*Items regardless of the shard count — what changes is how many
	// of them each shard's commit path has to evaluate.
	Items int
	// Commits is the total commit count, sprayed round-robin over the
	// items (and therefore over the shards).
	Commits int
	// Clients and Window shape the load: Clients concurrent sessions,
	// each keeping Window commits in flight (pipelining keeps several
	// shards' commit pipelines and WAL fsyncs busy at once).
	Clients, Window int
	// Durable gives every shard its own write-ahead log + group commit in
	// a temp directory, so shard counts also overlap their fsyncs.
	Durable bool
}

// E14RunConfig runs one cluster scenario: a router over cfg.Shards
// in-process engines behind a loopback wire server, the per-item rules
// registered through the router (each lands on the shard owning its
// item), then cfg.Clients sessions committing the shared workload. The
// clock covers the commits only — rule registration and connection setup
// are excluded. Returns the wall time.
func E14RunConfig(cfg E14Config) time.Duration {
	items := make([]string, cfg.Items)
	for i := range items {
		items[i] = fmt.Sprintf("metric%03d", i)
	}

	engCfg := adb.Config{}
	shards := make([]cluster.Shard, cfg.Shards)
	for i := range shards {
		var eng *adb.Engine
		if cfg.Durable {
			dir, err := os.MkdirTemp("", "e14shard")
			if err != nil {
				panic(err)
			}
			defer os.RemoveAll(dir)
			scfg := engCfg
			scfg.Durability = adb.DurabilityWAL
			eng, err = adb.Restore(scfg, dir)
			if err != nil {
				panic(err)
			}
		} else {
			eng = adb.NewEngine(engCfg)
		}
		shards[i] = cluster.NewLocalShard(eng)
	}
	front, err := cluster.New(cluster.Config{Shards: shards})
	if err != nil {
		panic(err)
	}
	srv, err := server.New(server.Config{
		Backend:  front,
		MaxConns: cfg.Clients + 8,
	})
	if err != nil {
		panic(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	addr := ln.Addr().String()

	admin, err := client.Dial(addr)
	if err != nil {
		panic(err)
	}
	defer admin.Close()
	// Seed every item and register its rules: a never-violated integrity
	// constraint (stepped against every tentative commit on its shard) and
	// a cold trigger (read-set gated, swept only when its item changes).
	for _, it := range items {
		if _, err := admin.Exec(0, map[string]value.Value{it: value.NewInt(1)}); err != nil {
			panic(err)
		}
		if err := admin.AddConstraint("cap_"+it, fmt.Sprintf("item(%q) < 1000000", it)); err != nil {
			panic(err)
		}
		if err := admin.AddTrigger("hot_"+it, fmt.Sprintf("item(%q) > 999999", it)); err != nil {
			panic(err)
		}
	}

	committers := make([]*client.Client, cfg.Clients)
	for ci := range committers {
		c, err := client.Dial(addr)
		if err != nil {
			panic(err)
		}
		defer c.Close()
		committers[ci] = c
	}
	window := cfg.Window
	if window < 1 {
		window = 1
	}
	per := cfg.Commits / cfg.Clients

	start := time.Now()
	var wg sync.WaitGroup
	for ci := range committers {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := committers[ci]
			pending := make([]*client.Pending, 0, window)
			flush := func() {
				for _, p := range pending {
					if _, err := p.Wait(); err != nil {
						panic(err)
					}
				}
				pending = pending[:0]
			}
			for i := 0; i < per; i++ {
				it := items[(ci*per+i)%len(items)]
				p := c.Txn().Set(it, value.NewInt(int64(i+2))).Go()
				pending = append(pending, p)
				if len(pending) >= window {
					flush()
				}
			}
			flush()
		}(ci)
	}
	wg.Wait()
	return time.Since(start)
}

// E14Cluster measures horizontal sharding: the same constraint-heavy
// workload routed across 1, 2, 4 and 8 in-process shards, durable (per-shard
// write-ahead logs, fsync on) and again memory-only. Every commit steps
// every constraint on its shard — once, in place — so partitioning the rule
// table divides that walk, which is what the memory columns isolate; the
// durable columns add what now dominates a served commit, the fsync, which
// eight logs overlap. Speedups are aggregate commit throughput relative to
// the single-shard row.
func E14Cluster(quick bool) Table {
	ncommits, nitems := 400, 160
	if quick {
		ncommits, nitems = 120, 80
	}
	t := Table{
		ID:    "E14",
		Title: "sharded cluster commit throughput",
		Header: []string{"shards", "items", "rules", "commits", "total ms",
			"us/commit", "speedup", "mem us/commit", "mem speedup"},
		Notes: "loopback TCP through the cluster router, in-process shards, 4 pipelined " +
			"sessions; durable columns give every shard its own WAL (fsync on, temp dirs), " +
			"mem columns run the same shards memory-only. Each item carries one integrity " +
			"constraint and one trigger; a commit steps every constraint on its shard once, " +
			"in place, so the mem columns show the rule-table walk sharding divides and the " +
			"durable ones add the fsyncs eight logs overlap. Same workload, same total rule " +
			"count, every row.",
	}
	// Best of three: durable runs are long enough to damp scheduler noise,
	// but fsync latency still jitters a one-shot sample.
	best := func(cfg E14Config) time.Duration {
		dur := E14RunConfig(cfg)
		for rep := 1; rep < 3; rep++ {
			if d := E14RunConfig(cfg); d < dur {
				dur = d
			}
		}
		return dur
	}
	var base, memBase time.Duration
	for _, shards := range []int{1, 2, 4, 8} {
		cfg := E14Config{
			Shards: shards, Items: nitems, Commits: ncommits,
			Clients: 4, Window: 16, Durable: true,
		}
		dur := best(cfg)
		cfg.Durable = false
		mem := best(cfg)
		if shards == 1 {
			base, memBase = dur, mem
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(shards), fmt.Sprint(nitems), fmt.Sprint(2 * nitems),
			fmt.Sprint(ncommits), fmtMs(dur), fmtDur(dur, ncommits),
			fmt.Sprintf("%.1fx", float64(base)/float64(dur)),
			fmtDur(mem, ncommits), fmt.Sprintf("%.1fx", float64(memBase)/float64(mem)),
		})
	}
	return t
}
