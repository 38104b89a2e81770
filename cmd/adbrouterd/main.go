// Command adbrouterd fronts a sharded active database cluster: N
// independent engines own disjoint hash partitions of the item space and
// event symbols, and the router serves them behind the ordinary ptlactive
// wire protocol — package client, adbsh -connect and existing tooling
// work unchanged against it.
//
// In-process shards (each with its own commit pipeline, and with -data
// its own write-ahead log and snapshots):
//
//	adbrouterd -addr 127.0.0.1:7410 -local 8 -data /var/lib/adbcluster
//
// Remote shards, each an adbserverd the router drives over the wire:
//
//	adbrouterd -addr :7410 -shards 10.0.0.1:7411,10.0.0.2:7411
//
// Transactions route to the single shard owning every item and event
// symbol they touch; operations that span shards are refused with the
// cross_shard error code. Rules register on the shard owning their
// read-set footprint; a trigger observing an event symbol owned by
// another shard gets a hidden relay trigger there whose occurrences the
// router forwards. Per-shard firing streams merge into one globally
// sequenced subscription feed.
//
// SIGTERM or SIGINT drains gracefully: stop accepting, finish queued
// commits on every shard, flush subscribers, close the shards, exit 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ptlactive/internal/adb"
	"ptlactive/internal/cluster"
	"ptlactive/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7410", "listen address (use :0 for a random port with -port-file)")
	portFile := flag.String("port-file", "", "write the bound address to this file once listening")
	local := flag.Int("local", 0, "run this many in-process engine shards")
	shardAddrs := flag.String("shards", "", "comma-separated adbserverd addresses to use as remote shards")
	dataDir := flag.String("data", "", "durable shard directories under this root (shard0, shard1, ...); -local only, empty = memory-only")
	workers := flag.Int("workers", 0, "per-shard worker pool size for rule evaluation (0 = all cores, 1 = sequential)")
	maxConns := flag.Int("max-conns", 64, "maximum concurrent client sessions")
	idleTimeout := flag.Duration("idle-timeout", 0, "drop sessions idle longer than this (0 = never)")
	subQueue := flag.Int("sub-queue", 256, "bounded firing queue per subscriber")
	overflow := flag.String("overflow", "drop", "subscriber overflow policy: drop (gap markers) or disconnect")
	maxFailures := flag.Int("max-failures", 0, "quarantine a rule after this many consecutive action failures (0 = never)")
	sweepBudget := flag.Int64("sweep-budget", 0, "max evaluator steps per sweep (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown bound")
	segBytes := flag.Int64("wal-segment-bytes", 0, "per-shard WAL segment rotation size; snapshot-covered segments are GCed (0 = single segment forever)")
	keepSnaps := flag.Int("keep-snapshots", 0, "per-shard snapshot chain length after each checkpoint (0/1 = newest only)")
	flag.Parse()

	var policy server.OverflowPolicy
	switch *overflow {
	case "drop":
		policy = server.DropWithGap
	case "disconnect":
		policy = server.Disconnect
	default:
		fatal(fmt.Errorf("bad -overflow %q: want drop or disconnect", *overflow))
	}

	var shards []cluster.Shard
	switch {
	case *local > 0 && *shardAddrs != "":
		fatal(fmt.Errorf("-local and -shards are mutually exclusive"))
	case *local > 0:
		cfg := adb.Config{
			Workers:         *workers,
			MaxRuleFailures: *maxFailures,
			SweepBudget:     *sweepBudget,
			Retention: adb.Retention{
				SegmentBytes:  *segBytes,
				KeepSnapshots: *keepSnaps,
			},
		}
		for i := 0; i < *local; i++ {
			var eng *adb.Engine
			if *dataDir != "" {
				scfg := cfg
				scfg.Durability = adb.DurabilityWAL
				dir := filepath.Join(*dataDir, fmt.Sprintf("shard%d", i))
				if err := os.MkdirAll(dir, 0o755); err != nil {
					fatal(err)
				}
				var err error
				eng, err = adb.Restore(scfg, dir)
				if err != nil {
					fatal(fmt.Errorf("shard %d: %w", i, err))
				}
				info := eng.Recovery()
				if info.SnapshotLSN > 0 || info.ReplayedRecords > 1 {
					logf("shard %d recovered: snapshot LSN %d, %d wal records replayed",
						i, info.SnapshotLSN, info.ReplayedRecords)
				}
			} else {
				eng = adb.NewEngine(cfg)
			}
			shards = append(shards, cluster.NewLocalShard(eng))
		}
	case *shardAddrs != "":
		if *dataDir != "" {
			fatal(fmt.Errorf("-data applies to -local shards only; remote shards own their durability"))
		}
		for i, a := range strings.Split(*shardAddrs, ",") {
			a = strings.TrimSpace(a)
			sh, err := cluster.DialShard(a)
			if err != nil {
				fatal(fmt.Errorf("shard %d (%s): %w", i, a, err))
			}
			shards = append(shards, sh)
			logf("shard %d: %s", i, a)
		}
	default:
		fatal(fmt.Errorf("need -local N or -shards addr,addr"))
	}

	front, err := cluster.New(cluster.Config{Shards: shards, Logf: logf})
	if err != nil {
		fatal(err)
	}
	logf("routing across %d shards", len(shards))

	srv, err := server.New(server.Config{
		Backend:         front,
		MaxConns:        *maxConns,
		IdleTimeout:     *idleTimeout,
		SubscriberQueue: *subQueue,
		Overflow:        policy,
		Logf:            logf,
	})
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fatal(err)
		}
	}
	logf("listening on %s", ln.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case sig := <-sigs:
		logf("%v: draining (bound %v)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fatal(fmt.Errorf("drain: %w", err))
		}
		logf("clean drain")
	case err := <-serveErr:
		fatal(err)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "adbrouterd: "+format+"\n", args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adbrouterd:", err)
	os.Exit(1)
}
