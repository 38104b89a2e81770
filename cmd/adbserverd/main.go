// Command adbserverd serves one active database engine over the network:
// clients connect with the ptlactive wire protocol (package client, or
// adbsh -connect), run transactions, register rules, query state and
// subscribe to rule firings.
//
//	adbserverd -addr 127.0.0.1:7411 -data /var/lib/adb
//
// All mutations are serialized through one commit pipeline, so the firing
// stream every subscriber sees is the deterministic stream a single
// process would produce for the same commit order. With -data the engine
// is durable (write-ahead log + snapshots) and a restart recovers it.
//
// Replication (DESIGN.md §4i): a durable server is always a replication
// primary — followers connect with the replicate request and receive
// every WAL frame as it becomes durable. A server started with -replica-of runs as
// a follower instead: it replays the primary's WAL into its own
// directory, serves reads and firing subscriptions, and refuses writes
// with a not_primary redirect. With -lease both roles take part in
// failover: the primary must hold the flock lease to serve writes (and
// fail-stops if the lease anchor breaks), a follower polls the lease and
// promotes itself — fenced by the lease's epoch — the moment the
// primary's death releases it.
//
//	adbserverd -addr :7411 -data /var/lib/adb/a -lease /var/lib/adb/lease
//	adbserverd -addr :7412 -data /var/lib/adb/b -lease /var/lib/adb/lease \
//	           -replica-of 127.0.0.1:7411
//
// Subscription queues are bounded (-sub-queue); -overflow picks what
// happens to a lagging subscriber: "drop" delivers a gap marker counting
// the missed firings, "disconnect" severs the connection.
//
// Storage lifecycle (DESIGN.md §4k): -snapshot-every picks a checkpoint
// cadence, -wal-segment-bytes a rotation size and -keep-snapshots the
// chain depth, so a server under sustained commits holds a bounded hot set
// on disk. The "storage" query (adbsh storage) reports the
// resulting footprint.
//
// SIGTERM or SIGINT drains gracefully: stop accepting, finish queued
// commits, flush every subscriber queue, close the engine, exit 0.
//
// -port-file writes the actually bound address (useful with -addr :0) so
// scripts can find the server.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ptlactive/internal/adb"
	"ptlactive/internal/replica"
	"ptlactive/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7411", "listen address (use :0 for a random port with -port-file)")
	portFile := flag.String("port-file", "", "write the bound address to this file once listening")
	dataDir := flag.String("data", "", "durable engine directory (write-ahead log + snapshots); empty = memory-only")
	workers := flag.Int("workers", 0, "worker pool size for rule evaluation (0 = all cores, 1 = sequential)")
	maxConns := flag.Int("max-conns", 64, "maximum concurrent client sessions")
	idleTimeout := flag.Duration("idle-timeout", 0, "drop sessions idle longer than this (0 = never)")
	subQueue := flag.Int("sub-queue", 256, "bounded firing queue per subscriber")
	overflow := flag.String("overflow", "drop", "subscriber overflow policy: drop (gap markers) or disconnect")
	maxFailures := flag.Int("max-failures", 0, "quarantine a rule after this many consecutive action failures (0 = never)")
	sweepBudget := flag.Int64("sweep-budget", 0, "max evaluator steps per sweep (0 = unlimited)")
	actionTimeout := flag.Duration("action-timeout", 0, "per-action deadline (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown bound")
	replicaOf := flag.String("replica-of", "", "run as a follower replicating from this primary address")
	leasePath := flag.String("lease", "", "primary lease file (flock-anchored); primaries must hold it, followers poll it to promote")
	leasePoll := flag.Duration("lease-poll", 200*time.Millisecond, "follower lease poll / primary lease verify interval")
	advertise := flag.String("advertise", "", "address clients should redial this node at (default: the bound address)")
	snapEvery := flag.Int("snapshot-every", 0, "checkpoint a snapshot every N commits; snapshot-covered WAL segments become GC-eligible (0 = wal-only durability)")
	segBytes := flag.Int64("wal-segment-bytes", 0, "rotate the WAL at this segment size; snapshot-covered segments are GCed (0 = single segment forever)")
	keepSnaps := flag.Int("keep-snapshots", 0, "snapshot chain length after each checkpoint (0/1 = newest only)")
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
	if *replicaOf != "" && *dataDir == "" {
		fatal(fmt.Errorf("-replica-of requires -data (the follower persists the shipped wal)"))
	}

	cfg := adb.Config{
		Workers:         *workers,
		MaxRuleFailures: *maxFailures,
		SweepBudget:     *sweepBudget,
		ActionTimeout:   *actionTimeout,
		Retention: adb.Retention{
			SegmentBytes:  *segBytes,
			KeepSnapshots: *keepSnaps,
		},
	}

	// Listen before building the node so the default advertise address is
	// the real bound one (-addr :0 resolves here).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	selfAddr := *advertise
	if selfAddr == "" {
		selfAddr = ln.Addr().String()
	}

	scfg := server.Config{
		MaxConns:        *maxConns,
		IdleTimeout:     *idleTimeout,
		SubscriberQueue: *subQueue,
		Overflow:        policy,
		Logf:            logf,
	}

	var node *replica.Node
	switch {
	case *replicaOf != "":
		// Follower: replay the primary's WAL, refuse writes, maybe promote.
		node, err = replica.NewFollower(cfg, *dataDir, *replicaOf, selfAddr)
		if err != nil {
			fatal(err)
		}
		stream := replica.StartStream(node, replica.StreamConfig{Primary: *replicaOf, Logf: logf})
		if *leasePath != "" {
			go pollLease(node, stream, *leasePath, selfAddr, *leasePoll)
		}
		scfg.Backend = node
		scfg.WALSource = node
		scfg.RoleInfo = node.RoleInfo
		logf("follower of %s (data %s)", *replicaOf, *dataDir)

	case *dataDir != "":
		// Durable primary: hold the lease (when configured) before touching
		// the data, then serve writes and replication.
		var lease *replica.FileLease
		if *leasePath != "" {
			lease, err = replica.TryAcquire(*leasePath, selfAddr)
			if err != nil {
				fatal(fmt.Errorf("acquire lease: %w", err))
			}
			logf("holding lease %s at epoch %d", *leasePath, lease.Epoch())
		}
		cfg.Durability = adb.DurabilityWAL
		if *snapEvery > 0 {
			cfg.Durability = adb.DurabilitySnapshot
			cfg.SnapshotEvery = *snapEvery
		}
		eng, err := adb.Restore(cfg, *dataDir)
		if err != nil {
			fatal(err)
		}
		info := eng.Recovery()
		if info.SnapshotLSN > 0 || info.ReplayedRecords > 1 {
			logf("recovered: snapshot LSN %d, %d wal records replayed", info.SnapshotLSN, info.ReplayedRecords)
		}
		node = replica.NewPrimary(server.NewEngineBackend(eng), selfAddr)
		if lease != nil {
			if err := node.Shipper().BumpEpoch(lease.Epoch()); err != nil {
				fatal(fmt.Errorf("fence epoch %d: %w", lease.Epoch(), err))
			}
			go guardLease(lease, *leasePoll)
		}
		scfg.Backend = node
		scfg.WALSource = node
		scfg.RoleInfo = node.RoleInfo

	default:
		// Memory-only: no WAL, so no replication; plain standalone engine.
		scfg.Engine = adb.NewEngine(cfg)
	}

	srv, err := server.New(scfg)
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

// pollLease is the follower's promotion loop: poll TryAcquire until the
// primary's death releases the flock, then stop the replication stream
// and promote under the lease's freshly minted epoch.
func pollLease(node *replica.Node, stream *replica.Stream, path, owner string, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for range t.C {
		lease, err := replica.TryAcquire(path, owner)
		if errors.Is(err, replica.ErrLeaseHeld) {
			continue
		}
		if err != nil {
			logf("lease poll: %v", err)
			continue
		}
		logf("lease %s acquired at epoch %d; promoting", path, lease.Epoch())
		stream.Stop()
		if err := node.Promote(lease.Epoch()); err != nil {
			fatal(fmt.Errorf("promote: %w", err))
		}
		logf("promoted to primary at epoch %d", lease.Epoch())
		guardLease(lease, every)
		return
	}
}

// guardLease fail-stops the primary if its lease anchor breaks: a
// replaced or deleted lease file means this process can no longer prove
// it is the primary, and continuing to acknowledge writes would split the
// brain.
func guardLease(lease *replica.FileLease, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for range t.C {
		if err := lease.Verify(); err != nil {
			fatal(err)
		}
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "adbserverd: "+format+"\n", args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adbserverd:", err)
	os.Exit(1)
}
