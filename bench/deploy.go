package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ptlactive/bench/gen"
	"ptlactive/client"
	"ptlactive/internal/adb"
	"ptlactive/internal/replica"
	"ptlactive/internal/server"
)

// The bounded runs keep the WAL's fsync off. On the box this benchmark was
// defined on the median of a served commit with fsync on moved between 209
// and 324 us over eight runs of 17 000 to 22 000 commits each (the virtual
// block device drifts over tens of seconds, whatever the process does), a
// spread of 16 to 21 % that no bound of the contract's size holds. So the
// end-to-end run prices everything but the fsync (record encode, write,
// segment rotation, checkpoints between the phases), and the per-layer run
// deploys with fsync on, as adbserverd runs: its ladder, its synchronous
// commit and its pipelined throughput all contain the fsync.
const (
	// subscriberQueue is raised from the server's default of 256 (as E13's
	// fan-out rows do): with the default, the closed loop's bursts overflow
	// the queue and the drop policy answers with gaps, and the benchmark
	// would measure the overflow policy and not delivery.
	subscriberQueue = 4096

	segmentBytes  = 1 << 20
	keepSnapshots = 2
	// recoveryTail is how many commits follow the last checkpoint of the
	// durable run, so that recovery always replays the same amount of log.
	recoveryTail = 500
)

// engineConfig is the configuration users get: Workers 0 and nothing
// ablated. Durable deployments log every commit (no group commit) into
// rotating segments; fsync selects the real durability of the per-layer
// run.
func engineConfig(w *gen.Workload, d deployment, fsync bool) adb.Config {
	cfg := adb.Config{Initial: w.Initial}
	if d.durable() {
		cfg.Durability = adb.DurabilityWAL
		cfg.NoFsync = !fsync
	}
	if d == servedDurable {
		// The replicated pair keeps one segment and no snapshots, so the
		// follower's log stays a byte copy of the primary's, which the run
		// verifies.
		cfg.Retention = adb.Retention{SegmentBytes: segmentBytes, KeepSnapshots: keepSnapshots}
	}
	return cfg
}

// newEngine opens the workload's engine (in dir when durable) and
// registers its rule table, or only the triggers when constraints is false
// (the constraint-cost subtraction of the per-layer run).
func newEngine(w *gen.Workload, cfg adb.Config, dir string, constraints bool) (*adb.Engine, error) {
	var eng *adb.Engine
	if cfg.Durability == adb.DurabilityOff {
		eng = adb.NewEngine(cfg)
	} else {
		var err error
		if eng, err = adb.Restore(cfg, dir); err != nil {
			return nil, err
		}
	}
	for _, r := range w.Rules {
		var err error
		switch {
		case !r.Constraint:
			err = eng.AddTrigger(r.Name, r.Cond, nil, adb.WithScheduling(r.Sched))
		case constraints:
			err = eng.AddConstraint(r.Name, r.Cond, adb.WithScheduling(r.Sched))
		}
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", r.Name, err)
		}
	}
	return eng, nil
}

// system is one deployed system under test with its client connections.
type system struct {
	eng *adb.Engine // the primary (or only) engine
	dir string      // its data directory, "" for memory engines

	srv    *server.Server
	be     *server.EngineBackend // the primary's commit pipeline
	commit *client.Client        // connection 1: the committer
	watch  *client.Client        // connection 2: subscriber and reader (on the follower when replicated)
	sub    *client.Subscription  // the firing stream on connection 2

	// walBytes and walFlushes count what the engine handed to its WAL
	// (servedDurable only; the replicated primary's hook is the shipper's).
	walBytes, walFlushes atomic.Int64

	follower *replica.Node
	fdir     string
	fsrv     *server.Server
	stream   *replica.Stream
}

func serve(cfg server.Config) (*server.Server, string, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	go srv.Serve(ln) // returns when Shutdown closes the listener
	return srv, ln.Addr().String(), nil
}

// deploy builds the system a spec describes under root (a fresh directory
// per call) and connects to it. What it does is what setup_s times: build
// the database, register the rules, open the store, listen, dial. Without
// subscribe connection 2 stays a plain reader (the fan-out subtraction);
// fsync is for the durable deployments, follower included.
func deploy(s spec, w *gen.Workload, root string, subscribe, fsync bool) (*system, error) {
	sys := &system{}
	if s.deploy.durable() {
		sys.dir = filepath.Join(root, "primary")
		if err := os.MkdirAll(sys.dir, 0o755); err != nil {
			return nil, err
		}
	}
	eng, err := newEngine(w, engineConfig(w, s.deploy, fsync), sys.dir, true)
	if err != nil {
		return nil, err
	}
	sys.eng = eng
	if s.deploy == servedDurable {
		eng.WALFlushHook(func(data []byte, first, last int64) {
			sys.walBytes.Add(int64(len(data)))
			sys.walFlushes.Add(1)
		})
	}
	if !s.deploy.served() {
		return sys, nil
	}
	var addr string
	if s.deploy == servedReplica {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr = ln.Addr().String()
		sys.be = server.NewEngineBackend(eng)
		node := replica.NewPrimary(sys.be, addr)
		if sys.srv, err = server.New(server.Config{Backend: node, WALSource: node, RoleInfo: node.RoleInfo, SubscriberQueue: subscriberQueue}); err != nil {
			return nil, err
		}
		go sys.srv.Serve(ln)
		sys.fdir = filepath.Join(root, "follower")
		fln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		faddr := fln.Addr().String()
		if sys.follower, err = replica.NewFollower(adb.Config{NoFsync: !fsync}, sys.fdir, addr, faddr); err != nil {
			return nil, err
		}
		f := sys.follower
		if sys.fsrv, err = server.New(server.Config{Backend: f, WALSource: f, RoleInfo: f.RoleInfo, SubscriberQueue: subscriberQueue}); err != nil {
			return nil, err
		}
		go sys.fsrv.Serve(fln)
		sys.stream = replica.StartStream(f, replica.StreamConfig{Primary: addr})
		// The follower serves nothing until the primary's init record has
		// arrived; a subscription before that would have no engine to read.
		for deadline := time.Now().Add(10 * time.Second); f.LastLSN() < eng.WALLastLSN(); {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("follower did not catch up during setup")
			}
			time.Sleep(time.Millisecond)
		}
		if sys.watch, err = client.Dial(faddr); err != nil {
			return nil, err
		}
	} else {
		sys.be = server.NewEngineBackend(eng)
		if sys.srv, addr, err = serve(server.Config{Backend: sys.be, SubscriberQueue: subscriberQueue}); err != nil {
			return nil, err
		}
		if sys.watch, err = client.Dial(addr); err != nil {
			return nil, err
		}
	}
	if sys.commit, err = client.Dial(addr); err != nil {
		return nil, err
	}
	if subscribe {
		if sys.sub, err = sys.watch.Subscribe(0); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// close stops everything deploy started and waits for it. abandon leaves
// the primary engine unclosed (its server is not shut down gracefully), as
// a killed process would; the data directory is then what recovery sees.
func (sys *system) close(abandon bool) {
	if sys.commit != nil {
		sys.commit.Close()
	}
	if sys.watch != nil {
		sys.watch.Close()
	}
	if sys.stream != nil {
		sys.stream.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if sys.fsrv != nil {
		sys.fsrv.Shutdown(ctx)
	}
	switch {
	case sys.srv == nil:
		sys.eng.Close()
	case !abandon:
		sys.srv.Shutdown(ctx) // closes the engine
	}
}

// checkpoint snapshots the durable engine at the pipeline's serialization
// point: compaction, snapshot, segment rotation and log GC, as the
// automatic policy would run them, but between the timed phases (the
// snapshot's own fsyncs cannot be turned off).
func (sys *system) checkpoint() error {
	var err error
	sys.be.Do(func() { err = sys.eng.Checkpoint() })
	return err
}
