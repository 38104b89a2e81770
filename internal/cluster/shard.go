package cluster

import (
	"sync"

	"ptlactive/client"
	"ptlactive/internal/adb"
	"ptlactive/internal/event"
	"ptlactive/internal/server"
	"ptlactive/internal/server/wire"
	"ptlactive/internal/value"
)

// Shard is one partition owner the router drives: an in-process engine
// behind its own commit pipeline, or a remote adbserverd. The Go* methods
// are asynchronous with per-shard submission ordering (exactly the
// server.Backend mutation contract); Follow streams the shard's complete
// firing log — backlog then live, exactly once, in the shard's order —
// into the router's fan-in.
type Shard interface {
	GoTxn(ts int64, updates map[string]value.Value, deletes []string,
		events []event.Event, done func(ts int64, err error))
	GoEmit(ts int64, events []event.Event, done func(ts int64, err error))
	GoRule(name, cond string, constraint bool, sched int, done func(error))
	GoRevive(name string, done func(error))
	// Now reads the shard clock; a remote shard surfaces connection
	// failures instead of reporting a bogus 0.
	Now() (int64, error)
	Items() (map[string]value.Value, error)
	Rules() ([]wire.RuleJSON, error)
	Health() ([]wire.HealthJSON, string, error)
	Storage() (wire.StorageJSON, error)
	Follow(fn func(server.FiringEvent)) error
	Barrier()
	Close() error
}

// LocalShard is an in-process engine shard: the engine behind its own
// serializing commit pipeline (server.EngineBackend), so a cluster of
// local shards runs N independent pipelines — and, for durable engines,
// N independent WALs whose group-commit fsyncs overlap.
type LocalShard struct {
	*server.EngineBackend
}

// NewLocalShard wraps an engine (memory-only from adb.NewEngine, or
// durable from adb.Restore) as a shard. The router becomes its only
// mutator; closing the cluster closes the engine.
func NewLocalShard(eng *adb.Engine) LocalShard {
	return LocalShard{EngineBackend: server.NewEngineBackend(eng)}
}

// Follow adapts the backend's backlog-then-live stream to the Shard
// contract (a local pipeline cannot fail to subscribe).
func (s LocalShard) Follow(fn func(server.FiringEvent)) error {
	s.EngineBackend.Follow(fn)
	return nil
}

// Now adapts the backend's clock read (a local read cannot fail).
func (s LocalShard) Now() (int64, error) {
	return s.EngineBackend.Now(), nil
}

// RemoteShard drives one adbserverd over the public client: mutations are
// pipelined on the session (issued in submission order, outcomes
// collected concurrently), and Follow rides a firing subscription. The
// remote server's own commit pipeline is the shard's serialization point.
type RemoteShard struct {
	cli *client.Client
	// ops issues frames in submission order: one goroutine drains it, so
	// two GoTxn calls reach the remote pipeline in call order even though
	// their outcomes are collected concurrently.
	ops     chan func()
	opsDone chan struct{}
	// outstanding tracks in-flight mutation outcomes for Barrier.
	outstanding sync.WaitGroup
	pumpDone    chan struct{}
	pumpStarted bool
	closeOnce   sync.Once
	closeErr    error
}

// DialShard connects a remote shard, negotiating the binary codec when
// the backend speaks it and retrying transient dial failures with capped
// exponential backoff (a router booting alongside its shards should not
// lose the race).
func DialShard(addr string) (*RemoteShard, error) {
	cli, err := client.DialOptions(addr, client.Options{Retry: client.DefaultRetry()})
	if err != nil {
		return nil, err
	}
	return NewRemoteShard(cli), nil
}

// NewRemoteShard wraps an established client session as a shard; the
// router owns the client from here on.
func NewRemoteShard(cli *client.Client) *RemoteShard {
	s := &RemoteShard{
		cli:      cli,
		ops:      make(chan func(), 256),
		opsDone:  make(chan struct{}),
		pumpDone: make(chan struct{}),
	}
	go func() {
		defer close(s.opsDone)
		for fn := range s.ops {
			fn()
		}
	}()
	return s
}

func (s *RemoteShard) GoTxn(ts int64, updates map[string]value.Value, deletes []string,
	events []event.Event, done func(int64, error)) {
	s.outstanding.Add(1)
	s.ops <- func() {
		tx := s.cli.Txn().At(ts).Emit(events...)
		for k, v := range updates {
			tx.Set(k, v)
		}
		for _, k := range deletes {
			tx.Delete(k)
		}
		p := tx.Go() // frame sent here, in ops order
		go func() {
			defer s.outstanding.Done()
			done(p.Wait())
		}()
	}
}

func (s *RemoteShard) GoEmit(ts int64, events []event.Event, done func(int64, error)) {
	// A true emit (no transaction bracketing events), synchronous on the
	// ops goroutine so later submissions stay ordered behind it.
	s.outstanding.Add(1)
	s.ops <- func() {
		defer s.outstanding.Done()
		done(s.cli.Emit(ts, events...))
	}
}

func (s *RemoteShard) GoRule(name, cond string, constraint bool, sched int, done func(error)) {
	s.outstanding.Add(1)
	s.ops <- func() {
		// Synchronous on the ops goroutine: later submissions observe the
		// rule registered, matching the local pipeline's ordering.
		defer s.outstanding.Done()
		var err error
		if constraint {
			err = s.cli.AddConstraint(name, cond, adb.Scheduling(sched))
		} else {
			err = s.cli.AddTrigger(name, cond, adb.Scheduling(sched))
		}
		done(err)
	}
}

func (s *RemoteShard) GoRevive(name string, done func(error)) {
	s.outstanding.Add(1)
	s.ops <- func() {
		defer s.outstanding.Done()
		done(s.cli.ReviveRule(name))
	}
}

func (s *RemoteShard) Now() (int64, error) { return s.cli.Now() }

func (s *RemoteShard) Items() (map[string]value.Value, error) { return s.cli.DB() }

func (s *RemoteShard) Rules() ([]wire.RuleJSON, error) {
	return s.cli.Rules()
}

func (s *RemoteShard) Health() ([]wire.HealthJSON, string, error) {
	h, err := s.cli.Health()
	if err != nil {
		return nil, "", err
	}
	return h.Rules, h.Degraded, nil
}

// Storage queries the remote server's storage footprint, satisfying the
// router's optional per-shard storage capability (LocalShard gets it from
// the embedded EngineBackend).
func (s *RemoteShard) Storage() (wire.StorageJSON, error) { return s.cli.Storage() }

// Follow subscribes from sequence 0 and pumps the stream into fn; the
// server's subscribe path makes backlog-then-live exactly-once. Gaps
// (this router lagging the shard's firing rate beyond the shard server's
// subscriber queue) surface as FiringEvent.Gap and are re-sequenced into
// the router's merged log.
func (s *RemoteShard) Follow(fn func(server.FiringEvent)) error {
	sub, err := s.cli.Subscribe(0)
	if err != nil {
		return err
	}
	s.pumpStarted = true
	go func() {
		defer close(s.pumpDone)
		for ev := range sub.C {
			fn(server.FiringEvent{F: ev.Firing, Seq: ev.Seq, Gap: ev.Gap})
		}
	}()
	return nil
}

// Barrier waits for every submitted mutation's outcome: the ops queue is
// flushed, then the in-flight responses collected.
func (s *RemoteShard) Barrier() {
	flushed := make(chan struct{})
	s.ops <- func() { close(flushed) }
	<-flushed
	s.outstanding.Wait()
}

// Close ends the session; the firing pump exits when the server's drain
// closes the subscription stream.
func (s *RemoteShard) Close() error {
	s.closeOnce.Do(func() {
		close(s.ops)
		<-s.opsDone
		s.outstanding.Wait()
		s.closeErr = s.cli.Close()
		if s.pumpStarted {
			<-s.pumpDone
		}
	})
	return s.closeErr
}
