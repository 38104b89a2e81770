package server

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ptlactive/internal/adb"
	"ptlactive/internal/event"
	"ptlactive/internal/server/wire"
	"ptlactive/internal/value"
)

// FiringEvent is one entry of a backend's absolute firing log: a firing
// together with its sequence number, or — when Gap is nonzero — a marker
// that Gap firings were lost upstream (a sharded backend whose shard
// subscription overflowed). Seq is the index of the firing itself; a gap
// entry's Seq is the index of the first lost firing, and the Gap entries
// consume Gap sequence numbers. A single-engine backend never produces
// gaps.
type FiringEvent struct {
	F   adb.Firing
	Seq int
	Gap int
}

// Backend is the execution target a Server fronts: one engine behind a
// serializing commit pipeline, or a cluster of them behind a router. The
// mutating methods are asynchronous — they enqueue the operation and
// invoke done with the outcome from the backend's serialization point —
// so a reader goroutine can keep dispatching pipelined requests while
// earlier ones commit. Operations submitted from one goroutine are
// applied in submission order (per shard, for a sharded backend).
//
// The read-only methods (Now, Items, Firings, Rules, Health) are safe for
// concurrent use and never block behind the mutation pipeline, so reads
// keep working while writes are refused on a degraded backend.
type Backend interface {
	// GoTxn applies a transaction at ts (0 = assign the next tick at the
	// serialization point) and calls done with the applied timestamp and
	// outcome.
	GoTxn(ts int64, updates map[string]value.Value, deletes []string,
		events []event.Event, done func(ts int64, err error))
	// GoEmit appends an event-only state, like GoTxn.
	GoEmit(ts int64, events []event.Event, done func(ts int64, err error))
	// GoRule registers a trigger (or constraint) under the scheduling mode.
	GoRule(name, cond string, constraint bool, sched int, done func(error))
	// GoRevive lifts a rule's quarantine.
	GoRevive(name string, done func(error))

	// OnHead registers the single head observer, called with the firing
	// log's next sequence number once new entries are readable through
	// Firings, before the reply of the operation that appended them, from
	// one goroutine at a time. The returned cancel removes it. The
	// observer runs on the backend's firing-producing goroutine, possibly
	// inside the engine call that fired, where the engine refuses its own
	// mutators with adb.ErrReentrant and a backend mutator would queue
	// behind the call that is running it: it should only hand the head off.
	OnHead(fn func(head int)) (cancel func())

	// Now returns the current engine time (the max across shards, for a
	// sharded backend).
	Now() int64
	// Items snapshots the database (the union across shards).
	Items() (map[string]value.Value, error)
	// Firings lists at most limit entries of the firing log from sequence
	// number from, and returns from clamped to [0, the log's next sequence
	// number]. A gap entry counts as one, and one whose lost range covers
	// from is listed first.
	Firings(from, limit int) (int, []FiringEvent, error)
	// Rules lists the registered rules in wire form.
	Rules() ([]wire.RuleJSON, error)
	// Health lists per-rule health and the degraded cause ("" if healthy).
	Health() ([]wire.HealthJSON, string, error)
	// Storage reports the storage footprint behind the backend (WAL
	// segments and snapshot chain, summed across shards). A memory engine
	// reports zero persistence fields.
	Storage() (wire.StorageJSON, error)

	// Barrier returns after every operation submitted before the call has
	// been applied and its done callback invoked.
	Barrier()
	// Close shuts the backend down: stops the pipeline after draining
	// submitted operations and releases the engine(s). No Go* calls may be
	// made after Close begins.
	Close() error
}

// EngineBackend runs one adb.Engine behind a serializing commit pipeline:
// every mutation executes on a single goroutine in submission order, so
// the engine's deterministic firing order is preserved. It is the backend
// a single-node server fronts, and the per-shard building block of the
// cluster router.
type EngineBackend struct {
	Reads
	eng *adb.Engine
	// ops is the pipeline: mutations execute on the goroutine draining it.
	ops      chan func()
	pipeDone chan struct{}
	// after runs on the pipeline goroutine after every op (see AfterOps).
	after func()

	obs       atomic.Pointer[func(int)]
	cancelObs func()
	closeOnce sync.Once
	closeErr  error
}

// NewEngineBackend wraps eng in a commit pipeline and starts it. The
// engine must not be mutated by anyone else from here on; Close closes it.
// The pipeline compacts it (compactEvery), so Engine.ItemAsOfChecked
// refuses a time older than the floor the last compaction left with
// ErrHistoryTruncated.
func NewEngineBackend(eng *adb.Engine) *EngineBackend {
	b := &EngineBackend{
		Reads:    ReadsOf(func() *adb.Engine { return eng }),
		eng:      eng,
		ops:      make(chan func(), 256),
		pipeDone: make(chan struct{}),
	}
	b.cancelObs = eng.OnFiring(b.fired)
	go b.pipeline()
	return b
}

// Engine exposes the wrapped engine for read-only inspection (tests and
// the cluster's equivalence checks); mutating it directly would race the
// pipeline.
func (b *EngineBackend) Engine() *adb.Engine { return b.eng }

// compactEvery is how many operations the pipeline runs between its own
// Engine.Compact calls. bench/'s traced durable-served run prices both
// sides (2 vCPUs, go1.24): a compaction takes ≈ 18 µs (adb.compact_us) and
// logs one record, ≈ 0.3 µs and 1/64 of a WAL flush per commit at 64,
// while a consumed state holds ≈ 2 KB of heap (adb.heap_per_state_bytes),
// so the consumed history a served engine retains stays below ≈ 128 KB.
const compactEvery = 64

// pipeline runs the operations in submission order. Every compactEvery-th
// one is followed by a compaction: no served operation reads a state below
// the rules' cursors, and the compact record it logs replays on followers
// and at restore, and ships with that operation's batch.
func (b *EngineBackend) pipeline() {
	defer close(b.pipeDone)
	n := 0
	for fn := range b.ops {
		fn()
		if n++; n%compactEvery == 0 {
			b.eng.Compact()
		}
		if b.after != nil {
			b.after()
		}
	}
}

// AfterOps installs fn to run on the pipeline goroutine after every
// operation, once the operation's done callback has run: whatever fn sends
// leaves after that operation's reply is enqueued, and before the next
// operation starts. Call it at the serialization point (inside Do). The
// replication shipper delivers a commit's WAL batches through it.
func (b *EngineBackend) AfterOps(fn func()) { b.after = fn }

// fired runs inside the engine call that produced the firing, on the
// pipeline goroutine, once the firing is in the log: the observer sees
// every head in order, each before the reply of the operation that fired.
func (b *EngineBackend) fired(adb.Firing) {
	if fn := b.obs.Load(); fn != nil {
		(*fn)(b.eng.FiringCount())
	}
}

func (b *EngineBackend) GoTxn(ts int64, updates map[string]value.Value, deletes []string,
	events []event.Event, done func(int64, error)) {
	b.ops <- func() {
		// Timestamp 0 asks for the next tick; the pipeline is the only
		// mutator, so now+1 is race-free and strictly increasing.
		if ts == 0 {
			ts = b.eng.Now() + 1
		}
		done(ts, b.eng.ExecTxn(ts, updates, deletes, events...))
	}
}

func (b *EngineBackend) GoEmit(ts int64, events []event.Event, done func(int64, error)) {
	b.ops <- func() {
		if ts == 0 {
			ts = b.eng.Now() + 1
		}
		done(ts, b.eng.Emit(ts, events...))
	}
}

// GoRule registers a rule with no action. It refuses Manual scheduling:
// such a rule steps only on Engine.Flush, which no served operation runs,
// so it would never fire and would pin history for the engine's life.
func (b *EngineBackend) GoRule(name, cond string, constraint bool, sched int, done func(error)) {
	b.ops <- func() {
		if adb.Scheduling(sched) == adb.Manual {
			done(fmt.Errorf("server: rule %s: Manual scheduling steps only on Engine.Flush, which no served operation runs", name))
			return
		}
		opt := adb.WithScheduling(adb.Scheduling(sched))
		if constraint {
			done(b.eng.AddConstraint(name, cond, opt))
		} else {
			done(b.eng.AddTrigger(name, cond, nil, opt))
		}
	}
}

func (b *EngineBackend) GoRevive(name string, done func(error)) {
	b.ops <- func() { done(b.eng.ReviveRule(name)) }
}

func (b *EngineBackend) OnHead(fn func(head int)) (cancel func()) {
	b.obs.Store(&fn)
	return func() { b.obs.CompareAndSwap(&fn, nil) }
}

// Follow streams the whole firing log through fn: the backlog first, then
// every live firing, each exactly once in order, read from a cursor at
// each head as a subscriber's writer reads it. Follow takes the single
// head observer slot; the cluster router's per-shard fan-in uses it.
func (b *EngineBackend) Follow(fn func(FiringEvent)) {
	next := 0
	follow := func(head int) {
		_, fes := Backlog(b.eng, next, head-next)
		for _, fe := range fes {
			fn(fe)
		}
		next += len(fes)
	}
	b.ops <- func() {
		follow(b.eng.FiringCount())
		b.OnHead(follow)
	}
}

// Storage reads the stats at the serialization point (the persist layer is
// not synchronized against a concurrent append).
func (b *EngineBackend) Storage() (st wire.StorageJSON, err error) {
	b.Do(func() { st, err = b.eng.Storage() })
	return st, err
}

// Do runs fn at the backend's serialization point — atomically with
// respect to commits — and waits for it. The replication shipper uses it
// to install the WAL flush hook and read the backlog without racing a
// concurrent flush; fn must not call backend mutators (deadlock).
func (b *EngineBackend) Do(fn func()) {
	done := make(chan struct{})
	b.ops <- func() { fn(); close(done) }
	<-done
}

func (b *EngineBackend) Barrier() {
	barrier := make(chan struct{})
	b.ops <- func() { close(barrier) }
	<-barrier
}

func (b *EngineBackend) Close() error {
	b.closeOnce.Do(func() {
		b.cancelObs()
		close(b.ops)
		<-b.pipeDone
		b.closeErr = b.eng.Close()
	})
	return b.closeErr
}
