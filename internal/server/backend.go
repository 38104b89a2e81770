package server

import (
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

	// OnFiring registers the single firing observer, called for every
	// subsequent firing (and gap) in sequence order from one goroutine at
	// a time. The returned cancel removes it. Observers must not call
	// backend mutators and should hand the event off quickly: they run on
	// the backend's firing-producing goroutine.
	OnFiring(fn func(FiringEvent)) (cancel func())
	// SyncFirings delivers the firing backlog from the given sequence
	// number, atomically with respect to the live OnFiring stream: fn runs
	// at the serialization point with the clamped start index, and every
	// firing after the backlog is observed through OnFiring exactly once.
	SyncFirings(from int, fn func(from int, backlog []FiringEvent))

	// Now returns the current engine time (the max across shards, for a
	// sharded backend).
	Now() int64
	// Items snapshots the database (the union across shards).
	Items() (map[string]value.Value, error)
	// Firings lists the firing log from the given sequence number.
	Firings(from int) ([]FiringEvent, error)
	// Rules lists the registered rules in wire form.
	Rules() ([]wire.RuleJSON, error)
	// Health lists per-rule health and the degraded cause ("" if healthy).
	Health() ([]wire.HealthJSON, string, error)
	// Storage reports the storage footprint behind the backend (WAL
	// segments, snapshot chain, retained-history window, cold tier; summed
	// across shards). A memory engine reports zero persistence fields.
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
	// seq is the next firing's absolute index; touched only on the
	// pipeline goroutine (the engine observer runs inside pipeline ops).
	seq int

	obs       atomic.Pointer[func(FiringEvent)]
	cancelObs func()
	closeOnce sync.Once
	closeErr  error
}

// NewEngineBackend wraps eng in a commit pipeline and starts it. The
// engine must not be mutated by anyone else from here on; Close closes it.
func NewEngineBackend(eng *adb.Engine) *EngineBackend {
	b := &EngineBackend{
		Reads:    ReadsOf(func() *adb.Engine { return eng }),
		eng:      eng,
		ops:      make(chan func(), 256),
		pipeDone: make(chan struct{}),
	}
	b.seq = len(eng.Firings())
	b.cancelObs = eng.OnFiring(b.fired)
	go b.pipeline()
	return b
}

// Engine exposes the wrapped engine for read-only inspection (tests and
// the cluster's equivalence checks); mutating it directly would race the
// pipeline.
func (b *EngineBackend) Engine() *adb.Engine { return b.eng }

func (b *EngineBackend) pipeline() {
	defer close(b.pipeDone)
	for fn := range b.ops {
		fn()
	}
}

// fired runs inside the engine call that produced the firing, on the
// pipeline goroutine, so observers see firings in exactly the engine's
// order with consecutive sequence numbers.
func (b *EngineBackend) fired(f adb.Firing) {
	fe := FiringEvent{F: f, Seq: b.seq}
	b.seq++
	if fn := b.obs.Load(); fn != nil {
		(*fn)(fe)
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

func (b *EngineBackend) GoRule(name, cond string, constraint bool, sched int, done func(error)) {
	b.ops <- func() {
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

func (b *EngineBackend) OnFiring(fn func(FiringEvent)) (cancel func()) {
	b.obs.Store(&fn)
	return func() { b.obs.CompareAndSwap(&fn, nil) }
}

// Follow streams the whole firing log through fn: the backlog first, then
// every live firing, each exactly once in order. The switchover happens at
// the serialization point, so nothing is lost or duplicated. Follow takes
// the single observer slot (it is OnFiring with a backlog); the cluster
// router's per-shard fan-in uses it.
func (b *EngineBackend) Follow(fn func(FiringEvent)) {
	b.ops <- func() {
		_, backlog := Backlog(b.eng, 0)
		for _, fe := range backlog {
			fn(fe)
		}
		b.obs.Store(&fn)
	}
}

func (b *EngineBackend) SyncFirings(from int, fn func(int, []FiringEvent)) {
	b.ops <- func() {
		fn(Backlog(b.eng, from))
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
