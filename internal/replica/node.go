package replica

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ptlactive/internal/adb"
	"ptlactive/internal/event"
	"ptlactive/internal/server"
	"ptlactive/internal/server/wire"
	"ptlactive/internal/value"
)

// Node is a replica's server backend, in either role. As a follower it
// applies shipped WAL batches to an adb.Follower, serves reads, health
// and firing subscriptions from the replayed engine, and refuses every
// mutation with *wire.NotPrimaryError carrying the primary's address. At
// promotion it becomes a primary: the follower's engine gets the store
// attached, an epoch record fences the change, and a normal
// EngineBackend pipeline plus Shipper take over — with firing sequence
// continuity, since a firing's sequence number is its index in the one
// engine's log.
type Node struct {
	// Reads answers Now, Items, Firings, Rules and Health from the node's
	// current engine in either role (see engine).
	server.Reads
	// eng is that engine (nil before a fresh follower's init frame), so
	// reads, a subscriber's of the firing log too, never wait for an apply.
	eng atomic.Pointer[adb.Engine]

	mu  sync.Mutex // serializes apply, bootstrap and promote
	fol *adb.Follower

	// Post-promotion (or primary-from-start) state. be and shipper are
	// set exactly once, under mu, before promoted flips.
	be       *server.EngineBackend
	shipper  *Shipper
	promoted atomic.Bool

	// leader is the primary's address hint served to redirected clients
	// and the role query; empty when unknown. advertise is this node's
	// own address, served as leader once promoted.
	leaderMu  sync.Mutex
	leader    string
	advertise string

	// obs is the single head observer: a follower's applies publish to
	// it, and after promotion the backend's forwarder does.
	obs atomic.Pointer[func(int)]
}

// NewFollower opens (creating if needed) the follower directory and
// returns a Node in follower role. cfg supplies the runtime-only engine
// pieces, cfg.OnFiring among them: it observes the firings the applied
// batches derive, and those of the engine after promotion. primary is the
// upstream address hint; advertise is this node's own client address,
// reported once promoted.
func NewFollower(cfg adb.Config, dir, primary, advertise string) (*Node, error) {
	fol, err := adb.OpenFollower(cfg, dir)
	if err != nil {
		return nil, err
	}
	n := &Node{fol: fol, leader: primary, advertise: advertise}
	n.Reads = server.ReadsOf(n.engine)
	n.eng.Store(fol.Engine())
	return n, nil
}

// NewPrimary wraps an already-restored durable engine backend as a
// primary-role Node: pipeline and shipper from the start, writes
// accepted, replication served. advertise is this node's client address.
func NewPrimary(be *server.EngineBackend, advertise string) *Node {
	n := &Node{be: be, shipper: NewShipper(be), advertise: advertise, leader: advertise}
	n.Reads = server.ReadsOf(n.engine)
	n.eng.Store(be.Engine())
	be.OnHead(n.publish)
	n.promoted.Store(true)
	return n
}

// publish hands the firing log's head to the head observer.
func (n *Node) publish(head int) {
	if fn := n.obs.Load(); fn != nil {
		(*fn)(head)
	}
}

// install makes the follower's engine the one reads answer from (the
// init frame and a bootstrap create it) and publishes its log head, so
// the firings the batch derived are readable before they are announced.
func (n *Node) install() {
	if eng := n.fol.Engine(); eng != nil {
		n.eng.Store(eng)
		n.publish(eng.FiringCount())
	}
}

// Apply persists and applies one shipped WAL batch (see
// adb.Follower.ApplyFrames); the stream loop calls it per wal frame.
func (n *Node) Apply(data []byte, epoch int64) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.promoted.Load() {
		return 0, fmt.Errorf("replica: node was promoted; stream must stop")
	}
	applied, err := n.fol.ApplyFrames(data, epoch)
	n.install()
	return applied, err
}

// Bootstrap installs a primary snapshot shipped because the node's resume
// position fell behind the primary's retained WAL head (see
// adb.Follower.BootstrapSnapshot). The stream loop calls it when a snap
// frame sequence completes; the engine is rebuilt from the snapshot and
// the firing log's head is the snapshot's absolute count, exactly as a
// restored primary would number its firings.
func (n *Node) Bootstrap(data []byte, lsn int64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.promoted.Load() {
		return fmt.Errorf("replica: node was promoted; stream must stop")
	}
	if err := n.fol.BootstrapSnapshot(data, lsn); err != nil {
		return err
	}
	n.install()
	return nil
}

// Storage answers from the follower's own store, or the backend once primary.
func (n *Node) Storage() (wire.StorageJSON, error) {
	if n.promoted.Load() {
		return n.be.Storage()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fol.Storage()
}

// LastLSN returns the node's durable WAL position (the resume point minus
// one). Safe for concurrent use.
func (n *Node) LastLSN() int64 {
	if n.promoted.Load() {
		return n.shipper.LastLSN()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fol.LastLSN()
}

// Epoch returns the node's replication epoch. Safe for concurrent use.
func (n *Node) Epoch() int64 {
	if n.promoted.Load() {
		return n.shipper.Epoch()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fol.Epoch()
}

// Promote turns a follower node into the primary under epoch newEpoch
// (minted by lease acquisition): the engine takes over the store, the
// epoch record fences deposed-primary frames, writes open up, and the
// node starts serving replication to its own followers. The caller must
// have stopped the stream loop first.
func (n *Node) Promote(newEpoch int64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.promoted.Load() {
		return fmt.Errorf("replica: node is already primary")
	}
	eng, err := n.fol.Promote(newEpoch)
	if err != nil {
		return err
	}
	// Both roles publish the same engine's log head, so subscribers see
	// one continuous numbering across the promotion.
	n.eng.Store(eng)
	n.be = server.NewEngineBackend(eng)
	n.be.OnHead(n.publish)
	n.shipper = NewShipper(n.be)
	n.promoted.Store(true)
	n.leaderMu.Lock()
	n.leader = n.advertise
	n.leaderMu.Unlock()
	return nil
}

// Leader returns the current primary hint ("" when unknown).
func (n *Node) Leader() string {
	n.leaderMu.Lock()
	defer n.leaderMu.Unlock()
	return n.leader
}

// SetLeader updates the primary hint (the stream loop calls it when the
// upstream address changes).
func (n *Node) SetLeader(addr string) {
	n.leaderMu.Lock()
	n.leader = addr
	n.leaderMu.Unlock()
}

// RoleInfo answers the server's "role" query.
func (n *Node) RoleInfo() server.RoleInfo {
	role := "follower"
	if n.promoted.Load() {
		role = "primary"
	}
	return server.RoleInfo{Role: role, Leader: n.Leader(), Epoch: n.Epoch(), LSN: n.LastLSN()}
}

// FollowWAL implements server.WALSource: a follower refuses downstream
// replication (chaining is future work); a promoted node serves it.
func (n *Node) FollowWAL(from, epoch int64, ack func(), sink func(server.WALBatch)) (func(), error) {
	if !n.promoted.Load() {
		return nil, &wire.NotPrimaryError{Leader: n.Leader()}
	}
	return n.shipper.FollowWAL(from, epoch, ack, sink)
}

// Shipper returns the primary-side shipper (nil while follower).
func (n *Node) Shipper() *Shipper {
	if !n.promoted.Load() {
		return nil
	}
	return n.shipper
}

// engine returns the replayed engine for reads (nil before the init
// frame arrived on a fresh follower).
func (n *Node) engine() *adb.Engine { return n.eng.Load() }

// notPrimary finishes a refused mutation with the redirect hint.
func (n *Node) notPrimary() error { return &wire.NotPrimaryError{Leader: n.Leader()} }

// --- server.Backend ---

func (n *Node) GoTxn(ts int64, updates map[string]value.Value, deletes []string,
	events []event.Event, done func(int64, error)) {
	if n.promoted.Load() {
		n.be.GoTxn(ts, updates, deletes, events, done)
		return
	}
	done(0, n.notPrimary())
}

func (n *Node) GoEmit(ts int64, events []event.Event, done func(int64, error)) {
	if n.promoted.Load() {
		n.be.GoEmit(ts, events, done)
		return
	}
	done(0, n.notPrimary())
}

func (n *Node) GoRule(name, cond string, constraint bool, sched int, done func(error)) {
	if n.promoted.Load() {
		n.be.GoRule(name, cond, constraint, sched, done)
		return
	}
	done(n.notPrimary())
}

func (n *Node) GoRevive(name string, done func(error)) {
	if n.promoted.Load() {
		n.be.GoRevive(name, done)
		return
	}
	done(n.notPrimary())
}

func (n *Node) OnHead(fn func(head int)) (cancel func()) {
	n.obs.Store(&fn)
	return func() { n.obs.CompareAndSwap(&fn, nil) }
}

func (n *Node) Barrier() {
	n.mu.Lock()
	be := n.be
	n.mu.Unlock()
	if be != nil {
		be.Barrier()
	}
}

func (n *Node) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.be != nil {
		return n.be.Close()
	}
	return n.fol.Close()
}
