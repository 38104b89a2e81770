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
// continuity, since both sides number firings by absolute log index.
type Node struct {
	// Reads answers Now, Items, Firings, Rules and Health from the node's
	// current engine in either role (see engine).
	server.Reads

	mu  sync.Mutex // serializes apply, promote, and follower-side reads
	cfg adb.Config
	fol *adb.Follower

	// Post-promotion (or primary-from-start) state. be and shipper are
	// set exactly once, under mu, with promoted flipping last-to-first:
	// promoted is set before be so Node.fired stops double-counting the
	// moment the backend's own observer takes over.
	be       *server.EngineBackend
	shipper  *Shipper
	promoted atomic.Bool

	// leader is the primary's address hint served to redirected clients
	// and the role query; empty when unknown. advertise is this node's
	// own address, served as leader once promoted.
	leaderMu  sync.Mutex
	leader    string
	advertise string

	// Follower-side firing fan-out: seq is the next absolute firing
	// index, obs the single server observer, live gates out the replay
	// inside OpenFollower (those firings are counted by the seq reseed).
	seq  int
	obs  atomic.Pointer[func(server.FiringEvent)]
	live atomic.Bool
}

// NewFollower opens (creating if needed) the follower directory and
// returns a Node in follower role. cfg supplies the runtime-only engine
// pieces; cfg.OnFiring is taken over by the node (the server subscribes
// through it). primary is the upstream address hint; advertise is this
// node's own client address, reported once promoted.
func NewFollower(cfg adb.Config, dir, primary, advertise string) (*Node, error) {
	n := &Node{leader: primary, advertise: advertise}
	n.Reads = server.ReadsOf(n.engine)
	cfg.OnFiring = n.fired
	fol, err := adb.OpenFollower(cfg, dir)
	if err != nil {
		return nil, err
	}
	n.cfg = cfg
	n.fol = fol
	if eng := fol.Engine(); eng != nil {
		n.seq = len(eng.Firings())
	}
	n.live.Store(true)
	return n, nil
}

// NewPrimary wraps an already-restored durable engine backend as a
// primary-role Node: pipeline and shipper from the start, writes
// accepted, replication served. advertise is this node's client address.
func NewPrimary(be *server.EngineBackend, advertise string) *Node {
	n := &Node{be: be, shipper: NewShipper(be), advertise: advertise, leader: advertise}
	n.Reads = server.ReadsOf(n.engine)
	n.promoted.Store(true)
	n.live.Store(true)
	return n
}

// fired is the follower engine's firing callback: it runs inside
// ApplyFrames (under n.mu), assigning absolute sequence numbers and
// feeding the server's broadcast observer. After promotion the
// EngineBackend's own observer carries the stream, with the same
// numbering, so fired steps aside.
func (n *Node) fired(f adb.Firing) {
	if n.promoted.Load() || !n.live.Load() {
		return
	}
	fe := server.FiringEvent{F: f, Seq: n.seq}
	n.seq++
	if fn := n.obs.Load(); fn != nil {
		(*fn)(fe)
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
	return n.fol.ApplyFrames(data, epoch)
}

// Bootstrap installs a primary snapshot shipped because the node's resume
// position fell behind the primary's retained WAL head (see
// adb.Follower.BootstrapSnapshot). The stream loop calls it when a snap
// frame sequence completes; the engine is rebuilt from the snapshot and
// the firing sequence reseeds to the snapshot's absolute count, exactly
// as a restored primary would number them.
func (n *Node) Bootstrap(data []byte, lsn int64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.promoted.Load() {
		return fmt.Errorf("replica: node was promoted; stream must stop")
	}
	if err := n.fol.BootstrapSnapshot(data, lsn); err != nil {
		return err
	}
	if eng := n.fol.Engine(); eng != nil {
		n.seq = len(eng.Firings())
	}
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
	// Order matters: promoted first, so fired() yields the firing stream
	// to the backend observer the moment it exists; the backend seeds its
	// sequence from len(firings), which equals n.seq at this quiescent
	// point, so subscribers see one continuous numbering across roles.
	n.promoted.Store(true)
	be := server.NewEngineBackend(eng)
	if fn := n.obs.Load(); fn != nil {
		be.OnFiring(*fn)
	}
	n.be = be
	n.shipper = NewShipper(be)
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
func (n *Node) engine() *adb.Engine {
	if n.promoted.Load() {
		return n.be.Engine()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fol.Engine()
}

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

func (n *Node) OnFiring(fn func(server.FiringEvent)) (cancel func()) {
	n.obs.Store(&fn)
	var beCancel func()
	n.mu.Lock()
	if n.be != nil {
		beCancel = n.be.OnFiring(fn)
	}
	n.mu.Unlock()
	return func() {
		n.obs.CompareAndSwap(&fn, nil)
		if beCancel != nil {
			beCancel()
		}
	}
}

// SyncFirings delivers the backlog atomically with the live stream: on a
// follower, n.mu serializes it against Apply (whose firings flow through
// fired under the same lock); once primary, the backend's serialization
// point does the same job.
func (n *Node) SyncFirings(from int, fn func(int, []server.FiringEvent)) {
	n.mu.Lock()
	if n.be != nil {
		be := n.be
		n.mu.Unlock()
		be.SyncFirings(from, fn)
		return
	}
	defer n.mu.Unlock()
	fn(server.Backlog(n.fol.Engine(), from))
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
