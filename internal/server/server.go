// Package server is the network service layer of the active database: a
// TCP server speaking the length-prefixed, versioned protocol of
// internal/server/wire, over which clients open sessions, run batched
// transactions, register and revive rules, query state and health, and
// subscribe to rule firings pushed asynchronously.
//
// The server fronts a Backend: one adb.Engine behind a serializing
// commit pipeline (EngineBackend), or a cluster of item-partitioned
// engines behind a router (internal/cluster). Every mutating request —
// transactions, emits, rule registration, revival, subscription starts —
// goes through the backend's serialization point, so the engine's
// deterministic firing order is preserved and the firing stream every
// subscriber observes is exactly the stream a single-process engine
// produces for the same commit order. Read-only queries bypass the
// pipeline (the backend's reader accessors are safe concurrently), which
// keeps reads and subscriptions alive while writes are refused on a
// degraded engine — graceful degradation over the wire.
//
// Subscribers have bounded per-session queues with an explicit overflow
// policy: DropWithGap drops firings and delivers a gap marker in their
// place, Disconnect drops the lagging connection with ErrSubscriberLagged.
// Sessions that negotiated a frame codec at handshake (wire/codec.go) get
// batched delivery: consecutive queued firings coalesce into one
// multi-firing frame per write, amortizing encode and syscall cost under
// fan-out load. Shutdown drains gracefully: stop accepting, finish queued
// mutations, flush subscriber queues, send bye frames, close the engine.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ptlactive/internal/adb"
	"ptlactive/internal/histio"
	"ptlactive/internal/server/wire"
	"ptlactive/internal/value"
)

// OverflowPolicy selects what happens to a subscriber whose bounded
// firing queue is full when the next firing arrives.
type OverflowPolicy int

const (
	// DropWithGap drops the firing and delivers a gap marker (the count of
	// dropped firings) in its place once the queue has room again: the
	// subscriber keeps its connection and knows exactly how much it missed.
	DropWithGap OverflowPolicy = iota
	// Disconnect closes the lagging subscriber's connection with
	// ErrSubscriberLagged: the subscriber never observes a silently
	// incomplete stream.
	Disconnect
)

// ErrServerClosed is returned by Serve after Shutdown begins.
var ErrServerClosed = errors.New("server: closed")

// WALBatch is one durable batch of byte-exact WAL frames offered to a
// replication follower: the frame bytes, the LSN range they span, and the
// primary epoch in force when the batch became durable. Data is owned by
// the receiver (the shipper copies out of the log's reused buffer).
type WALBatch struct {
	Data        []byte
	First, Last int64
	Epoch       int64
	// Snap marks a snapshot-bootstrap chunk: Data is a slice of raw
	// snapshot bytes covering LSN First (sent when the follower's resume
	// position fell behind the retained WAL head), and More reports that
	// further chunks of the same snapshot follow. The ordinary wal stream
	// resumes after the final chunk.
	Snap bool
	More bool
}

// WALSource is the replication feed a primary server exposes (see
// internal/replica): FollowWAL registers sink for every durable WAL batch
// from LSN `from` on — backlog first, then live flushes, gap-free. epoch
// is the follower's current epoch; a follower ahead of this primary is
// refused (it replicated from a newer primary). ack runs at the
// serialization point after validation, strictly before the first sink
// delivery, so a transport can order its acknowledgement ahead of the
// stream. Sink runs on the commit pipeline and must hand off quickly.
type WALSource interface {
	FollowWAL(from, epoch int64, ack func(), sink func(WALBatch)) (cancel func(), err error)
}

// RoleInfo answers the "role" query: what this node is ("primary",
// "follower", "standalone"), where the primary is (a hint, "" when
// unknown), and the node's replication epoch and last WAL LSN.
type RoleInfo struct {
	Role   string
	Leader string
	Epoch  int64
	LSN    int64
}

// Config configures a Server.
type Config struct {
	// Engine is the active database to serve; the server wraps it in an
	// EngineBackend and becomes its only mutator. Exactly one of Engine
	// and Backend must be set.
	Engine *adb.Engine
	// Backend, when set, is served instead of constructing an
	// EngineBackend — the cluster router plugs in here.
	Backend Backend
	// MaxConns bounds concurrent sessions (default 64); connections beyond
	// it are refused with a busy error frame.
	MaxConns int
	// IdleTimeout is the per-session read deadline between frames; a
	// session idle longer is closed. 0 means no deadline.
	IdleTimeout time.Duration
	// WriteTimeout bounds each outbound frame write (default 10s), so a
	// peer that stops reading cannot stall broadcast or drain.
	WriteTimeout time.Duration
	// SubscriberQueue bounds each subscriber's firing queue (default 256).
	SubscriberQueue int
	// Overflow selects the policy when a subscriber's queue is full.
	Overflow OverflowPolicy
	// WALSource, when set, enables the replication endpoint: replicate
	// requests stream durable WAL batches to followers. Follower WAL
	// queues are bounded by SubscriberQueue; an overflowing follower is
	// disconnected (it redials and resumes by LSN).
	WALSource WALSource
	// RoleInfo, when set, answers the "role" query; nil reports a
	// standalone node.
	RoleInfo func() RoleInfo
	// Logf, when set, receives server diagnostics.
	Logf func(format string, args ...any)
}

// Server serves one backend over the wire protocol.
type Server struct {
	cfg Config
	be  Backend

	quit      chan struct{} // closed when Shutdown begins
	quitOnce  sync.Once
	closeDone chan struct{} // closed when Shutdown has released the backend
	cancelObs func()

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*session]struct{}
	wg       sync.WaitGroup // session goroutines
	shutdown bool

	// nsubs counts live subscribed sessions; broadcast consults it to skip
	// firing encode entirely when nobody is listening (the common case for
	// write-heavy workloads, where the encode would otherwise sit on the
	// serializing pipeline goroutine's critical path).
	nsubs atomic.Int64
}

// New creates a server around cfg.Engine (starting its commit pipeline)
// or cfg.Backend. The engine or backend must not be mutated by anyone
// else from here on; Shutdown closes it.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil && cfg.Backend == nil {
		return nil, fmt.Errorf("server: one of Config.Engine and Config.Backend is required")
	}
	if cfg.Engine != nil && cfg.Backend != nil {
		return nil, fmt.Errorf("server: Config.Engine and Config.Backend are mutually exclusive")
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 64
	}
	if cfg.SubscriberQueue <= 0 {
		cfg.SubscriberQueue = 256
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	be := cfg.Backend
	if be == nil {
		be = NewEngineBackend(cfg.Engine)
	}
	s := &Server{
		cfg:       cfg,
		be:        be,
		quit:      make(chan struct{}),
		closeDone: make(chan struct{}),
		sessions:  map[*session]struct{}{},
	}
	s.cancelObs = s.be.OnFiring(s.broadcast)
	return s, nil
}

// broadcast delivers one firing (or gap) to every subscribed session; it
// runs on the backend's firing-producing goroutine, inside the call that
// produced the firing, so subscribers observe firings in exactly the
// backend's order.
func (s *Server) broadcast(fe FiringEvent) {
	// No subscribers: the encode and session walk are skipped entirely.
	// This runs serial with the commits themselves, so every microsecond
	// here costs throughput.
	if s.nsubs.Load() == 0 {
		return
	}
	var fj wire.FiringJSON
	var err error
	if fe.Gap == 0 {
		fj, err = wire.EncodeFiring(fe.F, fe.Seq)
	}
	s.mu.Lock()
	targets := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		targets = append(targets, sess)
	}
	s.mu.Unlock()
	for _, sess := range targets {
		switch {
		case fe.Gap > 0:
			// An upstream gap (a sharded backend's shard subscription
			// overflowed): every subscriber learns how much it missed.
			sess.dropGap(fe.Gap)
		case err != nil:
			// The firing cannot cross the wire; the subscriber learns it
			// missed one instead of silently losing it.
			sess.dropGap(1)
		default:
			sess.pushFiring(&fj)
		}
	}
	if err != nil {
		s.cfg.Logf("server: firing %d not encodable: %v", fe.Seq, err)
	}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown; it returns
// ErrServerClosed after a graceful shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return ErrServerClosed
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		s.startSession(conn)
	}
}

// Addr returns the listening address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// ServeConn runs one already-established connection through the normal
// session lifecycle; tests and in-process transports use it directly.
func (s *Server) ServeConn(conn net.Conn) {
	s.startSession(conn)
}

func (s *Server) startSession(conn net.Conn) {
	s.mu.Lock()
	if s.shutdown || len(s.sessions) >= s.cfg.MaxConns {
		full := !s.shutdown
		s.mu.Unlock()
		code, msg := wire.CodeClosed, "server draining"
		if full {
			code, msg = wire.CodeBusy, fmt.Sprintf("connection limit %d reached", s.cfg.MaxConns)
		}
		conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		wire.WriteFrame(conn, &wire.Msg{T: wire.TypeError, Code: code, Err: msg})
		conn.Close()
		return
	}
	sess := newSession(s, conn)
	s.sessions[sess] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	go s.runSession(sess)
}

func (s *Server) runSession(sess *session) {
	defer func() {
		// Detach a replication sink before teardown so the shipper stops
		// delivering to a dead session (cancel synchronizes with the
		// pipeline, so it must run without sess.mu held).
		if cancel := sess.takeCancelWAL(); cancel != nil {
			cancel()
		}
		sess.fail(wire.ErrSessionClosed)
		sess.mu.Lock()
		wasSubscribed := sess.subscribed
		sess.mu.Unlock()
		if wasSubscribed {
			s.nsubs.Add(-1)
		}
		s.mu.Lock()
		delete(s.sessions, sess)
		s.mu.Unlock()
		s.wg.Done()
	}()
	if err := s.handshake(sess); err != nil {
		return
	}
	go sess.writeLoop()
	s.readLoop(sess)
}

// handshake enforces the hello exchange before anything else; a version
// mismatch is answered with an error frame and the connection closed.
//
// Codec negotiation rides the hello: the client's offer (Msg.Codecs, in
// preference order) is answered with the server's pick — binary when the
// client speaks it, JSON otherwise — echoed in the reply's Codec field.
// The exchange itself is always JSON; both ends switch to the chosen
// codec for every frame after it. A legacy client sends no offer and
// gets no Codec back: the session stays JSON, frame-per-firing, exactly
// the v1 protocol.
func (s *Server) handshake(sess *session) error {
	sess.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, err := wire.ReadFrame(sess.br)
	if err != nil {
		return err
	}
	if err := wire.CheckHello(m); err != nil {
		sess.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		wire.WriteFrame(sess.conn, &wire.Msg{
			T: wire.TypeError, ID: m.ID, Code: wire.CodeVersion, Err: err.Error(),
		})
		return err
	}
	reply := &wire.Msg{
		T: wire.TypeHello, ID: m.ID, Proto: wire.ProtoName, Version: wire.Version,
	}
	if len(m.Codecs) > 0 {
		sess.codec = wire.PickCodec(m.Codecs)
		// A codec offer also advertises batched-delivery support: the peer
		// postdates negotiation, whichever codec it ends up on.
		sess.batch = true
		reply.Codec = sess.codec.String()
	}
	sess.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	return wire.WriteFrame(sess.conn, reply)
}

// readLoop dispatches request frames until the connection dies or drain
// begins. Mutations go through the pipeline; queries are answered inline
// from the engine's concurrency-safe reader accessors.
func (s *Server) readLoop(sess *session) {
	for {
		if t := s.cfg.IdleTimeout; t > 0 {
			sess.conn.SetReadDeadline(time.Now().Add(t))
		} else {
			sess.conn.SetReadDeadline(time.Time{})
		}
		m, err := wire.ReadFrameC(sess.br, sess.codec)
		if err != nil {
			return
		}
		switch m.T {
		case wire.TypePing:
			sess.enqueue(&wire.Msg{T: wire.TypeOK, ID: m.ID})
		case wire.TypeBye:
			// Client-initiated close: flush what is queued and finish.
			sess.beginDrain()
			return
		case wire.TypeQuery:
			s.handleQuery(sess, m)
		case wire.TypeTxn, wire.TypeEmit:
			s.dispatchTxn(sess, m)
		case wire.TypeRule:
			if s.refuse(sess, m.ID) {
				continue
			}
			id := m.ID
			s.be.GoRule(m.Name, m.Cond, m.Constraint, m.Sched, func(err error) {
				sess.enqueue(reply(id, 0, err))
			})
		case wire.TypeRevive:
			if s.refuse(sess, m.ID) {
				continue
			}
			id := m.ID
			s.be.GoRevive(m.Name, func(err error) {
				sess.enqueue(reply(id, 0, err))
			})
		case wire.TypeSubscribe:
			if s.refuse(sess, m.ID) {
				continue
			}
			s.subscribe(sess, m)
		case wire.TypeReplicate:
			if s.refuse(sess, m.ID) {
				continue
			}
			s.handleReplicate(sess, m)
		default:
			sess.enqueue(&wire.Msg{
				T: wire.TypeError, ID: m.ID, Code: wire.CodeBadRequest,
				Err: fmt.Sprintf("unknown frame type %q", m.T),
			})
		}
	}
}

// dispatchTxn decodes a transaction (or emit) on the reader goroutine —
// malformed payloads are rejected before they reach the pipeline — and
// submits the commit.
func (s *Server) dispatchTxn(sess *session, m *wire.Msg) {
	updates, err := histio.DecodeItems(m.Updates)
	if err != nil {
		sess.enqueue(&wire.Msg{T: wire.TypeError, ID: m.ID, Code: wire.CodeBadRequest, Err: err.Error()})
		return
	}
	events, err := histio.DecodeEvents(m.Events)
	if err != nil {
		sess.enqueue(&wire.Msg{T: wire.TypeError, ID: m.ID, Code: wire.CodeBadRequest, Err: err.Error()})
		return
	}
	if s.refuse(sess, m.ID) {
		return
	}
	id := m.ID
	done := func(ts int64, err error) { sess.enqueue(reply(id, ts, err)) }
	if m.T == wire.TypeEmit {
		s.be.GoEmit(m.TS, events, done)
	} else {
		s.be.GoTxn(m.TS, updates, m.Deletes, events, done)
	}
}

// handleReplicate turns the session into a replication stream: durable
// WAL batches are pushed as wal frames from the requested LSN on. The
// acknowledgement is enqueued from the source's serialization point,
// strictly before the first batch, so the follower sees ok then batches
// in order.
func (s *Server) handleReplicate(sess *session, m *wire.Msg) {
	if s.cfg.WALSource == nil {
		sess.enqueue(&wire.Msg{
			T: wire.TypeError, ID: m.ID, Code: wire.CodeBadRequest,
			Err: "replication not enabled on this node",
		})
		return
	}
	sess.mu.Lock()
	already := sess.replicating
	sess.replicating = true
	sess.mu.Unlock()
	if already {
		sess.enqueue(&wire.Msg{
			T: wire.TypeError, ID: m.ID, Code: wire.CodeBadRequest,
			Err: "session is already replicating",
		})
		return
	}
	id := m.ID
	cancel, err := s.cfg.WALSource.FollowWAL(m.Lsn, m.Epoch,
		func() { sess.enqueue(&wire.Msg{T: wire.TypeOK, ID: id}) },
		func(b WALBatch) {
			if b.Snap {
				sess.pushWAL(&wire.Msg{T: wire.TypeSnap, Lsn: b.First, Epoch: b.Epoch, Wal: b.Data, More: b.More})
				return
			}
			sess.pushWAL(&wire.Msg{T: wire.TypeWal, Lsn: b.First, Epoch: b.Epoch, Wal: b.Data})
		})
	if err != nil {
		sess.mu.Lock()
		sess.replicating = false
		sess.mu.Unlock()
		sess.enqueue(reply(id, 0, err))
		return
	}
	sess.setCancelWAL(cancel)
}

// reply builds the response frame for a mutation outcome; engine errors
// are mapped onto the wire error taxonomy, constraint violations carrying
// their constraint name and transaction id.
func reply(id uint64, ts int64, err error) *wire.Msg {
	if err == nil {
		return &wire.Msg{T: wire.TypeOK, ID: id, TS: ts}
	}
	out := &wire.Msg{T: wire.TypeError, ID: id, TS: ts, Code: wire.CodeFor(err), Err: err.Error()}
	var ce *adb.ConstraintError
	if errors.As(err, &ce) {
		out.Name = ce.Constraint
		out.Txn = ce.Txn
	}
	var npe *wire.NotPrimaryError
	if errors.As(err, &npe) {
		// The redirect hint rides the error frame so a client can redial
		// the primary without a separate role query.
		out.Leader = npe.Leader
	}
	return out
}

// refuse reports whether the server is draining; if so the request is
// answered with the closed error so clients see ErrSessionClosed rather
// than a hang.
func (s *Server) refuse(sess *session, id uint64) bool {
	select {
	case <-s.quit:
		sess.enqueue(&wire.Msg{T: wire.TypeError, ID: id, Code: wire.CodeClosed, Err: "server draining"})
		return true
	default:
		return false
	}
}

// subscribe registers the session on the firing stream. The registration
// closure runs at the backend's serialization point, atomically with
// respect to commits, so the subscriber sees every firing exactly once
// (modulo its own queue's overflow policy).
func (s *Server) subscribe(sess *session, m *wire.Msg) {
	id := m.ID
	s.be.SyncFirings(m.From, func(from int, backlog []FiringEvent) {
		sess.mu.Lock()
		if sess.subscribed {
			sess.mu.Unlock()
			sess.enqueue(&wire.Msg{T: wire.TypeError, ID: id, Code: wire.CodeBadRequest, Err: "already subscribed"})
			return
		}
		sess.subscribed = true
		s.nsubs.Add(1)
		sess.queue = append(sess.queue, &wire.Msg{T: wire.TypeOK, ID: id, From: from})
		for _, fe := range backlog {
			if fe.Gap > 0 {
				sess.gap += fe.Gap
				continue
			}
			fj, err := wire.EncodeFiring(fe.F, fe.Seq)
			if err != nil {
				sess.gap++
				continue
			}
			sess.pushFiringLocked(&fj)
		}
		sess.cond.Broadcast()
		sess.mu.Unlock()
	})
}

// handleQuery answers read-only requests inline; these never touch the
// pipeline, so they keep working while writes fail on a degraded engine.
func (s *Server) handleQuery(sess *session, m *wire.Msg) {
	out := &wire.Msg{T: wire.TypeOK, ID: m.ID}
	var err error
	switch m.What {
	case "now":
		out.TS = s.be.Now()
	case "db":
		var items map[string]value.Value
		if items, err = s.be.Items(); err == nil {
			out.Items, err = histio.EncodeItems(items)
		}
	case "firings":
		var fes []FiringEvent
		fes, err = s.be.Firings(m.From)
		out.Firings = make([]wire.FiringJSON, 0, len(fes))
		for _, fe := range fes {
			if fe.Gap > 0 {
				// Firings lost upstream: the Seq jump makes the gap visible.
				continue
			}
			fj, ferr := wire.EncodeFiring(fe.F, fe.Seq)
			if ferr != nil {
				err = ferr
				break
			}
			out.Firings = append(out.Firings, fj)
		}
	case "rules":
		out.Rules, err = s.be.Rules()
	case "health":
		out.Health, out.Degraded, err = s.be.Health()
	case "role":
		if s.cfg.RoleInfo != nil {
			ri := s.cfg.RoleInfo()
			out.Role, out.Leader, out.Epoch, out.Lsn = ri.Role, ri.Leader, ri.Epoch, ri.LSN
		} else {
			out.Role = "standalone"
		}
	case "storage":
		var st wire.StorageJSON
		st, err = s.be.Storage()
		out.Storage = &st
	default:
		out = &wire.Msg{
			T: wire.TypeError, ID: m.ID, Code: wire.CodeBadRequest,
			Err: fmt.Sprintf("unknown query %q", m.What),
		}
	}
	if err != nil {
		out = &wire.Msg{T: wire.TypeError, ID: m.ID, Code: wire.CodeInternal, Err: err.Error()}
	}
	sess.enqueue(out)
}

// Shutdown drains the server gracefully: stop accepting, refuse new
// mutations, finish the queued ones, flush every subscriber queue (bye
// frame last), wait for the sessions to unwind and close the engine. The
// context bounds the wait; on expiry remaining connections are severed
// (their flushed prefix has still been delivered).
func (s *Server) Shutdown(ctx context.Context) error {
	s.quitOnce.Do(func() { close(s.quit) })
	s.mu.Lock()
	alreadyDown := s.shutdown
	s.shutdown = true
	ln := s.ln
	s.mu.Unlock()
	if alreadyDown {
		<-s.closeDone
		return nil
	}
	defer close(s.closeDone)
	if ln != nil {
		ln.Close()
	}
	// Barrier: every mutation submitted before the drain flag has executed
	// and its response is queued. Readers that lose the submit race get the
	// closed error instead of a hang.
	s.be.Barrier()
	// Flush: queued responses and subscribed firings go out, then bye.
	s.mu.Lock()
	for sess := range s.sessions {
		sess.beginDrain()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var ctxErr error
	select {
	case <-done:
	case <-ctx.Done():
		ctxErr = ctx.Err()
		s.mu.Lock()
		for sess := range s.sessions {
			sess.fail(wire.ErrSessionClosed)
		}
		s.mu.Unlock()
		<-done
	}
	// No session goroutines remain, so nothing can submit: stop the
	// backend and release the engine(s).
	s.cancelObs()
	if err := s.be.Close(); err != nil && ctxErr == nil {
		// A degraded engine surfaces its seal at Close; that is the
		// operator's signal, not a drain failure.
		s.cfg.Logf("server: backend close: %v", err)
	}
	return ctxErr
}
