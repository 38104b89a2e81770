package server

import (
	"bufio"
	"net"
	"sync"
	"time"

	"ptlactive/internal/server/wire"
)

// sessionBufSize sizes the per-session buffered reader and writer: big
// enough that a pipelined burst of frames costs one syscall per
// direction, small enough to be cheap at high connection counts.
const sessionBufSize = 32 << 10

// maxFiringBatch bounds how many queued firings coalesce into one
// multi-firing frame: large enough to amortize the syscall and encode
// cost under fan-out load, small enough that one frame stays far from
// MaxFrame and a draining peer sees steady progress.
const maxFiringBatch = 128

// maxPendingResponses bounds the requests a session has read but not yet
// answered on the wire: past it the reader stops reading requests until
// the writer sends a response, and TCP carries the backpressure to a peer
// that pipelines requests without reading the replies. Firing, gap and
// wal frames have their own bounds and do not count toward it.
const maxPendingResponses = 64

// session is one accepted connection: a reader goroutine (handshake,
// request dispatch) plus a writer goroutine draining the outbound queue.
// Responses and pushed firings share the queue, so each client observes
// one totally ordered stream. Every request gets its answer, and at most
// maxPendingResponses answers are pending at once; firing pushes are
// bounded by the server's SubscriberQueue and subject to the overflow
// policy.
type session struct {
	srv  *Server
	conn net.Conn
	// br buffers reads from conn: frame headers and payloads coalesce
	// into one syscall per burst. Only the reader goroutine touches it.
	br *bufio.Reader

	// codec is the payload encoding negotiated at handshake; batch says
	// the peer understands batched multi-firing frames (it sent a codec
	// offer, so it postdates negotiation). Both are written once by the
	// handshake, before the writer goroutine starts and before the read
	// loop dispatches, so they are read without the lock.
	codec wire.Codec
	batch bool

	mu   sync.Mutex
	cond *sync.Cond
	// queue is the outbound frame deque; nfirings counts the firing frames
	// currently in it (the bounded part).
	queue    []*wire.Msg
	nfirings int
	// npending counts the requests read whose response the writer has not
	// yet taken off the queue: the queued responses plus those still being
	// computed (see maxPendingResponses).
	npending   int
	subscribed bool
	// Replication stream state: replicating marks the session as a WAL
	// follower feed, nwal counts queued wal frames (bounded like firings:
	// a follower that cannot keep up is disconnected and resumes by LSN
	// after redialing), cancelWAL detaches the session's sink from the
	// shipper at teardown.
	replicating bool
	nwal        int
	cancelWAL   func()
	// draining: the writer closes the connection once the queue empties
	// (graceful drain). closed: no further enqueues; the writer exits as
	// soon as it observes it.
	draining bool
	closed   bool
	// failure records why the session died (ErrSubscriberLagged on a
	// disconnect-policy overflow; nil on clean teardown).
	failure error
}

func newSession(srv *Server, conn net.Conn) *session {
	s := &session{srv: srv, conn: conn, br: bufio.NewReaderSize(conn, sessionBufSize)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// awaitRoom blocks the reader until fewer than maxPendingResponses
// responses are pending, then counts the next request's; it reports false
// once the session is closed.
func (s *session) awaitRoom() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.npending >= maxPendingResponses && !s.closed {
		s.cond.Wait()
	}
	s.npending++
	return !s.closed
}

// enqueue appends a response frame; responses are never dropped (a closed
// session discards them — the peer is gone).
func (s *session) enqueue(m *wire.Msg) {
	s.mu.Lock()
	if !s.closed {
		s.queue = append(s.queue, m)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// pushFiring offers one firing to the subscriber under the bounded-queue
// policy; a no-op for sessions that never subscribed.
func (s *session) pushFiring(fj *wire.FiringJSON) {
	s.mu.Lock()
	s.pushFiringLocked(fj)
	s.mu.Unlock()
}

func (s *session) pushFiringLocked(fj *wire.FiringJSON) {
	if s.closed || !s.subscribed {
		return
	}
	if s.fullLocked() {
		s.overflowLocked(1)
		return
	}
	s.queue = append(s.queue, &wire.Msg{T: wire.TypeFiring, Firing: fj})
	s.nfirings++
	s.cond.Broadcast()
}

// fullLocked reports whether the subscriber's firing queue is at its bound.
func (s *session) fullLocked() bool { return s.nfirings >= s.srv.cfg.SubscriberQueue }

// overflowLocked applies the overflow policy to n firings that find the
// queue full.
func (s *session) overflowLocked(n int) {
	switch s.srv.cfg.Overflow {
	case DropWithGap:
		s.gapLocked(n)
	case Disconnect:
		// The writer may be blocked mid-frame on a full socket; closing
		// the connection is the only way to shed the lagging subscriber
		// without stalling the broadcast.
		s.failure = wire.ErrSubscriberLagged
		s.closed = true
		s.conn.Close()
		s.cond.Broadcast()
	}
}

// gapLocked queues a gap marker for n lost firings at once, exactly where
// they would have been: a marker at the queue's tail, which the writer has
// not taken yet, absorbs them instead. So a subscriber learns of a loss
// without waiting for a later firing, and a run of losses takes one frame.
func (s *session) gapLocked(n int) {
	if k := len(s.queue); k > 0 && s.queue[k-1].T == wire.TypeGap {
		s.queue[k-1].Missed += n
	} else {
		s.queue = append(s.queue, &wire.Msg{T: wire.TypeGap, Missed: n})
	}
	s.cond.Broadcast()
}

// pushWAL offers one replication batch to the follower feed. WAL frames
// are bounded like firings, but the only sane overflow policy is
// disconnect: dropping a batch would leave an LSN gap the follower can
// never apply across, while a redial resumes exactly at its last LSN.
func (s *session) pushWAL(m *wire.Msg) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.nwal >= s.srv.cfg.SubscriberQueue {
		s.failure = wire.ErrSubscriberLagged
		s.closed = true
		s.conn.Close()
		s.cond.Broadcast()
		s.mu.Unlock()
		return
	}
	s.queue = append(s.queue, m)
	s.nwal++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// setCancelWAL records the shipper detach hook; takeCancelWAL claims it
// (once) for the session teardown path.
func (s *session) setCancelWAL(cancel func()) {
	s.mu.Lock()
	s.cancelWAL = cancel
	s.mu.Unlock()
}

func (s *session) takeCancelWAL() func() {
	s.mu.Lock()
	cancel := s.cancelWAL
	s.cancelWAL = nil
	s.mu.Unlock()
	return cancel
}

// dropGap records n firings as lost (used when a firing fails to encode —
// the subscriber learns it missed something rather than silently skipping).
func (s *session) dropGap(n int) {
	s.mu.Lock()
	if !s.closed && s.subscribed {
		s.gapLocked(n)
	}
	s.mu.Unlock()
}

// beginDrain puts the session into graceful-drain mode: a bye frame is
// queued, and the writer closes the connection once everything queued —
// including any backlog of subscribed firings and gap markers — has been
// flushed.
func (s *session) beginDrain() {
	s.mu.Lock()
	if !s.closed && !s.draining {
		s.queue = append(s.queue, &wire.Msg{T: wire.TypeBye})
		s.draining = true
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// fail tears the session down immediately: pending frames are abandoned
// and the connection closed.
func (s *session) fail(err error) {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		if s.failure == nil {
			s.failure = err
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.conn.Close()
}

// writeLoop drains the outbound queue onto the connection. Each frame
// gets its own write deadline, so a peer that stops reading cannot stall
// the server's drain forever.
//
// Batched delivery: for peers that negotiated (batch), a consecutive run
// of queued firing frames is coalesced into one multi-firing frame per
// write — under fan-out load the whole backlog behind a slow write goes
// out in one encode instead of one per firing. Gap markers and responses
// are never reordered: coalescing stops at the first non-firing frame.
//
// Group flush: frames are encoded into a buffered writer and flushed
// only when the queue goes empty, so a burst of responses to a
// pipelining client (or a firing backlog) costs one syscall, not one
// per frame.
func (s *session) writeLoop() {
	bw := bufio.NewWriterSize(s.conn, sessionBufSize)
	fw := wire.NewFrameWriter(bw, s.codec)
	var batch []wire.FiringJSON
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed && !s.draining {
			s.cond.Wait()
		}
		if s.closed || len(s.queue) == 0 {
			// Closed, or draining with an empty queue: flush is complete.
			// The broadcast releases a reader waiting in awaitRoom for
			// responses that will now never be sent.
			s.closed = true
			s.cond.Broadcast()
			s.mu.Unlock()
			if t := s.srv.cfg.WriteTimeout; t > 0 {
				s.conn.SetWriteDeadline(time.Now().Add(t))
			}
			bw.Flush()
			s.conn.Close()
			return
		}
		m := s.queue[0]
		s.queue = s.queue[1:]
		switch m.T {
		case wire.TypeWal, wire.TypeSnap:
			s.nwal--
		case wire.TypeGap, wire.TypeBye:
		case wire.TypeFiring:
			s.nfirings--
			if s.batch && len(s.queue) > 0 && s.queue[0].T == wire.TypeFiring {
				batch = append(batch[:0], *m.Firing)
				for len(s.queue) > 0 && s.queue[0].T == wire.TypeFiring && len(batch) < maxFiringBatch {
					batch = append(batch, *s.queue[0].Firing)
					s.queue = s.queue[1:]
					s.nfirings--
				}
				m = &wire.Msg{T: wire.TypeFiring, Firings: batch}
			}
		default:
			// A response: its slot frees a reader waiting in awaitRoom.
			s.npending--
			if s.npending == maxPendingResponses-1 {
				s.cond.Broadcast()
			}
		}
		more := len(s.queue) > 0
		s.mu.Unlock()
		if t := s.srv.cfg.WriteTimeout; t > 0 {
			s.conn.SetWriteDeadline(time.Now().Add(t))
		}
		if err := fw.Write(m); err != nil {
			s.fail(err)
			return
		}
		if !more {
			if err := bw.Flush(); err != nil {
				s.fail(err)
				return
			}
		}
	}
}
