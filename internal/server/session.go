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

// maxFiringBatch bounds how many firings a writer reads from the log at a
// time and coalesces into one multi-firing frame: large enough to amortize
// the read, encode and syscall cost under fan-out load, small enough that
// one frame stays far from MaxFrame and a draining peer sees steady
// progress.
const maxFiringBatch = 128

// maxPendingResponses bounds the requests a session has read but not yet
// answered on the wire: past it the reader stops reading requests until
// the writer sends a response, and TCP carries the backpressure to a peer
// that pipelines requests without reading the replies. Firing, gap and
// wal frames have their own bounds and do not count toward it.
const maxPendingResponses = 64

// session is one accepted connection: a reader goroutine (handshake,
// request dispatch) plus a writer goroutine. The writer sends the queued
// frames (responses, wal frames, bye) and, once the session subscribed, the
// backend's firing log from the session's cursor, a batch at a time: a
// subscriber holds a sequence number, not a copy of the log's tail. Each
// queued frame carries the log head at the time it was queued, and the
// writer delivers every firing below it first, so each client observes one
// totally ordered stream. Every request gets its answer, and at most
// maxPendingResponses answers are pending at once; a subscriber further
// than the server's SubscriberQueue behind the head is subject to the
// overflow policy.
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

	// cursor is the sequence number of the next firing to deliver, and
	// gapAt, when set, where a DropWithGap overflow's gap begins. subscribe
	// sets cursor together with subscribed, under mu; from then on both
	// are the writer's alone.
	cursor, gapAt int

	mu   sync.Mutex
	cond *sync.Cond
	// queue is the outbound frame deque.
	queue []queued
	// npending counts the requests read whose response the writer has not
	// yet taken off the queue: the queued responses plus those still being
	// computed (see maxPendingResponses).
	npending   int
	subscribed bool
	// Replication stream state: replicating marks the session as a WAL
	// follower feed, nwal counts queued wal frames (bounded by
	// SubscriberQueue: a follower that cannot keep up is disconnected and
	// resumes by LSN after redialing), cancelWAL detaches the session's
	// sink from the shipper at teardown.
	replicating bool
	nwal        int
	cancelWAL   func()
	// draining: the writer closes the connection once the queue empties
	// (graceful drain). closed: no further enqueues; the writer exits as
	// soon as it observes it.
	draining bool
	closed   bool
}

// queued is an outbound frame and the log head it follows: the writer
// delivers every firing below head before the frame. A frame queued before
// the session subscribed follows none (head 0).
type queued struct {
	m    *wire.Msg
	head int
}

func newSession(srv *Server, conn net.Conn) *session {
	s := &session{srv: srv, conn: conn, br: bufio.NewReaderSize(conn, sessionBufSize)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// wake wakes the writer to a new log head.
func (s *session) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
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
	s.pushLocked(m)
	s.mu.Unlock()
}

// pushLocked queues m behind the firings below the current log head.
func (s *session) pushLocked(m *wire.Msg) {
	if s.closed {
		return
	}
	head := 0
	if s.subscribed {
		head = int(s.srv.head.Load())
	}
	s.queue = append(s.queue, queued{m: m, head: head})
	s.cond.Broadcast()
}

// pushWAL offers one replication batch to the follower feed. WAL frames
// are bounded by SubscriberQueue, and the only sane overflow policy is
// disconnect: dropping a batch would leave an LSN gap the follower can
// never apply across, while a redial resumes exactly at its last LSN.
func (s *session) pushWAL(m *wire.Msg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if s.nwal >= s.srv.cfg.SubscriberQueue {
		s.closeLocked()
		return
	}
	s.nwal++
	s.pushLocked(m)
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

// beginDrain puts the session into graceful-drain mode: a bye frame is
// queued behind the firings below the log head, and the writer closes the
// connection once everything queued has been flushed.
func (s *session) beginDrain() {
	s.mu.Lock()
	if !s.draining {
		s.pushLocked(&wire.Msg{T: wire.TypeBye})
		s.draining = true
	}
	s.mu.Unlock()
}

// fail tears the session down immediately: pending frames are abandoned
// and the connection closed.
func (s *session) fail() {
	s.mu.Lock()
	s.closeLocked()
	s.mu.Unlock()
}

// closeLocked marks the session closed and closes the connection, which
// also unblocks a write the writer is stuck in.
func (s *session) closeLocked() {
	s.closed = true
	s.conn.Close()
	s.cond.Broadcast()
}

// writeLoop sends the queued frames and the subscribed firing stream onto
// the connection, each frame after the firings below the head it was
// queued at. Each round gets its own write deadline, so a peer that stops
// reading cannot stall the server's drain forever. A subscriber cut by the
// Disconnect overflow policy is told why: one error frame (CodeLagged, id
// 0) after what is buffered, then the close.
//
// Group flush: frames are encoded into a buffered writer and flushed only
// when there is nothing more to send, so a burst of responses to a
// pipelining client (or a firing backlog) costs one syscall, not one per
// frame.
func (s *session) writeLoop() {
	bw := bufio.NewWriterSize(s.conn, sessionBufSize)
	fw := wire.NewFrameWriter(bw, s.codec)
	var frames []*wire.Msg
	for {
		s.mu.Lock()
		head := int(s.srv.head.Load())
		to := head // the firings below to go out before the next frame
		if len(s.queue) > 0 {
			to = s.queue[0].head
		}
		firing := s.subscribed && s.cursor < to
		lagged := false
		if q := s.srv.cfg.SubscriberQueue; firing && s.gapAt == 0 && head-s.cursor > q {
			s.gapAt = s.cursor + q
			lagged = s.srv.cfg.Overflow == Disconnect
		}
		if s.closed || lagged || s.draining && len(s.queue) == 0 {
			// Closed, cut, or draining with everything sent: flush is
			// complete. The broadcast releases a reader waiting in awaitRoom
			// for responses that will now never be sent.
			s.closed = true
			s.cond.Broadcast()
			s.mu.Unlock()
			s.setDeadline()
			if lagged {
				fw.Write(&wire.Msg{T: wire.TypeError, Code: wire.CodeLagged, Err: wire.ErrSubscriberLagged.Error()})
			}
			bw.Flush()
			s.conn.Close()
			return
		}
		if !firing && len(s.queue) == 0 {
			// Nothing to send: flush what is buffered, or wait.
			if bw.Buffered() == 0 {
				s.cond.Wait()
				s.mu.Unlock()
				continue
			}
			s.mu.Unlock()
			if s.setDeadline(); bw.Flush() != nil {
				s.fail()
				return
			}
			continue
		}
		if !firing {
			frames = append(frames[:0], s.takeLocked())
		}
		s.mu.Unlock()
		if firing {
			frames = s.firings(to, frames[:0])
		}
		s.setDeadline()
		for _, m := range frames {
			if err := fw.Write(m); err != nil {
				s.fail()
				return
			}
		}
	}
}

func (s *session) setDeadline() {
	if t := s.srv.cfg.WriteTimeout; t > 0 {
		s.conn.SetWriteDeadline(time.Now().Add(t))
	}
}

// takeLocked pops the queue's first frame; a response's slot frees a
// reader waiting in awaitRoom.
func (s *session) takeLocked() *wire.Msg {
	m := s.queue[0].m
	s.queue = s.queue[1:]
	switch m.T {
	case wire.TypeWal, wire.TypeSnap:
		s.nwal--
	case wire.TypeBye:
	default:
		s.npending--
		if s.npending == maxPendingResponses-1 {
			s.cond.Broadcast()
		}
	}
	return m
}

// firings appends the next batch of the log below to (and below an
// overflow's gap) to frames, and advances the cursor past it. What cannot
// be sent — lost upstream, not encodable or readable, or dropped by the
// overflow (from its start up to to) — becomes a gap frame where it was.
func (s *session) firings(to int, frames []*wire.Msg) []*wire.Msg {
	var run []wire.FiringJSON
	gap := func(n int) {
		frames = s.appendRun(frames, run)
		run = nil
		s.cursor += n
		if k := len(frames); k > 0 && frames[k-1].T == wire.TypeGap {
			frames[k-1].Missed += n
		} else {
			frames = append(frames, &wire.Msg{T: wire.TypeGap, Missed: n})
		}
	}
	end := to
	if s.gapAt > 0 {
		end = min(end, s.gapAt)
	}
	if s.cursor < end {
		for _, e := range s.srv.wireBatch(s.cursor, end) {
			if e.seq >= end {
				break
			}
			if e.gap > 0 {
				gap(e.seq + e.gap - s.cursor)
				continue
			}
			run = append(run, e.fj)
			s.cursor++
		}
	}
	if s.gapAt > 0 && s.cursor >= s.gapAt {
		if s.cursor < to {
			gap(to - s.cursor)
		}
		s.gapAt = 0
	}
	return s.appendRun(frames, run)
}

// appendRun appends a run of firings as one multi-firing frame for a
// batching peer, or as a frame per firing.
func (s *session) appendRun(frames []*wire.Msg, run []wire.FiringJSON) []*wire.Msg {
	if s.batch && len(run) > 1 {
		return append(frames, &wire.Msg{T: wire.TypeFiring, Firings: run})
	}
	for i := range run {
		frames = append(frames, &wire.Msg{T: wire.TypeFiring, Firing: &run[i]})
	}
	return frames
}
