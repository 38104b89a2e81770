package server

import (
	"testing"
	"time"

	"ptlactive/internal/server/wire"
)

// TestPendingResponsesBounded: a peer that pipelines requests and reads no
// replies holds at most maxPendingResponses responses in its session's
// queue. The reader stops taking requests at the bound, so the peer's own
// writes block (net.Pipe has no buffer: the backpressure TCP would carry
// shows up as a blocked write). Once the peer reads, every reply arrives,
// in request order.
func TestPendingResponsesBounded(t *testing.T) {
	srv, conn := pipeServer(t, Config{WriteTimeout: 30 * time.Second})
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.Hello()); err != nil {
		t.Fatal(err)
	}
	if m, err := wire.ReadFrame(conn); err != nil || m.T != wire.TypeHello {
		t.Fatalf("handshake: %+v, %v", m, err)
	}
	var sess *session
	srv.mu.Lock()
	for s := range srv.sessions {
		sess = s
	}
	srv.mu.Unlock()

	// More requests than the writer's buffer and the bound can absorb: no
	// reply is shorter than 16 bytes.
	const total = sessionBufSize/16 + 2*maxPendingResponses
	sent := make(chan error, 1)
	go func() {
		for i := 1; i <= total; i++ {
			m := &wire.Msg{T: wire.TypePing, ID: uint64(i)}
			if i%2 == 0 {
				m = &wire.Msg{T: wire.TypeQuery, ID: uint64(i), What: "now"}
			}
			if err := wire.WriteFrame(conn, m); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	// Watch the queue until the reader sits at the bound.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sess.mu.Lock()
		queued, pending := 0, sess.npending
		for _, q := range sess.queue {
			if q.m.T == wire.TypeOK || q.m.T == wire.TypeError {
				queued++
			}
		}
		sess.mu.Unlock()
		if queued > maxPendingResponses || pending > maxPendingResponses {
			t.Fatalf("%d responses queued, %d pending; the bound is %d", queued, pending, maxPendingResponses)
		}
		if pending == maxPendingResponses {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reader never reached the bound (%d pending)", pending)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-sent:
		t.Fatalf("every request was read while no reply was: %v", err)
	default:
	}

	conn.SetDeadline(time.Now().Add(10 * time.Second)) // a hang fails the test
	for i := 1; i <= total; i++ {
		m, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if m.T != wire.TypeOK || m.ID != uint64(i) {
			t.Fatalf("reply %d: %+v", i, m)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}
