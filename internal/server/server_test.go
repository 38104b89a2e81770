package server

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"ptlactive/client"
	"ptlactive/internal/adb"
	"ptlactive/internal/server/wire"
	"ptlactive/internal/value"
)

// startServer runs a server around a fresh engine (or cfg.Engine) on a
// loopback listener and tears it down with the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = adb.NewEngine(adb.Config{
			Initial: map[string]value.Value{"a": value.NewInt(0)},
		})
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ln.Addr().String()
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestEndToEnd(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTrigger("hot", `item("a") > 5`); err != nil {
		t.Fatal(err)
	}
	if ts, err := c.Exec(1, map[string]value.Value{"a": value.NewInt(3)}); err != nil || ts != 1 {
		t.Fatalf("exec: ts=%d err=%v", ts, err)
	}
	if ts, err := c.Exec(2, map[string]value.Value{"a": value.NewInt(7)}); err != nil || ts != 2 {
		t.Fatalf("exec: ts=%d err=%v", ts, err)
	}
	fs, err := c.Firings(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Rule != "hot" || fs[0].Time != 2 {
		t.Fatalf("firings = %+v", fs)
	}
	db, err := c.DB()
	if err != nil {
		t.Fatal(err)
	}
	if v := db["a"]; v.AsInt() != 7 {
		t.Fatalf("db a = %v", v)
	}
	rules, err := c.Rules()
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || rules[0].Name != "hot" || rules[0].Constraint {
		t.Fatalf("rules = %+v", rules)
	}
	now, err := c.Now()
	if err != nil || now != 2 {
		t.Fatalf("now = %d, %v", now, err)
	}
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Degraded != "" {
		t.Fatalf("healthy engine reported degraded: %q", h.Degraded)
	}
}

func TestAutoTimestamp(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	ts1, err := c.Exec(0, map[string]value.Value{"a": value.NewInt(1)})
	if err != nil {
		t.Fatal(err)
	}
	ts2, err := c.Txn().Set("a", value.NewInt(2)).Commit()
	if err != nil {
		t.Fatal(err)
	}
	if ts1 <= 0 || ts2 <= ts1 {
		t.Fatalf("server-assigned timestamps not increasing: %d, %d", ts1, ts2)
	}
}

func TestConstraintOverWire(t *testing.T) {
	eng := adb.NewEngine(adb.Config{Initial: map[string]value.Value{"a": value.NewInt(5)}})
	_, addr := startServer(t, Config{Engine: eng})
	c := dial(t, addr)
	err := c.AddConstraint("monotone", `[x <- item("a")] not previously (item("a") > x)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(1, map[string]value.Value{"a": value.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	_, err = c.Exec(2, map[string]value.Value{"a": value.NewInt(6)})
	if err == nil {
		t.Fatal("decreasing commit should abort over the wire")
	}
	var ce *adb.ConstraintError
	if !errors.As(err, &ce) || ce.Constraint != "monotone" {
		t.Fatalf("error = %v (%T)", err, err)
	}
	if !errors.Is(err, adb.ErrConstraintViolation) {
		t.Fatalf("errors.Is(ErrConstraintViolation) should hold: %v", err)
	}
	db, err := c.DB()
	if err != nil {
		t.Fatal(err)
	}
	if db["a"].AsInt() != 7 {
		t.Fatalf("aborted txn corrupted db: %v", db["a"])
	}
}

func TestVersionMismatchRefused(t *testing.T) {
	_, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bad := &wire.Msg{T: wire.TypeHello, Proto: wire.ProtoName, Version: wire.Version + 1}
	if err := wire.WriteFrame(conn, bad); err != nil {
		t.Fatal(err)
	}
	m, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if m.T != wire.TypeError || m.Code != wire.CodeVersion {
		t.Fatalf("reply = %+v", m)
	}
	if _, err := wire.ReadFrame(conn); err != io.EOF {
		t.Fatalf("connection should be closed after refusal, got %v", err)
	}
}

func TestMaxConns(t *testing.T) {
	_, addr := startServer(t, Config{MaxConns: 1})
	c1 := dial(t, addr)
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	_, err := client.Dial(addr)
	if err == nil {
		t.Fatal("second connection should be refused at MaxConns=1")
	}
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeBusy {
		t.Fatalf("refusal error = %v", err)
	}
	// Dropping the first session frees the slot.
	c1.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		c2, err := client.Dial(addr)
		if err == nil {
			c2.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestIdleTimeout(t *testing.T) {
	_, addr := startServer(t, Config{IdleTimeout: 50 * time.Millisecond})
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// Stop talking; the server must drop the session.
	deadline := time.Now().Add(3 * time.Second)
	for c.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("idle session never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSubscribeBacklogAndLive(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	if err := c.AddTrigger("hot", `item("a") > 5`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(1, map[string]value.Value{"a": value.NewInt(9)}); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	// Backlog firing (ts 1) arrives first.
	ev := <-sub.C
	if ev.Gap != 0 || ev.Firing.Rule != "hot" || ev.Firing.Time != 1 || ev.Seq != 0 {
		t.Fatalf("backlog event = %+v", ev)
	}
	// A second session commits; the live firing is pushed.
	c2 := dial(t, addr)
	if _, err := c2.Exec(2, map[string]value.Value{"a": value.NewInt(11)}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev = <-sub.C:
	case <-time.After(3 * time.Second):
		t.Fatal("live firing never arrived")
	}
	if ev.Firing.Time != 2 || ev.Seq != 1 {
		t.Fatalf("live event = %+v", ev)
	}
}

// pipeServer wires a session directly over net.Pipe: the unbuffered pipe
// makes the server's writer block the moment the client stops reading, so
// overflow is deterministic.
func pipeServer(t *testing.T, cfg Config) (*Server, net.Conn) {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = adb.NewEngine(adb.Config{
			Initial: map[string]value.Value{"a": value.NewInt(0)},
		})
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	cs, ss := net.Pipe()
	srv.ServeConn(ss)
	return srv, cs
}

// handshakeAndSubscribe drives the raw client side of a pipe connection
// up to an acknowledged subscription.
func handshakeAndSubscribe(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := wire.WriteFrame(conn, wire.Hello()); err != nil {
		t.Fatal(err)
	}
	if m, err := wire.ReadFrame(conn); err != nil || m.T != wire.TypeHello {
		t.Fatalf("handshake: %+v, %v", m, err)
	}
	if err := wire.WriteFrame(conn, &wire.Msg{T: wire.TypeSubscribe, ID: 1}); err != nil {
		t.Fatal(err)
	}
	if m, err := wire.ReadFrame(conn); err != nil || m.T != wire.TypeOK {
		t.Fatalf("subscribe ack: %+v, %v", m, err)
	}
}

func TestOverflowDropWithGap(t *testing.T) {
	const q = 4
	eng := adb.NewEngine(adb.Config{Initial: map[string]value.Value{"a": value.NewInt(0)}})
	if err := eng.AddTrigger("every", `item("a") > 0`, nil); err != nil {
		t.Fatal(err)
	}
	_, conn := pipeServer(t, Config{
		Engine:          eng,
		SubscriberQueue: q,
		Overflow:        DropWithGap,
		WriteTimeout:    30 * time.Second,
	})
	defer conn.Close() // or the server's drain at cleanup waits out its timeout on the unread bye
	handshakeAndSubscribe(t, conn)
	// Nobody reads while the burst commits. The writer moves queued frames
	// into its sessionBufSize buffer and blocks on the unbuffered pipe when
	// it flushes — on an empty queue or a full buffer, whichever the
	// interleaving brings first; from then on at most q firings queue
	// behind it and the rest drop into the pending gap. No frame is shorter
	// than 16 bytes, so buffer and queue together cannot hold the burst:
	// its tail is dropped on every schedule.
	const total = sessionBufSize/16 + q + 2
	commit := func(i int) {
		t.Helper()
		if err := eng.ExecTxn(int64(i), map[string]value.Value{"a": value.NewInt(int64(i))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= total; i++ {
		commit(i)
	}
	// The policy's promise: every sequence number is accounted for exactly
	// once and in order, by a firing frame or inside a gap frame's range —
	// so a gap marker sits exactly where its missing firings would have
	// been. How the burst splits into delivered runs and gaps is the
	// writer's timing and not asserted.
	conn.SetDeadline(time.Now().Add(10 * time.Second)) // a hang fails the test; nothing waits on it
	next, gaps := 0, 0
	read := func() *wire.Msg {
		t.Helper()
		m, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("after seq %d: %v", next, err)
		}
		switch {
		case m.T == wire.TypeFiring && m.Firing.Seq == next:
			next++
		case m.T == wire.TypeGap && m.Missed > 0:
			next += m.Missed
			gaps++
		case m.T != wire.TypeOK:
			t.Fatalf("frame %+v, want firing seq %d or a gap there", m, next)
		}
		return m
	}
	// A reply shares the session's queue with the pushes, so when the
	// ping's arrives everything the burst left queued has been read.
	if err := wire.WriteFrame(conn, &wire.Msg{T: wire.TypePing, ID: 2}); err != nil {
		t.Fatal(err)
	}
	for read().T != wire.TypeOK {
	}
	dropped := total - next
	if dropped <= 0 {
		t.Fatalf("%d of %d firings accounted for before the queue drained; the bound did not engage", next, total)
	}
	// The queue is empty, so the next commit's firing is accepted, and the
	// pending marker for the dropped tail goes out ahead of it.
	commit(total + 1)
	if m := read(); m.T != wire.TypeGap || m.Missed != dropped {
		t.Fatalf("frame %+v, want the pending gap of %d", m, dropped)
	}
	if m := read(); m.T != wire.TypeFiring || next != total+1 {
		t.Fatalf("frame %+v, want firing seq %d", m, total)
	}
	t.Logf("%d firings, %d in %d gaps", total+1, dropped, gaps)
}

func TestOverflowDisconnect(t *testing.T) {
	const q = 2
	eng := adb.NewEngine(adb.Config{Initial: map[string]value.Value{"a": value.NewInt(0)}})
	if err := eng.AddTrigger("every", `item("a") > 0`, nil); err != nil {
		t.Fatal(err)
	}
	_, conn := pipeServer(t, Config{
		Engine:          eng,
		SubscriberQueue: q,
		Overflow:        Disconnect,
		WriteTimeout:    30 * time.Second,
	})
	handshakeAndSubscribe(t, conn)
	for i := 1; i <= q+2; i++ {
		if err := eng.ExecTxn(int64(i), map[string]value.Value{"a": value.NewInt(int64(i))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The lagging subscriber was cut: reading eventually hits EOF (the
	// frames already in flight may still arrive first).
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	for {
		if _, err := wire.ReadFrame(conn); err != nil {
			return // closed — the disconnect policy shed the laggard
		}
	}
}

func TestGracefulDrainFlushesSubscribers(t *testing.T) {
	srv, addr := startServer(t, Config{})
	c := dial(t, addr)
	if err := c.AddTrigger("hot", `item("a") > 5`, adb.Relevant); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := c.Exec(int64(i), map[string]value.Value{"a": value.NewInt(int64(5 + i))}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Every firing committed before the drain must have been flushed to
	// the subscriber, then the channel closes.
	var times []int64
	for ev := range sub.C {
		if ev.Gap != 0 {
			t.Fatalf("unexpected gap during drain: %+v", ev)
		}
		times = append(times, ev.Firing.Time)
	}
	if len(times) != 3 || times[0] != 1 || times[2] != 3 {
		t.Fatalf("drained firings at %v, want [1 2 3]", times)
	}
	if err := c.Err(); !errors.Is(err, wire.ErrSessionClosed) {
		t.Fatalf("session end cause = %v", err)
	}
	// New mutations are refused once the server is down.
	if _, err := client.Dial(addr); err == nil {
		t.Fatal("dial after shutdown should fail")
	}
}

// TestClientStatsGapFirings checks the client's delivery counters: a
// subscriber that stops draining overflows the server's bounded queue,
// and after catching up its Stats must account for every firing the gap
// markers reported lost.
func TestClientStatsGapFirings(t *testing.T) {
	eng := adb.NewEngine(adb.Config{Initial: map[string]value.Value{"a": value.NewInt(0)}})
	if err := eng.AddTrigger("every", `item("a") > 0`, nil); err != nil {
		t.Fatal(err)
	}
	_, conn := pipeServer(t, Config{
		Engine:          eng,
		SubscriberQueue: 2,
		Overflow:        DropWithGap,
		WriteTimeout:    30 * time.Second,
	})
	c, err := client.New(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	// Nobody drains sub.C: its 16-slot buffer fills, the read loop blocks,
	// the pipe (unbuffered) blocks the server's writer, the 2-slot queue
	// fills, and the rest of the commits drop into a pending gap.
	const total = 30
	for i := 1; i <= total; i++ {
		if err := eng.ExecTxn(int64(i), map[string]value.Value{"a": value.NewInt(int64(i))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	fires, gapSum := 0, 0
	take := func(timeout time.Duration) bool {
		select {
		case ev := <-sub.C:
			if ev.Gap > 0 {
				gapSum += ev.Gap
			} else {
				fires++
			}
			return true
		case <-time.After(timeout):
			return false
		}
	}
	for take(300 * time.Millisecond) {
	}
	// The pending gap marker flushes ahead of the next delivered firing.
	if err := eng.ExecTxn(total+1, map[string]value.Value{"a": value.NewInt(total + 1)}, nil); err != nil {
		t.Fatal(err)
	}
	for fires+gapSum < total+1 {
		if !take(5 * time.Second) {
			t.Fatalf("stream stalled: %d firings + %d gap-lost of %d", fires, gapSum, total+1)
		}
	}
	if gapSum == 0 {
		t.Fatal("queue bound never engaged; no gaps to account for")
	}
	st := c.Stats()
	if st.GapFirings != gapSum {
		t.Fatalf("Stats().GapFirings = %d, want %d (the sum of in-band gap markers)", st.GapFirings, gapSum)
	}
	if st.DroppedPushes != 0 {
		t.Fatalf("Stats().DroppedPushes = %d on a session with a live subscription", st.DroppedPushes)
	}
	if st.Codec != c.Codec() {
		t.Fatalf("Stats().Codec = %q, want %q", st.Codec, c.Codec())
	}
}

func TestShutdownIdempotent(t *testing.T) {
	srv, _ := startServer(t, Config{})
	ctx := context.Background()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
