package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"ptlactive/client"
	"ptlactive/internal/adb"
	"ptlactive/internal/event"
	"ptlactive/internal/histio"
	"ptlactive/internal/server/wire"
	"ptlactive/internal/value"
)

// startServer runs a server around a fresh engine (or cfg.Backend) on a
// loopback listener and tears it down with the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Backend == nil {
		cfg.Backend = NewEngineBackend(adb.NewEngine(adb.Config{
			Initial: map[string]value.Value{"a": value.NewInt(0)},
		}))
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
	_, addr := startServer(t, Config{Backend: NewEngineBackend(eng)})
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

// TestServedRegistrationRefusesUnrecoverableScheduling: a served engine
// refuses a rule it could not run or recover — an unknown scheduling,
// which recovery rejects, and Manual, which steps only on Engine.Flush
// and no wire operation runs that — and the data directory still
// restores cleanly afterwards.
func TestServedRegistrationRefusesUnrecoverableScheduling(t *testing.T) {
	for name, sched := range map[string]adb.Scheduling{"unknown": adb.Scheduling(7), "manual": adb.Manual} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := adb.Config{
				Initial:    map[string]value.Value{"a": value.NewInt(0)},
				Durability: adb.DurabilityWAL,
				NoFsync:    true,
			}
			eng, err := adb.Restore(cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			srv, addr := startServer(t, Config{Backend: NewEngineBackend(eng)})
			c := dial(t, addr)
			if err := c.AddTrigger("x", `item("a") > 0`, sched); err == nil {
				t.Error("registration accepted")
			}
			for ts := int64(1); ts <= 3; ts++ {
				if _, err := c.Exec(ts, map[string]value.Value{"a": value.NewInt(ts)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			back, err := adb.Restore(cfg, dir)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			defer back.Close()
			if r, ok := back.Rule("x"); ok {
				t.Errorf("restored rule %+v, want none", r)
			}
		})
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
	if cfg.Backend == nil {
		cfg.Backend = NewEngineBackend(adb.NewEngine(adb.Config{
			Initial: map[string]value.Value{"a": value.NewInt(0)},
		}))
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
		Backend:         NewEngineBackend(eng),
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
	// behind it and the rest drop into gap markers. No frame is shorter
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
	// ping's arrives everything the burst left queued has been read — the
	// dropped tail's gap marker included: it is queued when the firings
	// drop, not held back for a later firing.
	if err := wire.WriteFrame(conn, &wire.Msg{T: wire.TypePing, ID: 2}); err != nil {
		t.Fatal(err)
	}
	for read().T != wire.TypeOK {
	}
	if next != total {
		t.Fatalf("%d of %d firings accounted for once the queue drained", next, total)
	}
	if gaps == 0 {
		t.Fatalf("no gap among %d firings; the bound did not engage", total)
	}
	// The queue is empty, so the next commit's firing is accepted.
	commit(total + 1)
	if m := read(); m.T != wire.TypeFiring || next != total+1 {
		t.Fatalf("frame %+v, want firing seq %d", m, total)
	}
	t.Logf("%d firings, %d gaps", total+1, gaps)
}

// TestFiringsBeforeReply: a commit's firings reach a subscribed connection
// before that commit's reply, over both codecs. The backend publishes the
// log head before the operation's done callback queues the reply, and the
// writer sends the firings below a frame's head before the frame; a head
// published after the reply would put the reply first.
func TestFiringsBeforeReply(t *testing.T) {
	for _, codec := range []wire.Codec{wire.CodecJSON, wire.CodecBinary} {
		t.Run(codec.String(), func(t *testing.T) {
			eng := adb.NewEngine(adb.Config{})
			for _, cond := range []string{`@tick(A)`, `@tick(A) and A > 0`} {
				if err := eng.AddTrigger(cond, cond, nil); err != nil {
					t.Fatal(err)
				}
			}
			_, conn := pipeServer(t, Config{Backend: NewEngineBackend(eng)})
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			hello := wire.Hello()
			hello.Codecs = []string{codec.String()}
			if err := wire.WriteFrame(conn, hello); err != nil {
				t.Fatal(err)
			}
			if m, err := wire.ReadFrame(conn); err != nil || m.Codec != codec.String() {
				t.Fatalf("handshake: %+v, %v", m, err)
			}
			call := func(m *wire.Msg) (firings []int) {
				t.Helper()
				if err := wire.WriteFrameC(conn, m, codec); err != nil {
					t.Fatal(err)
				}
				for {
					r, err := wire.ReadFrameC(conn, codec)
					if err != nil {
						t.Fatal(err)
					}
					switch {
					case r.T == wire.TypeFiring:
						if r.Firing != nil {
							firings = append(firings, r.Firing.Seq)
						}
						for _, f := range r.Firings {
							firings = append(firings, f.Seq)
						}
					case r.ID == m.ID && r.T != wire.TypeError:
						return firings
					default:
						t.Fatalf("frame %+v while waiting for the reply to %d", r, m.ID)
					}
				}
			}
			call(&wire.Msg{T: wire.TypeSubscribe, ID: 1})
			seq := 0
			for i := 0; i < 20; i++ {
				ev, err := histio.EncodeEvents([]event.Event{event.New("tick", value.NewInt(int64(i%2)))})
				if err != nil {
					t.Fatal(err)
				}
				want := []int{seq}
				if i%2 == 1 {
					want = append(want, seq+1)
				}
				got := call(&wire.Msg{T: wire.TypeEmit, ID: uint64(i + 2), Events: ev})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("emit %d: firings %v before its reply, want %v", i, got, want)
				}
				seq += len(want)
			}
		})
	}
}

// TestOverflowDisconnect: a subscriber the writer finds more than
// SubscriberQueue firings behind the head is cut under Disconnect, after
// one error frame that says why (CodeLagged, id 0), and a client takes that
// frame as its session's end: Err() is ErrSubscriberLagged. Each commit
// fires 3q rules in one burst, faster than a writer round, so the writer
// finds the subscriber lagging whatever the interleaving.
func TestOverflowDisconnect(t *testing.T) {
	const q = 2
	serve := func() (*adb.Engine, net.Conn) {
		eng := adb.NewEngine(adb.Config{Initial: map[string]value.Value{"a": value.NewInt(0)}})
		for i := 0; i < 3*q; i++ {
			if err := eng.AddTrigger(fmt.Sprintf("every%d", i), `item("a") > 0`, nil); err != nil {
				t.Fatal(err)
			}
		}
		_, conn := pipeServer(t, Config{
			Backend:         NewEngineBackend(eng),
			SubscriberQueue: q,
			Overflow:        Disconnect,
			WriteTimeout:    30 * time.Second,
		})
		return eng, conn
	}
	commit := func(eng *adb.Engine) {
		for i := 1; i <= q+2; i++ {
			if err := eng.ExecTxn(int64(i), map[string]value.Value{"a": value.NewInt(int64(i))}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	eng, conn := serve()
	handshakeAndSubscribe(t, conn)
	commit(eng)
	// The frames already in flight may arrive first, then the error frame,
	// then EOF.
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	lagged := false
	for {
		m, err := wire.ReadFrame(conn)
		if err != nil {
			if !lagged {
				t.Fatalf("session ended (%v) without a lagged error frame", err)
			}
			break
		}
		if lagged {
			t.Fatalf("frame %+v after the lagged error frame", m)
		}
		if m.T == wire.TypeError {
			if m.Code != wire.CodeLagged || m.ID != 0 {
				t.Fatalf("error frame %+v, want code %q with id 0", m, wire.CodeLagged)
			}
			lagged = true
		}
	}

	eng, conn = serve()
	c, err := client.New(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	commit(eng)
	timeout := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case _, open = <-sub.C:
		case <-timeout:
			t.Fatal("subscription still open")
		}
	}
	if err := c.Err(); !errors.Is(err, wire.ErrSubscriberLagged) {
		t.Fatalf("Err() = %v, want ErrSubscriberLagged", err)
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
		Backend:         NewEngineBackend(eng),
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
	// fills, and the rest of the commits drop into a gap marker.
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
	// One more firing after the drained stream.
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
