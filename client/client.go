// Package client is the Go client for the active-database server: it
// dials a server, performs the versioned hello handshake, and exposes the
// engine's operations — batched transactions, event emission, rule
// registration and revival, state/firing/health queries, and asynchronous
// firing subscriptions — over one multiplexed connection.
//
// All methods are safe for concurrent use: every outbound frame is
// serialized behind a single write mutex, so concurrent transactions from
// many goroutines never interleave frame bytes on the shared connection.
// Requests carry ids; a single read loop routes responses back to their
// callers and delivers pushed firing, gap and bye frames to the
// subscription channel. Server errors come back as the same taxonomy the
// engine raises in-process: errors.Is against ptlactive's sentinels
// (ErrDegraded, ErrConstraintViolation, ErrNotPrimary, ...) and
// errors.As against *adb.ConstraintError work across the network.
//
// The handshake negotiates a frame codec: by default the client offers
// the binary codec with JSON as fallback, and the server picks binary
// when it speaks it (Options.Codecs pins the offer; legacy servers
// ignore it and the session stays JSON). Transactions can also be
// pipelined — Txn.Go sends a commit without waiting and returns a
// Pending whose Wait collects the outcome, so many commits share the
// wire concurrently and the per-commit cost approaches the server's
// processing time instead of a full round trip each.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"ptlactive/internal/adb"
	"ptlactive/internal/event"
	"ptlactive/internal/histio"
	"ptlactive/internal/server/wire"
	"ptlactive/internal/value"
)

// StreamEvent is one delivery on a subscription: either a firing (Gap ==
// 0) or a gap marker counting firings the server dropped under the
// drop-with-gap overflow policy.
type StreamEvent struct {
	Firing adb.Firing
	// Seq is the firing's absolute index in the server's firing log.
	Seq int
	// Gap, when nonzero, means this event is a gap marker: Gap firings
	// were dropped before the next delivered one.
	Gap int
}

// Subscription is a live firing stream.
type Subscription struct {
	// C delivers firings and gap markers in server order. It closes when
	// the connection ends — after the server's graceful drain has flushed
	// the queued backlog, or abruptly on failure.
	C <-chan StreamEvent
	c chan StreamEvent
}

// Options configures Dial and New.
type Options struct {
	// Codecs is the frame-codec offer sent in the hello, in preference
	// order; the server picks the best one it speaks. Nil offers binary
	// with JSON fallback (wire.DefaultCodecs). To force the debuggable
	// JSON framing, pass []string{"json"}.
	Codecs []string
	// Retry, when set, makes DialOptions retry failed dials and
	// handshakes with capped exponential backoff plus jitter; nil keeps
	// the historical single-attempt behavior. A version mismatch is never
	// retried — waiting will not fix a protocol disagreement.
	Retry *RetryPolicy
}

// RetryPolicy shapes dial retries: up to Attempts tries total, sleeping a
// capped exponential backoff with jitter between them. Clients of a
// replicated service use it to ride out the window where the old primary
// is dead and the new one has not finished promoting.
type RetryPolicy struct {
	// Attempts is the total number of dial attempts (<= 1 means one).
	Attempts int
	// Base is the first backoff step (default 100ms); each retry doubles
	// it up to Max (default 3s). The actual sleep is half the step plus a
	// random half, so a reconnecting fleet does not dial in lockstep.
	Base time.Duration
	Max  time.Duration
}

// DefaultRetry is a sensible reconnect policy: 6 attempts over roughly
// six seconds of backoff.
func DefaultRetry() *RetryPolicy {
	return &RetryPolicy{Attempts: 6, Base: 100 * time.Millisecond, Max: 3 * time.Second}
}

// delay returns the sleep before retry k (0-based, after the first
// failure).
func (p *RetryPolicy) delay(k int) time.Duration {
	base, max := p.Base, p.Max
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 3 * time.Second
	}
	if k > 20 {
		k = 20 // the shift below would overflow; far past Max anyway
	}
	d := base << k
	if d > max || d <= 0 {
		d = max
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// Client is one session with an active-database server.
type Client struct {
	conn  net.Conn
	codec wire.Codec
	// br buffers inbound frames — a burst of pipelined responses or a
	// batched firing backlog drains in one syscall. Only the read loop
	// (and the handshake, before it starts) touches it.
	br *bufio.Reader

	// wmu serializes every frame write on the shared connection —
	// concurrent commits, queries and Close's bye frame. Without it two
	// goroutines race the frame writer's shared buffer and interleave
	// length-prefixed frame bytes, corrupting the stream (see the server
	// package's TestClientSharedConcurrent).
	wmu sync.Mutex
	fw  *wire.FrameWriter

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *wire.Msg
	sub     *Subscription
	err     error // terminal failure, set once by the read loop
	closed  bool
	// dropped counts pushed firings discarded because no subscription was
	// live to receive them (a push racing Subscribe's teardown or Close);
	// gap markers count for their Missed total.
	dropped int
	// gapFirings sums the gap markers delivered to this session's
	// subscription: firings the server dropped under the drop-with-gap
	// overflow policy.
	gapFirings int
	done       chan struct{}
	// closing aborts blocked subscription deliveries when the user calls
	// Close: a consumer that stopped draining must not wedge teardown.
	closing   chan struct{}
	closeOnce sync.Once
}

// Dial connects to an active-database server and performs the protocol
// handshake, negotiating the binary codec when the server speaks it.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions is Dial with explicit options. With Options.Retry set,
// failed dials and handshakes are retried under the policy's backoff;
// version mismatches fail immediately.
func DialOptions(addr string, opts Options) (*Client, error) {
	attempts := 1
	if opts.Retry != nil && opts.Retry.Attempts > 1 {
		attempts = opts.Retry.Attempts
	}
	var lastErr error
	for k := 0; k < attempts; k++ {
		if k > 0 {
			time.Sleep(opts.Retry.delay(k - 1))
		}
		conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			lastErr = err
			continue
		}
		c, err := NewOptions(conn, opts)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if errors.Is(err, wire.ErrVersionMismatch) {
			return nil, err
		}
	}
	return nil, lastErr
}

// New runs the client protocol over an established connection (tests and
// custom transports dial themselves).
func New(conn net.Conn) (*Client, error) {
	return NewOptions(conn, Options{})
}

// NewOptions is New with explicit options.
func NewOptions(conn net.Conn, opts Options) (*Client, error) {
	codecs := opts.Codecs
	if codecs == nil {
		codecs = wire.DefaultCodecs()
	}
	hello := wire.Hello()
	hello.Codecs = codecs
	if err := wire.WriteFrame(conn, hello); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReaderSize(conn, 32<<10)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	m, err := wire.ReadFrame(br)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	if m.T == wire.TypeError {
		conn.Close()
		return nil, remoteErr(m)
	}
	if err := wire.CheckHello(m); err != nil {
		conn.Close()
		return nil, err
	}
	// The codec the server chose must be one we offered; a legacy server
	// echoes nothing and the session stays on the JSON fallback.
	codec := wire.CodecJSON
	if m.Codec != "" {
		chosen, ok := wire.ParseCodec(m.Codec)
		offered := false
		for _, name := range codecs {
			if name == m.Codec {
				offered = true
			}
		}
		if !ok || !offered {
			conn.Close()
			return nil, fmt.Errorf("%w: server chose codec %q, offered %v",
				wire.ErrVersionMismatch, m.Codec, codecs)
		}
		codec = chosen
	}
	c := &Client{
		conn:    conn,
		codec:   codec,
		br:      br,
		fw:      wire.NewFrameWriter(conn, codec),
		pending: map[uint64]chan *wire.Msg{},
		done:    make(chan struct{}),
		closing: make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Codec reports the frame codec this session negotiated ("json" or
// "binary").
func (c *Client) Codec() string { return c.codec.String() }

// readLoop routes every inbound frame: responses to their waiting caller
// by id, pushed firings/gaps/bye to the subscription; an error frame with
// id 0, which answers no request, ends the session with its error.
// Subscription delivery blocks — that is deliberate: a slow consumer exerts
// TCP backpressure and the server's overflow policy, not the client,
// decides what to do about the lag.
func (c *Client) readLoop() {
	var cause error
	for {
		m, err := wire.ReadFrameC(c.br, c.codec)
		if err != nil {
			cause = err
			break
		}
		switch m.T {
		case wire.TypeFiring:
			// A firing push carries one firing (Firing) or a coalesced
			// batch (Firings) from a server doing batched delivery.
			sub := c.subscription()
			batch := m.Firings
			if m.Firing != nil {
				batch = append(batch, *m.Firing)
			}
			if sub == nil {
				c.notePushLoss(len(batch))
				break
			}
			for i := range batch {
				f, err := wire.DecodeFiring(batch[i])
				if err != nil {
					cause = err
					break
				}
				select {
				case sub.c <- StreamEvent{Firing: f, Seq: batch[i].Seq}:
				case <-c.closing:
					// Close was called with the stream undrained; discard.
				}
			}
		case wire.TypeGap:
			if sub := c.subscription(); sub != nil {
				c.mu.Lock()
				c.gapFirings += m.Missed
				c.mu.Unlock()
				select {
				case sub.c <- StreamEvent{Gap: m.Missed}:
				case <-c.closing:
				}
			} else {
				c.notePushLoss(m.Missed)
			}
		case wire.TypeBye:
			// Graceful drain: the server flushed everything it owed us.
			cause = wire.ErrSessionClosed
		case wire.TypeError:
			if m.ID == 0 {
				// No request's error: why the server is closing the
				// session (a lagging subscriber cut, CodeLagged).
				cause = remoteErr(m)
				break
			}
			fallthrough
		default:
			c.mu.Lock()
			ch := c.pending[m.ID]
			delete(c.pending, m.ID)
			c.mu.Unlock()
			if ch != nil {
				ch <- m
			}
		}
		if cause != nil {
			break
		}
	}
	c.mu.Lock()
	if c.err == nil {
		c.err = cause
	}
	c.closed = true
	waiting := c.pending
	c.pending = map[uint64]chan *wire.Msg{}
	sub := c.sub
	c.sub = nil
	c.mu.Unlock()
	c.conn.Close()
	for _, ch := range waiting {
		close(ch)
	}
	if sub != nil {
		close(sub.c)
	}
	close(c.done)
}

func (c *Client) subscription() *Subscription {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sub
}

// notePushLoss accounts firings the read loop had to discard because no
// subscription was live (the push raced Subscribe's error teardown or
// Close): the loss is observable through DroppedPushes instead of silent.
func (c *Client) notePushLoss(n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	c.dropped += n
	c.mu.Unlock()
}

// DroppedPushes reports how many pushed firings (including firings
// summarized by gap markers) arrived with no live subscription to
// receive them and were discarded. A nonzero value means a subscriber
// observed a silently incomplete stream boundary — typically a push
// racing a failed Subscribe call or Close.
func (c *Client) DroppedPushes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Stats is a snapshot of the session's delivery counters.
type Stats struct {
	// Codec is the negotiated frame codec ("binary" or "json").
	Codec string
	// DroppedPushes counts pushed firings (including firings summarized
	// by gap markers) discarded because no subscription was live to
	// receive them — see DroppedPushes.
	DroppedPushes int
	// GapFirings counts firings the server reported dropped under the
	// drop-with-gap overflow policy: the sum of the gap markers this
	// session's subscription received. Nonzero means the subscriber fell
	// behind the firing rate and the stream has holes (each marked in
	// band by a StreamEvent with Gap set).
	GapFirings int
}

// Stats returns the session's delivery counters. A monitoring loop (or a
// shell's follow command) can check DroppedPushes and GapFirings after
// consuming a stream to tell a complete stream from one with losses.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Codec:         c.codec.String(),
		DroppedPushes: c.dropped,
		GapFirings:    c.gapFirings,
	}
}

// Close tears the session down. If the server is still up this is a
// client-initiated graceful drain: the server flushes what it owes (a
// subscription keeps delivering until its channel closes) and then closes
// the connection.
func (c *Client) Close() error {
	c.closeOnce.Do(func() { close(c.closing) })
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.done
		return nil
	}
	c.mu.Unlock()
	c.wmu.Lock()
	c.fw.Write(&wire.Msg{T: wire.TypeBye})
	c.wmu.Unlock()
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		c.conn.Close()
		<-c.done
	}
	return nil
}

// Err reports why the session ended (nil while it is alive;
// ErrSessionClosed after a graceful close, ErrSubscriberLagged after the
// server cut a subscriber its Disconnect overflow policy found lagging).
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// start registers a pending id for m and writes the frame; the returned
// channel receives the response (or closes when the session dies).
func (c *Client) start(m *wire.Msg) (chan *wire.Msg, error) {
	ch := make(chan *wire.Msg, 1)
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = wire.ErrSessionClosed
		}
		return nil, err
	}
	c.nextID++
	id := c.nextID
	m.ID = id
	c.pending[id] = ch
	c.mu.Unlock()
	c.wmu.Lock()
	err := c.fw.Write(m)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}
	return ch, nil
}

// wait collects the response for a channel returned by start.
func (c *Client) wait(ch chan *wire.Msg) (*wire.Msg, error) {
	resp, ok := <-ch
	if !ok {
		if err := c.Err(); err != nil && !errors.Is(err, wire.ErrSessionClosed) {
			return nil, fmt.Errorf("%w (%v)", wire.ErrSessionClosed, err)
		}
		return nil, wire.ErrSessionClosed
	}
	if resp.T == wire.TypeError {
		return resp, remoteErr(resp)
	}
	return resp, nil
}

// call sends one request frame and waits for its response.
func (c *Client) call(m *wire.Msg) (*wire.Msg, error) {
	ch, err := c.start(m)
	if err != nil {
		return nil, err
	}
	return c.wait(ch)
}

// remoteErr reconstructs a server error frame as a client-side error.
// Constraint violations come back as *adb.ConstraintError (errors.As
// works); every other code is a *wire.RemoteError whose Unwrap maps onto
// the matching sentinel (errors.Is works).
func remoteErr(m *wire.Msg) error {
	if m.Code == wire.CodeConstraint && m.Name != "" {
		return &adb.ConstraintError{Constraint: m.Name, Txn: m.Txn}
	}
	if m.Code == wire.CodeNotPrimary {
		// The typed form carries the redirect hint, so a caller can
		// errors.As for *wire.NotPrimaryError and redial the leader.
		return &wire.NotPrimaryError{Leader: m.Leader}
	}
	return &wire.RemoteError{Code: m.Code, Msg: m.Err}
}

// Txn is a batched transaction: sets, deletes and events accumulated
// client-side and committed in one round trip (Commit), or pipelined
// (Go) so many transactions share the wire in flight.
type Txn struct {
	c       *Client
	ts      int64
	updates map[string]value.Value
	deletes []string
	events  []event.Event
	err     error
}

// Txn starts a batched transaction.
func (c *Client) Txn() *Txn {
	return &Txn{c: c, updates: map[string]value.Value{}}
}

// At pins the commit timestamp; without it the server assigns the next
// tick.
func (t *Txn) At(ts int64) *Txn { t.ts = ts; return t }

// Set records an item write.
func (t *Txn) Set(name string, v value.Value) *Txn { t.updates[name] = v; return t }

// Delete records an item removal.
func (t *Txn) Delete(name string) *Txn { t.deletes = append(t.deletes, name); return t }

// Emit records events to be part of the committed state.
func (t *Txn) Emit(events ...event.Event) *Txn { t.events = append(t.events, events...); return t }

// Pending is an in-flight pipelined request. Wait blocks until the
// response arrives and is idempotent; the transaction is applied by the
// server in send order regardless of when Wait is called.
type Pending struct {
	c    *Client
	ch   chan *wire.Msg
	once sync.Once
	ts   int64
	err  error
}

// Wait returns the timestamp the server applied the transaction at, or
// the error it failed with.
func (p *Pending) Wait() (int64, error) {
	p.once.Do(func() {
		if p.ch == nil {
			return // failed before the frame was sent; p.err is set
		}
		resp, err := p.c.wait(p.ch)
		if err != nil {
			p.err = err
			return
		}
		p.ts = resp.TS
	})
	return p.ts, p.err
}

// Go sends the transaction without waiting for its outcome: the commit
// is in flight and the server applies pipelined transactions in send
// order. Collect the result with Wait. Keeping a bounded number of
// Pendings in flight (a few dozen) amortizes the round trip across
// commits; see the E13 pipelined rows.
func (t *Txn) Go() *Pending {
	if t.err != nil {
		return &Pending{err: t.err}
	}
	updates, err := histio.EncodeItems(t.updates)
	if err != nil {
		return &Pending{err: err}
	}
	events, err := histio.EncodeEvents(t.events)
	if err != nil {
		return &Pending{err: err}
	}
	ch, err := t.c.start(&wire.Msg{
		T: wire.TypeTxn, TS: t.ts,
		Updates: updates, Deletes: t.deletes, Events: events,
	})
	if err != nil {
		return &Pending{err: err}
	}
	return &Pending{c: t.c, ch: ch}
}

// Commit sends the batch and returns the timestamp the server applied it
// at.
func (t *Txn) Commit() (int64, error) {
	return t.Go().Wait()
}

// Exec commits a one-shot transaction of item updates at ts (0 = server
// assigns) and returns the applied timestamp.
func (c *Client) Exec(ts int64, updates map[string]value.Value) (int64, error) {
	t := c.Txn().At(ts)
	for k, v := range updates {
		t.Set(k, v)
	}
	return t.Commit()
}

// Emit appends an event-only state at ts (0 = server assigns) and returns
// the applied timestamp.
func (c *Client) Emit(ts int64, events ...event.Event) (int64, error) {
	raw, err := histio.EncodeEvents(events)
	if err != nil {
		return 0, err
	}
	resp, err := c.call(&wire.Msg{T: wire.TypeEmit, TS: ts, Events: raw})
	if err != nil {
		return 0, err
	}
	return resp.TS, nil
}

// AddTrigger registers a trigger rule on the server; an optional
// scheduling mode overrides the default Eager evaluation. The server
// refuses Manual: no wire operation runs Engine.Flush. Server-side rules
// have no action body — firings are observed through subscriptions.
func (c *Client) AddTrigger(name, condition string, sched ...adb.Scheduling) error {
	return c.addRule(name, condition, false, sched)
}

// AddConstraint registers an integrity constraint; violating transactions
// fail with *adb.ConstraintError.
func (c *Client) AddConstraint(name, constraint string, sched ...adb.Scheduling) error {
	return c.addRule(name, constraint, true, sched)
}

func (c *Client) addRule(name, cond string, constraint bool, sched []adb.Scheduling) error {
	s := adb.Eager
	if len(sched) > 0 {
		s = sched[len(sched)-1]
	}
	_, err := c.call(&wire.Msg{
		T: wire.TypeRule, Name: name, Cond: cond,
		Constraint: constraint, Sched: int(s),
	})
	return err
}

// ReviveRule clears a quarantined rule's circuit breaker.
func (c *Client) ReviveRule(name string) error {
	_, err := c.call(&wire.Msg{T: wire.TypeRevive, Name: name})
	return err
}

// Ping round-trips a no-op frame.
func (c *Client) Ping() error {
	_, err := c.call(&wire.Msg{T: wire.TypePing})
	return err
}

// Now returns the engine's current (latest) timestamp.
func (c *Client) Now() (int64, error) {
	resp, err := c.call(&wire.Msg{T: wire.TypeQuery, What: "now"})
	if err != nil {
		return 0, err
	}
	return resp.TS, nil
}

// DB returns the current database state as an item map.
func (c *Client) DB() (map[string]value.Value, error) {
	resp, err := c.call(&wire.Msg{T: wire.TypeQuery, What: "db"})
	if err != nil {
		return nil, err
	}
	return histio.DecodeItems(resp.Items)
}

// Firings returns the recorded rule firings starting at index from.
func (c *Client) Firings(from int) ([]adb.Firing, error) {
	resp, err := c.call(&wire.Msg{T: wire.TypeQuery, What: "firings", From: from})
	if err != nil {
		return nil, err
	}
	out := make([]adb.Firing, 0, len(resp.Firings))
	for _, fj := range resp.Firings {
		f, err := wire.DecodeFiring(fj)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// RuleInfo describes one registered rule as reported by the server: Name,
// Condition, Constraint, Scheduling, Parameters and Pending.
type RuleInfo = wire.RuleJSON

// Rules lists the registered rules in registration order.
func (c *Client) Rules() ([]RuleInfo, error) {
	resp, err := c.call(&wire.Msg{T: wire.TypeQuery, What: "rules"})
	if err != nil {
		return nil, err
	}
	return resp.Rules, nil
}

// Health is the server's health report: per-rule failure records plus the
// engine's degradation state.
type Health struct {
	Rules []wire.HealthJSON
	// Degraded is the engine's seal message ("" while healthy): writes
	// fail with ErrDegraded but reads and subscriptions stay alive.
	Degraded string
}

// Health queries rule health and engine degradation.
func (c *Client) Health() (Health, error) {
	resp, err := c.call(&wire.Msg{T: wire.TypeQuery, What: "health"})
	if err != nil {
		return Health{}, err
	}
	return Health{Rules: resp.Health, Degraded: resp.Degraded}, nil
}

// RoleStatus is the server's replication role report.
type RoleStatus struct {
	// Role is "primary", "follower", or "standalone".
	Role string
	// Leader is the primary's address hint ("" when unknown).
	Leader string
	// Epoch is the node's replication fencing epoch (0 = never promoted).
	Epoch int64
	// LSN is the node's last durable WAL position.
	LSN int64
}

// Role queries the server's replication role; a standalone server
// reports {Role: "standalone"}.
func (c *Client) Role() (RoleStatus, error) {
	resp, err := c.call(&wire.Msg{T: wire.TypeQuery, What: "role"})
	if err != nil {
		return RoleStatus{}, err
	}
	return RoleStatus{Role: resp.Role, Leader: resp.Leader, Epoch: resp.Epoch, LSN: resp.Lsn}, nil
}

// StorageStatus is the server's storage footprint report: the WAL and
// snapshot accounting (Segments, WALBytes, Snapshots, SnapshotBytes,
// HeadLSN, LastLSN), as the engine declares it.
type StorageStatus = wire.StorageJSON

// Storage queries the server's storage footprint; servers without a
// durable store (or routers over a mix) refuse with bad_request.
func (c *Client) Storage() (StorageStatus, error) {
	resp, err := c.call(&wire.Msg{T: wire.TypeQuery, What: "storage"})
	if err != nil {
		return StorageStatus{}, err
	}
	if resp.Storage == nil {
		return StorageStatus{}, fmt.Errorf("client: storage reply carried no stats")
	}
	return *resp.Storage, nil
}

// Subscribe opens the session's firing stream starting at absolute firing
// index from: the backlog is replayed, then live firings follow in engine
// order. One subscription per session.
func (c *Client) Subscribe(from int) (*Subscription, error) {
	sub := &Subscription{c: make(chan StreamEvent, 16)}
	sub.C = sub.c
	c.mu.Lock()
	if c.sub != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("client: already subscribed")
	}
	c.sub = sub
	c.mu.Unlock()
	if _, err := c.call(&wire.Msg{T: wire.TypeSubscribe, From: from}); err != nil {
		c.mu.Lock()
		if c.sub == sub {
			c.sub = nil
		}
		c.mu.Unlock()
		return nil, err
	}
	return sub, nil
}
