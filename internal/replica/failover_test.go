package replica

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptlactive/internal/value"
)

// tornConn cuts the read side after a byte budget: mid-frame, mid-batch,
// wherever the budget lands. The write side is left alone so the
// replicate request always gets out.
type tornConn struct {
	net.Conn
	mu     sync.Mutex
	budget int
}

func (c *tornConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	b := c.budget
	c.mu.Unlock()
	if b <= 0 {
		c.Conn.Close()
		return 0, fmt.Errorf("torn: read budget exhausted")
	}
	if len(p) > b {
		p = p[:b]
	}
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.budget -= n
	c.mu.Unlock()
	return n, err
}

// TestChaosTornStream tears the replication connection at an escalating
// byte budget — every cut lands at a different offset, many mid-frame —
// and checks the follower converges to a byte-identical log anyway:
// resume-by-LSN plus idempotent apply turn torn, redelivered frames into
// exactly-once effects.
func TestChaosTornStream(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p := startPrimary(t, pdir, 0)
	c := dialT(t, p.addr)
	if err := c.AddTrigger("hot", `item("a") > 5`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		if _, err := c.Exec(int64(i), map[string]value.Value{"a": value.NewInt(int64(i % 12))}); err != nil {
			t.Fatal(err)
		}
	}

	var dials int32
	fn := newFollowerNode(t, fdir, p.addr, "", 0)
	st := StartStream(fn, StreamConfig{
		Primary:     p.addr,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		Dial: func(addr string) (net.Conn, error) {
			n := atomic.AddInt32(&dials, 1)
			conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			// Attempt n may read at most 149n bytes: the first attempts die
			// inside the handshake or the first frames; later ones deliver a
			// few batches then tear mid-frame.
			return &tornConn{Conn: conn, budget: 149 * int(n)}, nil
		},
	})
	defer st.Stop()

	assertReplicaIdentical(t, p, pdir, fn, fdir)
	if got := atomic.LoadInt32(&dials); got < 3 {
		t.Fatalf("chaos dial ran %d times; the stream was never torn", got)
	}
}

// TestLeaseExclusionAndSuccession pins the flock lease contract:
// exclusive while held, epoch monotonically minted across handovers, and
// fail-stop detection when the anchor file is replaced.
func TestLeaseExclusionAndSuccession(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lease")
	l1, err := TryAcquire(path, "a")
	if err != nil {
		t.Fatal(err)
	}
	if l1.Epoch() != 1 || l1.Owner() != "a" {
		t.Fatalf("first acquisition = epoch %d owner %s", l1.Epoch(), l1.Owner())
	}
	if _, err := TryAcquire(path, "b"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("second acquisition = %v, want ErrLeaseHeld", err)
	}
	if err := l1.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := l1.Release(); err != nil {
		t.Fatal(err)
	}
	l2, err := TryAcquire(path, "b")
	if err != nil {
		t.Fatal(err)
	}
	if l2.Epoch() != 2 {
		t.Fatalf("succession epoch = %d, want 2", l2.Epoch())
	}
	// Replacing the anchor must trip Verify — the fencing guarantee is gone.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(`{"owner":"evil","epoch":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l2.Verify(); err == nil {
		t.Fatal("Verify accepted a replaced lease file")
	}
}

// TestFailoverLeasePromotion is experiment E15 in miniature: primary and
// follower with a shared lease, client workload with a live subscription,
// primary killed, follower wins the lease and promotes, client redials
// and resumes its subscription by sequence number — no acknowledged,
// replicated commit lost, no gap in the firing stream.
func TestFailoverLeasePromotion(t *testing.T) {
	leasePath := filepath.Join(t.TempDir(), "lease")
	pl, err := TryAcquire(leasePath, "primary")
	if err != nil {
		t.Fatal(err)
	}
	pdir, fdir := t.TempDir(), t.TempDir()
	p := startPrimary(t, pdir, 0)
	if err := p.node.Shipper().BumpEpoch(pl.Epoch()); err != nil {
		t.Fatal(err)
	}

	c := dialT(t, p.addr)
	if err := c.AddTrigger("hot", `item("a") > 5`); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}

	fln := listenT(t)
	fn := newFollowerNode(t, fdir, p.addr, fln.Addr().String(), 0)
	faddr := serveNode(t, fn, fln)
	st := StartStream(fn, StreamConfig{Primary: p.addr, BackoffBase: 2 * time.Millisecond})
	defer st.Stop()

	const commits = 8
	for i := 1; i <= commits; i++ {
		if _, err := c.Exec(int64(i), map[string]value.Value{"a": value.NewInt(9)}); err != nil {
			t.Fatal(err)
		}
	}
	waitLSN(t, fn, p.node.LastLSN())
	ackedLSN := p.node.LastLSN()
	prefix := walBytes(t, pdir)

	lastSeq := -1
	for i := 0; i < commits; i++ {
		ev := recvEvent(t, sub)
		if ev.Gap != 0 || ev.Seq != lastSeq+1 {
			t.Fatalf("pre-failover event = %+v after seq %d", ev, lastSeq)
		}
		lastSeq = ev.Seq
	}

	// Kill the primary. Shutdown stands in for SIGKILL; releasing the
	// lease stands in for the kernel dropping the flock at process death.
	start := time.Now()
	p.shutdown()
	pl.Release()

	// The follower's promotion loop: poll the lease until the primary's
	// death releases it, then stop the stream and promote under the
	// freshly minted epoch.
	var fl *FileLease
	for {
		fl, err = TryAcquire(leasePath, "follower")
		if errors.Is(err, ErrLeaseHeld) {
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		break
	}
	st.Stop()
	if err := fn.Promote(fl.Epoch()); err != nil {
		t.Fatal(err)
	}
	t.Logf("time to promote: %v (epoch %d)", time.Since(start), fl.Epoch())
	if fl.Epoch() != 2 {
		t.Fatalf("promotion epoch = %d, want 2", fl.Epoch())
	}

	// Zero acknowledged, replicated commits lost: the promoted node holds
	// the full replicated prefix.
	if got := fn.LastLSN(); got < ackedLSN {
		t.Fatalf("promoted node at LSN %d, primary acked through %d", got, ackedLSN)
	}
	if !bytes.HasPrefix(walBytes(t, fdir), prefix) {
		t.Fatal("promoted node's wal lost part of the replicated prefix")
	}

	// The old subscription dies with the primary; the client redials the
	// new primary and resumes by sequence number, gap-free.
	fc := dialT(t, faddr)
	rs, err := fc.Role()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Role != "primary" || rs.Leader != faddr || rs.Epoch != 2 {
		t.Fatalf("promoted role = %+v", rs)
	}
	sub2, err := fc.Subscribe(lastSeq + 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Exec(100, map[string]value.Value{"a": value.NewInt(7)}); err != nil {
		t.Fatalf("write to promoted node: %v", err)
	}
	ev := recvEvent(t, sub2)
	if ev.Gap != 0 || ev.Seq != lastSeq+1 || ev.Firing.Time != 100 {
		t.Fatalf("post-failover event = %+v, want seq %d at t=100", ev, lastSeq+1)
	}
}
