package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ptlactive/client"
	"ptlactive/internal/adb"
	"ptlactive/internal/server"
	"ptlactive/internal/server/wire"
	"ptlactive/internal/value"
)

// walSegment reports whether name is a WAL segment file (wal.000001,
// wal.000002, ...); the manifest (wal.manifest) is not one.
func walSegment(name string) bool {
	if !strings.HasPrefix(name, "wal.") {
		return false
	}
	digits := name[len("wal."):]
	if digits == "" {
		return false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// prim bundles a running primary: durable engine, node, server.
type prim struct {
	node *Node
	eng  *adb.Engine
	addr string
	srv  *server.Server
}

// startPrimary restores (or creates) a durable primary in dir and serves
// it on loopback with replication enabled. workers sets the deprecated
// Config.Workers, which the engine ignores; 0 leaves it unset.
func startPrimary(t *testing.T, dir string, workers int) *prim {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := adb.Config{
		Workers:    workers,
		NoFsync:    true,
		Durability: adb.DurabilityWAL,
		Initial:    map[string]value.Value{"a": value.NewInt(0)},
	}
	eng, err := adb.Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	node := NewPrimary(server.NewEngineBackend(eng), ln.Addr().String())
	srv, err := server.New(server.Config{Backend: node, WALSource: node, RoleInfo: node.RoleInfo})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	p := &prim{node: node, eng: eng, addr: ln.Addr().String(), srv: srv}
	t.Cleanup(func() { p.shutdown() }) // idempotent
	return p
}

func (p *prim) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	p.srv.Shutdown(ctx)
}

// newFollowerNode opens a follower node over dir replicating (logically)
// from primaryAddr; the stream is the caller's to start. advertise is the
// address the node reports as leader once promoted ("" for unserved
// followers).
func newFollowerNode(t *testing.T, dir, primaryAddr, advertise string, workers int) *Node {
	t.Helper()
	n, err := NewFollower(adb.Config{Workers: workers, NoFsync: true}, dir, primaryAddr, advertise)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// listenT grabs a loopback listener, so a node's advertise address can be
// known before the node exists (the daemon orders it the same way).
func listenT(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// serveNode exposes an existing node (usually a follower) on ln.
func serveNode(t *testing.T, n *Node, ln net.Listener) string {
	t.Helper()
	srv, err := server.New(server.Config{Backend: n, WALSource: n, RoleInfo: n.RoleInfo})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String()
}

func dialT(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.DialOptions(addr, client.Options{Retry: client.DefaultRetry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitLSN blocks until the follower has applied through want.
func waitLSN(t *testing.T, n *Node, want int64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if n.LastLSN() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower stuck at LSN %d, want %d", n.LastLSN(), want)
}

func walBytes(t *testing.T, dir string) []byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range entries {
		if walSegment(ent.Name()) {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names) // zero-padded ordinals: lexical order is replay order
	var out []byte
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	return out
}

// assertReplicaIdentical is the core acceptance check: after the follower
// catches up, the two wal files are byte-equal and
// the replayed firing streams and database states agree.
func assertReplicaIdentical(t *testing.T, p *prim, pdir string, fn *Node, fdir string) {
	t.Helper()
	waitLSN(t, fn, p.node.LastLSN())
	pb, fb := walBytes(t, pdir), walBytes(t, fdir)
	if !bytes.Equal(pb, fb) {
		t.Fatalf("wal bytes differ at LSN %d: primary %d bytes, follower %d bytes",
			p.node.LastLSN(), len(pb), len(fb))
	}
	feng := fn.engine()
	if feng == nil {
		t.Fatal("follower engine missing after catch-up")
	}
	pf, ff := p.eng.Firings(), feng.Firings()
	if !reflect.DeepEqual(pf, ff) {
		t.Fatalf("firing streams diverge: primary %d firings, follower %d", len(pf), len(ff))
	}
	pdb, fdb := p.eng.DB(), feng.DB()
	for _, name := range pdb.Items() {
		pv, _ := pdb.Get(name)
		fv, ok := fdb.Get(name)
		if !ok || !reflect.DeepEqual(pv, fv) {
			t.Fatalf("item %q diverges: primary %v, follower %v (ok=%v)", name, pv, fv, ok)
		}
	}
}

// TestFollowerByteIdentity is the tentpole property test: under both
// codecs and both settings of the ignored Config.Workers, a follower
// streaming over the wire is
// byte-identical to the primary at every checked batch boundary — wal
// file, firing stream, database state.
func TestFollowerByteIdentity(t *testing.T) {
	codecs := map[string][]string{
		"json":   {wire.CodecNameJSON},
		"binary": nil, // default offer negotiates binary
	}
	for _, workers := range []int{1, 4} {
		for cname, offer := range codecs {
			t.Run(fmt.Sprintf("workers=%d/codec=%s", workers, cname), func(t *testing.T) {
				pdir, fdir := t.TempDir(), t.TempDir()
				p := startPrimary(t, pdir, workers)
				c := dialT(t, p.addr)
				if err := c.AddTrigger("hot", `item("a") > 5`); err != nil {
					t.Fatal(err)
				}
				fn := newFollowerNode(t, fdir, p.addr, "", workers)
				st := StartStream(fn, StreamConfig{Primary: p.addr, Codecs: offer, BackoffBase: 2 * time.Millisecond})
				defer st.Stop()

				// 225 commits: the primary's pipeline compacts at least
				// three times (every 64 operations), and its compact
				// records ship and replay like any other.
				ts := int64(1)
				for round := 0; round < 5; round++ {
					for i := 0; i < 45; i++ {
						v := int64((i*3 + round) % 10)
						if _, err := c.Exec(ts, map[string]value.Value{"a": value.NewInt(v)}); err != nil {
							t.Fatal(err)
						}
						ts++
					}
					// Check identity at this batch boundary before growing on.
					assertReplicaIdentical(t, p, pdir, fn, fdir)
				}
				if len(p.eng.Firings()) == 0 {
					t.Fatal("workload produced no firings; test is vacuous")
				}
				if pb, fb := p.eng.BaseIndex(), fn.engine().BaseIndex(); pb <= 2*64 || fb != pb {
					t.Fatalf("base index: primary %d, follower %d; want equal, after at least three compactions", pb, fb)
				}
			})
		}
	}
}

// TestShipAfterReply: a primary hands a commit's WAL batch to its followers
// only after the commit's reply is enqueued, and batches still arrive in LSN
// order, gap-free and stamped with the epoch in force when they hit disk —
// across pipelined commits and a BumpEpoch between them. The sink records
// each call beside the commits' done callbacks; both run on the backend's
// pipeline goroutine, so the record is the exact order of events there.
func TestShipAfterReply(t *testing.T) {
	eng, err := adb.Restore(adb.Config{NoFsync: true, Durability: adb.DurabilityWAL,
		Initial: map[string]value.Value{"a": value.NewInt(0)}}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	be := server.NewEngineBackend(eng)
	defer be.Close()
	sh := NewShipper(be)
	var events []string
	from := sh.LastLSN() + 1
	cancel, err := sh.FollowWAL(from, 0, func() {}, func(b server.WALBatch) {
		events = append(events, fmt.Sprintf("batch %d-%d epoch %d", b.First, b.Last, b.Epoch))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	commit := func(ts int64) {
		be.GoTxn(ts, map[string]value.Value{"a": value.NewInt(ts)}, nil, nil, func(ts int64, err error) {
			if err != nil {
				t.Errorf("commit %d: %v", ts, err)
			}
			events = append(events, fmt.Sprintf("reply %d", ts))
		})
	}
	for ts := int64(1); ts <= 3; ts++ {
		commit(ts)
	}
	if err := sh.BumpEpoch(2); err != nil {
		t.Fatal(err)
	}
	for ts := int64(4); ts <= 6; ts++ {
		commit(ts)
	}
	be.Barrier()

	var want []string
	lsn := from
	for ts := int64(1); ts <= 6; ts++ {
		if ts == 4 { // the epoch record ships stamped with the old epoch
			want = append(want, fmt.Sprintf("batch %d-%d epoch 0", lsn, lsn))
			lsn++
		}
		epoch := 0
		if ts >= 4 {
			epoch = 2
		}
		want = append(want, fmt.Sprintf("reply %d", ts), fmt.Sprintf("batch %d-%d epoch %d", lsn, lsn, epoch))
		lsn++
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("pipeline order:\n got  %q\n want %q", events, want)
	}
}

// TestFollowerServesReadsRefusesWrites: a follower answers queries,
// role, and firing subscriptions, and bounces writes with the
// not_primary sentinel carrying the primary's address.
func TestFollowerServesReadsRefusesWrites(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p := startPrimary(t, pdir, 0)
	c := dialT(t, p.addr)
	if err := c.AddTrigger("hot", `item("a") > 5`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(1, map[string]value.Value{"a": value.NewInt(9)}); err != nil {
		t.Fatal(err)
	}
	fln := listenT(t)
	fn := newFollowerNode(t, fdir, p.addr, fln.Addr().String(), 0)
	st := StartStream(fn, StreamConfig{Primary: p.addr, BackoffBase: 2 * time.Millisecond})
	defer st.Stop()
	waitLSN(t, fn, p.node.LastLSN())

	faddr := serveNode(t, fn, fln)
	fc := dialT(t, faddr)

	// Reads work and match the primary.
	rs, err := fc.Role()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Role != "follower" || rs.Leader != p.addr {
		t.Fatalf("role = %+v, want follower led by %s", rs, p.addr)
	}
	fs, err := fc.Firings(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Rule != "hot" {
		t.Fatalf("follower firings = %+v", fs)
	}

	// Writes bounce with the redirect hint.
	_, err = fc.Exec(2, map[string]value.Value{"a": value.NewInt(1)})
	if !errors.Is(err, wire.ErrNotPrimary) {
		t.Fatalf("follower write error = %v, want ErrNotPrimary", err)
	}
	var npe *wire.NotPrimaryError
	if !errors.As(err, &npe) || npe.Leader != p.addr {
		t.Fatalf("redirect hint = %+v, want leader %s", npe, p.addr)
	}
	if err := fc.AddTrigger("nope", `item("a") > 0`); !errors.Is(err, wire.ErrNotPrimary) {
		t.Fatalf("follower rule registration error = %v, want ErrNotPrimary", err)
	}

	// Subscriptions serve the replicated firing stream: backlog then live.
	sub, err := fc.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	ev := recvEvent(t, sub)
	if ev.Firing.Rule != "hot" || ev.Seq != 0 {
		t.Fatalf("backlog event = %+v", ev)
	}
	if _, err := c.Exec(2, map[string]value.Value{"a": value.NewInt(8)}); err != nil {
		t.Fatal(err)
	}
	ev = recvEvent(t, sub)
	if ev.Firing.Time != 2 || ev.Seq != 1 || ev.Gap != 0 {
		t.Fatalf("live replicated event = %+v", ev)
	}
}

func recvEvent(t *testing.T, sub *client.Subscription) client.StreamEvent {
	t.Helper()
	select {
	case ev, ok := <-sub.C:
		if !ok {
			t.Fatal("subscription closed")
		}
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("no event within 10s")
	}
	panic("unreachable")
}

// TestApplyFramesDuplicatesGapsAndFencing pins the follower-side apply
// contract at the engine level: redelivered frames are idempotent, gaps
// are hard errors, and batches from a deposed primary's older epoch are
// fenced off.
func TestApplyFramesDuplicatesGapsAndFencing(t *testing.T) {
	dir := t.TempDir()
	cfg := adb.Config{NoFsync: true, Durability: adb.DurabilityWAL,
		Initial: map[string]value.Value{"a": value.NewInt(0)}}
	eng, err := adb.Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 1; i <= 4; i++ {
		if err := eng.Exec(int64(i), map[string]value.Value{"a": value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	chunks, err := eng.WALReadFrom(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) == 0 {
		t.Fatal("no backlog")
	}
	whole := chunks[0].Data
	for _, c := range chunks[1:] {
		whole = append(whole, c.Data...)
	}
	last := chunks[len(chunks)-1].Last

	fol, err := adb.OpenFollower(adb.Config{}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	// A gap beyond lastLSN+1 is refused before anything is persisted.
	tail, err := eng.WALReadFrom(3, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fol.ApplyFrames(tail[0].Data, 0); err == nil {
		t.Fatal("gapped batch (starts at LSN 3, follower empty) accepted")
	}
	if fol.LastLSN() != 0 {
		t.Fatalf("gapped batch moved LastLSN to %d", fol.LastLSN())
	}

	n, err := fol.ApplyFrames(whole, 0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != last {
		t.Fatalf("applied %d records, want %d", n, last)
	}
	// Exact redelivery: zero newly applied, no error, no divergence.
	n, err = fol.ApplyFrames(whole, 0)
	if err != nil || n != 0 {
		t.Fatalf("duplicate batch: applied=%d err=%v, want 0, nil", n, err)
	}
	if fol.LastLSN() != last {
		t.Fatalf("LastLSN moved to %d on duplicate", fol.LastLSN())
	}

	// Fence: the primary promotes (epoch record), the follower applies it,
	// and a deposed primary's older-epoch batch is rejected thereafter.
	if err := eng.BumpEpoch(3); err != nil {
		t.Fatal(err)
	}
	if err := eng.Exec(9, map[string]value.Value{"a": value.NewInt(9)}); err != nil {
		t.Fatal(err)
	}
	chunks, err = eng.WALReadFrom(last+1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if _, err := fol.ApplyFrames(c.Data, 3); err != nil {
			t.Fatal(err)
		}
	}
	if fol.Epoch() != 3 {
		t.Fatalf("follower epoch %d after epoch record, want 3", fol.Epoch())
	}
	if _, err := fol.ApplyFrames(whole, 0); err == nil {
		t.Fatal("older-epoch batch accepted after fence")
	}
}

// TestPromoteFollower: a caught-up follower promotes, accepts writes,
// fences with the new epoch, and survives its own restart as a primary.
func TestPromoteFollower(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p := startPrimary(t, pdir, 0)
	c := dialT(t, p.addr)
	if err := c.AddTrigger("hot", `item("a") > 5`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := c.Exec(int64(i), map[string]value.Value{"a": value.NewInt(9)}); err != nil {
			t.Fatal(err)
		}
	}
	fln := listenT(t)
	fn := newFollowerNode(t, fdir, p.addr, fln.Addr().String(), 0)
	st := StartStream(fn, StreamConfig{Primary: p.addr, BackoffBase: 2 * time.Millisecond})
	waitLSN(t, fn, p.node.LastLSN())
	prefix := walBytes(t, pdir)

	st.Stop()
	p.shutdown()
	if err := fn.Promote(2); err != nil {
		t.Fatal(err)
	}
	if got := fn.Epoch(); got != 2 {
		t.Fatalf("epoch after promote = %d, want 2", got)
	}
	if ri := fn.RoleInfo(); ri.Role != "primary" {
		t.Fatalf("role after promote = %+v", ri)
	}

	// Writes flow; firings continue the same stream.
	faddr := serveNode(t, fn, fln)
	fc := dialT(t, faddr)
	if _, err := fc.Exec(10, map[string]value.Value{"a": value.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	fs, err := fc.Firings(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 4 || fs[3].Time != 10 {
		t.Fatalf("post-promotion firings = %+v", fs)
	}

	// The promoted log extends the replicated prefix byte-for-byte.
	grown := walBytes(t, fdir)
	if !bytes.HasPrefix(grown, prefix) || len(grown) <= len(prefix) {
		t.Fatalf("promoted wal (%d bytes) does not extend the replicated prefix (%d bytes)",
			len(grown), len(prefix))
	}
}

// TestPrimaryRestartEveryBatchBoundary kills (gracefully stops) and
// restarts the primary after every replication batch; the follower
// redials, resumes by LSN, and stays byte-identical after each round —
// the committed prefix survives every boundary with no double-applies
// (byte identity rules them out).
func TestPrimaryRestartEveryBatchBoundary(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	var fn *Node
	ts := int64(1)
	const perRound = 3
	for round := 0; round < 5; round++ {
		p := startPrimary(t, pdir, 0)
		c := dialT(t, p.addr)
		if round == 0 {
			if err := c.AddTrigger("hot", `item("a") > 5`); err != nil {
				t.Fatal(err)
			}
			fn = newFollowerNode(t, fdir, p.addr, "", 0)
		}
		fn.SetLeader(p.addr)
		st := StartStream(fn, StreamConfig{Primary: p.addr, BackoffBase: 2 * time.Millisecond})
		for i := 0; i < perRound; i++ {
			if _, err := c.Exec(ts, map[string]value.Value{"a": value.NewInt(int64(6 + i))}); err != nil {
				t.Fatal(err)
			}
			ts++
		}
		assertReplicaIdentical(t, p, pdir, fn, fdir)
		st.Stop()
		c.Close()
		p.shutdown() // the batch boundary kill
	}
}

// TestFollowerKeepsOnFiring: a follower's Config.OnFiring is the
// embedder's. It sees the firings the applied batches derive, in order,
// and still sees them once the node is promoted and commits itself.
func TestFollowerKeepsOnFiring(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p := startPrimary(t, pdir, 0)
	c := dialT(t, p.addr)
	if err := c.AddTrigger("hot", `item("a") > 5`); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seen []int64
	observed := func() []int64 {
		mu.Lock()
		defer mu.Unlock()
		return append([]int64(nil), seen...)
	}
	cfg := adb.Config{NoFsync: true, OnFiring: func(f adb.Firing) {
		mu.Lock()
		seen = append(seen, f.Time)
		mu.Unlock()
	}}
	fln := listenT(t)
	fn, err := NewFollower(cfg, fdir, p.addr, fln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	st := StartStream(fn, StreamConfig{Primary: p.addr, BackoffBase: 2 * time.Millisecond})
	for i := 1; i <= 3; i++ {
		if _, err := c.Exec(int64(i), map[string]value.Value{"a": value.NewInt(9)}); err != nil {
			t.Fatal(err)
		}
	}
	waitLSN(t, fn, p.node.LastLSN())
	if got := observed(); !reflect.DeepEqual(got, []int64{1, 2, 3}) {
		t.Fatalf("follower's OnFiring saw firings at %v, want [1 2 3]", got)
	}

	st.Stop()
	p.shutdown()
	if err := fn.Promote(2); err != nil {
		t.Fatal(err)
	}
	fc := dialT(t, serveNode(t, fn, fln))
	if _, err := fc.Exec(10, map[string]value.Value{"a": value.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	if got := observed(); !reflect.DeepEqual(got, []int64{1, 2, 3, 10}) {
		t.Fatalf("after promotion the OnFiring saw firings at %v, want [1 2 3 10]", got)
	}
}
