package replica

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"time"

	"ptlactive/internal/adb"
	"ptlactive/internal/persist"
	"ptlactive/internal/server"
	"ptlactive/internal/server/wire"
	"ptlactive/internal/value"
)

// startRetainingPrimary is startPrimary with an aggressive storage
// lifecycle: tiny WAL segments, a short snapshot cadence and a 1-deep
// snapshot chain, so a burst of commits garbage-collects the log head.
func startRetainingPrimary(t *testing.T, dir string) *prim {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := adb.Config{
		NoFsync:       true,
		Durability:    adb.DurabilitySnapshot,
		SnapshotEvery: 8,
		Initial:       map[string]value.Value{"a": value.NewInt(0)},
		Retention:     adb.Retention{SegmentBytes: 1 << 10, KeepSnapshots: 1},
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
	t.Cleanup(func() { p.shutdown() })
	return p
}

// primaryStorage reads the primary's storage stats at the serialization
// point.
func primaryStorage(t *testing.T, p *prim) adb.StorageStats {
	t.Helper()
	var st adb.StorageStats
	var err error
	p.node.be.Do(func() { st, err = p.eng.Storage() })
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestReplicaSnapshotBootstrapBehindHead: a follower whose resume
// position predates the primary's retained WAL head (the covering
// segments were GCed) is bootstrapped from the newest shipped snapshot
// and then converges byte-identically through the ordinary frame stream.
func TestReplicaSnapshotBootstrapBehindHead(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p := startRetainingPrimary(t, pdir)
	c := dialT(t, p.addr)
	if err := c.AddTrigger("hot", `item("a") > 5`); err != nil {
		t.Fatal(err)
	}
	// Burn through enough commits that snapshot GC truncates the head
	// well past LSN 1 — the position a fresh follower resumes from.
	ts := int64(1)
	for ; ts <= 120; ts++ {
		if _, err := c.Exec(ts, map[string]value.Value{"a": value.NewInt(ts % 10)}); err != nil {
			t.Fatal(err)
		}
	}
	p.sync(t)
	st := primaryStorage(t, p)
	if st.HeadLSN <= 1 {
		t.Fatalf("GC never truncated the head (head %d); test is vacuous", st.HeadLSN)
	}

	// A brand-new follower resumes from LSN 1 — below the head.
	fn := newFollowerNode(t, fdir, p.addr, "", 0)
	stream := StartStream(fn, StreamConfig{Primary: p.addr, BackoffBase: 2 * time.Millisecond, Logf: t.Logf})
	defer stream.Stop()
	waitLSN(t, fn, p.node.LastLSN())

	// Convergence continues through the ordinary stream: more commits,
	// then the follower's log must be byte-identical to the primary's
	// tail over the range both hold.
	for ; ts <= 165; ts++ {
		if _, err := c.Exec(ts, map[string]value.Value{"a": value.NewInt(ts % 10)}); err != nil {
			t.Fatal(err)
		}
	}
	p.sync(t)
	waitLSN(t, fn, p.node.LastLSN())
	// The primary checkpoints every few commits, so its retained log is
	// the short one: everything since its newest snapshot. Those bytes
	// must be the exact tail of the follower's log, which kept everything
	// since the bootstrap point (the follower runs no GC here).
	pb, fb := walBytes(t, pdir), walBytes(t, fdir)
	if len(pb) == 0 || !bytes.HasSuffix(fb, pb) {
		t.Fatalf("primary's retained log (%d bytes) is not a byte suffix of the follower's (%d bytes)", len(pb), len(fb))
	}
	// The follower took the snapshot path, not a full replay: its oldest
	// retained frame postdates the position it originally asked for.
	recs, _, err := persist.ParseFrames(fb)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].LSN <= 1 {
		t.Fatalf("follower log starts at LSN %d; wanted a post-bootstrap suffix", recs[0].LSN)
	}

	feng := fn.engine()
	if feng == nil {
		t.Fatal("follower engine missing after bootstrap")
	}
	if feng.Now() != p.eng.Now() {
		t.Fatalf("clocks diverge: follower %d, primary %d", feng.Now(), p.eng.Now())
	}
	pdb, fdb := p.eng.DB(), feng.DB()
	for _, name := range pdb.Items() {
		pv, _ := pdb.Get(name)
		fv, ok := fdb.Get(name)
		if !ok || !reflect.DeepEqual(pv, fv) {
			t.Fatalf("item %q diverges: primary %v, follower %v", name, pv, fv)
		}
	}
	// The firing logs must agree structurally (the follower's prefix went
	// through the snapshot's JSON round trip, so representations may
	// differ while the values must not).
	pf, ff := p.eng.Firings(), feng.Firings()
	if len(pf) == 0 {
		t.Fatal("workload produced no firings; test is vacuous")
	}
	if len(pf) != len(ff) {
		t.Fatalf("firing logs diverge: primary %d, follower %d", len(pf), len(ff))
	}
	for i := range pf {
		x, y := pf[i], ff[i]
		if x.Rule != y.Rule || x.Time != y.Time || x.StateIndex != y.StateIndex || len(x.Binding) != len(y.Binding) {
			t.Fatalf("firing %d diverges: primary %+v, follower %+v", i, x, y)
		}
		for k, v := range x.Binding {
			if w, ok := y.Binding[k]; !ok || !v.Equal(w) {
				t.Fatalf("firing %d binding %q diverges: %v vs %v", i, k, v, w)
			}
		}
	}

	// The follower's storage query reports through the node backend.
	sj, err := fn.Storage()
	if err != nil {
		t.Fatal(err)
	}
	if sj.LastLSN != p.node.LastLSN() {
		t.Fatalf("follower storage last LSN %d, want %d", sj.LastLSN, p.node.LastLSN())
	}
}

// TestWalTruncatedWireCode: the persist-layer truncated-head sentinel
// maps to the wal_truncated wire code, and a client-side RemoteError
// with that code unwraps to wire.ErrWalTruncated.
func TestWalTruncatedWireCode(t *testing.T) {
	if got := wire.CodeFor(&wire.RemoteError{Code: wire.CodeWalTruncated}); got != wire.CodeWalTruncated {
		t.Fatalf("CodeFor round-trip = %q", got)
	}
}
