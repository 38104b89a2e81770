package server

import (
	"context"
	"net"
	"runtime"
	"sync/atomic"
	"testing"

	"ptlactive/client"
	"ptlactive/internal/adb"
	"ptlactive/internal/event"
	"ptlactive/internal/value"
)

// backlogCost measures allocations and bytes of one Backlog(eng, n-1) call
// over an engine whose log holds n firings.
func backlogCost(t *testing.T, n int) (allocs, bytes float64) {
	t.Helper()
	eng := adb.NewEngine(adb.Config{})
	if err := eng.AddTrigger("tick", "@tick", nil); err != nil {
		t.Fatal(err)
	}
	for ts := 1; ts <= n; ts++ {
		if err := eng.Emit(int64(ts), event.New("tick")); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.FiringCount(); got != n {
		t.Fatalf("%d firings, want %d", got, n)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if from, out := Backlog(eng, n-1, 1); from != n-1 || len(out) != 1 || out[0].Seq != n-1 {
			t.Fatalf("Backlog(%d) = %d, %d events", n-1, from, len(out))
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestBacklogTailAllocs is the gate on firing-log reads: serving the last
// firing costs the same over a log of 10 firings as over one of 10,000.
// Copying the whole log to slice its tail cost 40 B per firing in the log.
func TestBacklogTailAllocs(t *testing.T) {
	smallA, smallB := backlogCost(t, 10)
	bigA, bigB := backlogCost(t, 10_000)
	t.Logf("Backlog of the last firing: %.1f allocs, %.0f B at 10 firings; %.1f allocs, %.0f B at 10,000", smallA, smallB, bigA, bigB)
	if bigA > smallA+0.5 || bigB > smallB+64 {
		t.Fatalf("Backlog's cost grows with the log: %.1f allocs, %.0f B at 10 firings; %.1f allocs, %.0f B at 10,000", smallA, smallB, bigA, bigB)
	}
}

// countingBackend counts the log entries its Firings calls build.
type countingBackend struct {
	*EngineBackend
	built atomic.Int64
}

func (b *countingBackend) Firings(from, limit int) (int, []FiringEvent, error) {
	from, fs, err := b.EngineBackend.Firings(from, limit)
	b.built.Add(int64(len(fs)))
	return from, fs, err
}

// subscribeBuilt subscribes at 0 over a log of n two-parameter firings,
// drains the stream (SubscriberQueue firings, then one gap) and returns
// how many log entries the server built to serve it.
func subscribeBuilt(t *testing.T, n int) int64 {
	t.Helper()
	eng := adb.NewEngine(adb.Config{})
	if err := eng.AddTrigger("tick", "@tick(A, B)", nil); err != nil {
		t.Fatal(err)
	}
	for ts := 1; ts <= n; ts++ {
		if err := eng.Emit(int64(ts), event.New("tick", value.NewInt(int64(ts)), value.NewInt(int64(ts%7)))); err != nil {
			t.Fatal(err)
		}
	}
	be := &countingBackend{EngineBackend: NewEngineBackend(eng)}
	srv, err := New(Config{Backend: be, SubscriberQueue: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	conn, sconn := net.Pipe()
	srv.ServeConn(sconn)
	c, err := client.New(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	if fires, gaps := drainStream(t, sub, n); fires != 256 || len(gaps) != 1 {
		t.Fatalf("%d firings, gaps %v; want 256 firings and one gap", fires, gaps)
	}
	return be.built.Load()
}

// TestSubscribeBuildsOnlyWhatItSends is the gate on a subscription's cost:
// a subscriber at 0 over a long log builds the bindings of the firings it
// is sent, at most SubscriberQueue plus one read batch, and as many over
// 10,000 firings as over 100,000. Building the whole backlog to queue its
// first SubscriberQueue firings cost one binding per firing in the log.
func TestSubscribeBuildsOnlyWhatItSends(t *testing.T) {
	small, big := subscribeBuilt(t, 10_000), subscribeBuilt(t, 100_000)
	t.Logf("bindings built for Subscribe(0): %d over 10,000 firings, %d over 100,000", small, big)
	if small != big || big > 256+maxFiringBatch {
		t.Fatalf("Subscribe(0) built %d bindings over 10,000 firings and %d over 100,000; want the same, at most %d", small, big, 256+maxFiringBatch)
	}
}
