package server

import (
	"runtime"
	"testing"

	"ptlactive/internal/adb"
	"ptlactive/internal/event"
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
		if from, out := Backlog(eng, n-1); from != n-1 || len(out) != 1 || out[0].Seq != n-1 {
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
