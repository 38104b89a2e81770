package adb

import (
	"fmt"
	"testing"

	"ptlactive/internal/value"
)

// commitAllocs measures allocations per commit on BenchmarkCommit's
// workload — a two-item transaction against eight triggers and one
// constraint — over a database of the given size. Workers is pinned to 1:
// with more, every sweep and constraint check spawns its pool goroutines
// (about three allocations per commit at GOMAXPROCS 2, five at 4), which is
// the pool's cost and not the commit path's.
func commitAllocs(t *testing.T, items int) float64 {
	t.Helper()
	initial := make(map[string]value.Value, items+3)
	for _, name := range []string{"a", "b", "c"} {
		initial[name] = value.NewInt(0)
	}
	for i := 0; i < items; i++ {
		initial[fmt.Sprintf("pad%06d", i)] = value.NewInt(int64(i))
	}
	e := NewEngine(Config{Initial: initial, Workers: 1})
	names := []string{"a", "b", "c"}
	for i := 0; i < 8; i++ {
		if err := e.AddTrigger(fmt.Sprintf("watch%d", i), fmt.Sprintf("item(%q) > 1000000", names[i%3]), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddConstraint("cap", `item("a") < 1000000`); err != nil {
		t.Fatal(err)
	}
	ts := int64(0)
	var failed error
	got := testing.AllocsPerRun(500, func() {
		ts++
		if err := e.Exec(ts, map[string]value.Value{
			"a": value.NewInt(ts % 1000),
			"b": value.NewInt(ts % 777),
		}); err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	return got
}

// TestCommitAllocs is the allocation-regression gate for the commit hot
// path: BenchmarkCommit's workload sat at 44 allocs/op when the gate landed
// (pooled key scratch, owned event sets, structurally-shared DBState), and
// the ceiling keeps those wins from rotting silently.
func TestCommitAllocs(t *testing.T) {
	if got := commitAllocs(t, 0); got > 44 {
		t.Fatalf("commit path: %.1f allocs/op, ceiling 44", got)
	}
}

// TestCommitAllocsNoLinearTerm is the same gate without a magic number: a
// commit over 100k items may allocate only the persistent map's few extra
// path nodes over a commit over 1k items (depth grows with log n). An
// accidental return to whole-map copying in history.DBState, or any other
// per-item work on the commit path, costs thousands of allocations and
// fails here on every toolchain and core count.
func TestCommitAllocsNoLinearTerm(t *testing.T) {
	small, big := commitAllocs(t, 1000), commitAllocs(t, 100000)
	if big > small+32 {
		t.Fatalf("commit allocations grow with the database: %.1f at 1k items, %.1f at 100k", small, big)
	}
}
