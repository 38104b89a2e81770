// Benchmarks: one testing.B benchmark per reproduction experiment
// (E1-E9, DESIGN.md section 3). The experiment kernels live in
// internal/experiments; cmd/benchtables prints the full sweep tables these
// benchmarks sample.
//
//	go test -bench=. -benchmem
package ptlactive_test

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"ptlactive"
	"ptlactive/internal/adb"
	"ptlactive/internal/experiments"
	"ptlactive/internal/ptlgen"
	"ptlactive/internal/workload"
)

const doubledCondition = `[t <- time] [x <- item("px_IBM")]
    previously (item("px_IBM") <= 0.5 * x and time >= t - 10)`

// BenchmarkE1IncrementalVsNaive measures per-update evaluation cost at
// several history lengths for both engines (the paper's core efficiency
// claim: incremental cost is independent of history length).
func BenchmarkE1IncrementalVsNaive(b *testing.B) {
	f, err := ptlactive.ParseCondition(doubledCondition)
	if err != nil {
		b.Fatal(err)
	}
	reg := ptlactive.NewRegistry()
	for _, n := range []int{100, 1000, 4000} {
		h := workload.Stocks(rand.New(rand.NewSource(1)), workload.DefaultStockConfig(), n)
		b.Run(fmt.Sprintf("incremental/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunIncremental(f, reg, h); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*h.Len()), "ns/update")
		})
		if n <= 1000 {
			b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := experiments.RunNaive(f, reg, h); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*h.Len()), "ns/update")
			})
		}
	}
}

// BenchmarkE2BoundedState measures the time-bound optimization: per-run
// cost and peak retained state with and without it.
func BenchmarkE2BoundedState(b *testing.B) {
	for _, optimized := range []bool{true, false} {
		name := "optimized"
		if !optimized {
			name = "unoptimized"
		}
		b.Run(name, func(b *testing.B) {
			peak := 0
			for i := 0; i < b.N; i++ {
				p, err := experiments.BoundedStateRun(2000, 50, optimized)
				if err != nil {
					b.Fatal(err)
				}
				peak = p
			}
			b.ReportMetric(float64(peak), "peak-nodes")
		})
	}
}

// BenchmarkE3AggregateRewriting compares direct incremental aggregates
// against the Section-6.1.1 rule rewriting and the naive recomputation.
func BenchmarkE3AggregateRewriting(b *testing.B) {
	cond := `sum(item("px_IBM"); time = 0; @update_stocks("IBM")) > 1000000`
	f, err := ptlactive.ParseCondition(cond)
	if err != nil {
		b.Fatal(err)
	}
	reg := ptlactive.NewRegistry()
	h := workload.Stocks(rand.New(rand.NewSource(3)), workload.DefaultStockConfig(), 1000)
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RunIncremental(f, reg, h); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RunNaive(f, reg, h); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE4FiringThroughput measures end-to-end evaluation throughput on
// random formulas.
func BenchmarkE4FiringThroughput(b *testing.B) {
	reg := ptlgen.Registry()
	for _, depth := range []int{2, 4} {
		rng := rand.New(rand.NewSource(4))
		f := ptlgen.Formula(rng, depth)
		h := ptlgen.History(rng, 500)
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunIncremental(f, reg, h); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*h.Len()), "ns/state")
		})
	}
}

// BenchmarkE5ValidTime replays a retroactive workload against tentative
// and definite monitors.
func BenchmarkE5ValidTime(b *testing.B) {
	for _, delta := range []int64{5, 50} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.RunValidTime(delta, 50)
			}
		})
	}
}

// BenchmarkE6OnlineOffline measures the satisfaction checks over random
// schedules (and asserts Theorem 2 as a side effect).
func BenchmarkE6OnlineOffline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, cd := experiments.OnlineOfflineRun(50, int64(i))
		if cd != 0 {
			b.Fatalf("Theorem 2 violated in benchmark run: %d diverging collapsed schedules", cd)
		}
	}
}

// BenchmarkE7StateBlowup compiles the k-th-from-the-end family for the
// event-expression engine (exponential DFA) and the PTL engine (linear
// registers); the table version prints the state counts.
func BenchmarkE7StateBlowup(b *testing.B) {
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := experiments.E7StateBlowup(true)
			if len(t.Rows) == 0 {
				b.Fatal("empty table")
			}
		}
	})
}

// BenchmarkE8RelevanceFiltering measures the execution model's relevance
// filter: per-run cost with eager vs filtered scheduling.
func BenchmarkE8RelevanceFiltering(b *testing.B) {
	for _, mode := range []struct {
		name  string
		sched adb.Scheduling
	}{{"eager", adb.Eager}, {"relevant", adb.Relevant}} {
		b.Run(mode.name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				s, _ := experiments.RelevanceRun(100, 500, mode.sched)
				steps = s
			}
			b.ReportMetric(float64(steps), "eval-steps")
		})
	}
}

// BenchmarkE8ParallelSweep measures the parallel temporal component on a
// wide rule set (R=1000 eager rules, the regime where the per-state sweep
// dominates): Workers=1 is the sequential baseline, Workers=GOMAXPROCS
// shards the sweep across the pool. Firings are byte-identical either way.
func BenchmarkE8ParallelSweep(b *testing.B) {
	const rules, states = 1000, 200
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				s, _ := experiments.RelevanceRunWorkers(rules, states, adb.Eager, workers)
				steps = s
			}
			b.ReportMetric(float64(steps), "eval-steps")
		})
	}
}

// BenchmarkSweepWithSandbox prices the fault-isolation layer on the E8
// parallel sweep (R=1000 eager rules): "plain" is the nil-action baseline
// of BenchmarkE8ParallelSweep, "actions" routes every firing through the
// sandbox's recover wrapper, and "governed" adds the full governance
// surface (sweep budget, circuit breaker, action deadline) with no fault
// ever occurring. The governed-minus-plain delta is the steady-state cost
// of the robustness layer; it is expected to stay within a few percent,
// since the budget check is one comparison per evaluator step and the
// sandbox runs only on the workload's sparse firings.
func BenchmarkSweepWithSandbox(b *testing.B) {
	const rules, states = 1000, 200
	workers := runtime.GOMAXPROCS(0)
	arms := []struct {
		name string
		run  func() int64
	}{
		{"plain", func() int64 {
			s, _ := experiments.RelevanceRunWorkers(rules, states, adb.Eager, workers)
			return s
		}},
		{"actions", func() int64 {
			s, _ := experiments.RelevanceRunGoverned(rules, states, adb.Eager, workers, false)
			return s
		}},
		{"governed", func() int64 {
			s, _ := experiments.RelevanceRunGoverned(rules, states, adb.Eager, workers, true)
			return s
		}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				steps = arm.run()
			}
			b.ReportMetric(float64(steps), "eval-steps")
		})
	}
}

// BenchmarkE13Server measures firing fan-out through the network service
// layer: 100 pipelined commits, each firing once, delivered in batched
// frames to 100 subscribers.
func BenchmarkE13Server(b *testing.B) {
	const commits, subs = 100, 100
	for i := 0; i < b.N; i++ {
		if _, delivered := experiments.FanoutRun(commits, subs); delivered != commits*subs {
			b.Fatalf("delivered %d of %d firings", delivered, commits*subs)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*commits), "us/commit")
}

// BenchmarkE9TemporalActions measures the executed-predicate machinery
// driving the Section-7 BUY-STOCK temporal action.
func BenchmarkE9TemporalActions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buys, _ := experiments.TemporalActionRun(500)
		if buys == 0 {
			b.Fatal("temporal action never ran")
		}
	}
}

// BenchmarkAblationDecomposable measures the general constraint-graph
// machinery against the boolean fast path on the decomposable subclass
// (the paper's prototype scope, [Deng 94]).
func BenchmarkAblationDecomposable(b *testing.B) {
	for _, fast := range []bool{false, true} {
		name := "general"
		if fast {
			name = "fast"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.DecomposableRun(2000, fast); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtensionFutureProgression measures the future-operator monitor
// (the paper's Section-11 extension) on bounded vs unbounded obligations.
func BenchmarkExtensionFutureProgression(b *testing.B) {
	for _, bounded := range []bool{false, true} {
		name := "unbounded"
		if bounded {
			name = "bounded"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, _, _ := experiments.FutureMonitorRun(1000, bounded)
				if v == 0 {
					b.Fatal("no verdicts")
				}
			}
		})
	}
}

// persistBenchEngine builds a durable engine in dir with one temporal rule
// and n committed states, checkpointing (or not) so the WAL tail has the
// requested length.
func persistBenchEngine(b *testing.B, dir string, states int, checkpointAfter bool) {
	b.Helper()
	cfg := persistBenchConfig()
	eng, err := ptlactive.Restore(cfg, dir)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.AddTrigger("spike",
		`@tick and item("px") > 110 and previously item("px") <= 110`, nil); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < states; i++ {
		px := int64(100 + (i % 40) - 20)
		if err := eng.Exec(int64(i+1), map[string]ptlactive.Value{"px": ptlactive.Int(px)},
			ptlactive.NewEvent("tick")); err != nil {
			b.Fatal(err)
		}
	}
	if checkpointAfter {
		if err := eng.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}
}

func persistBenchConfig() ptlactive.Config {
	return ptlactive.Config{
		Initial:    map[string]ptlactive.Value{"px": ptlactive.Int(100)},
		TrackItems: []string{"px"},
		Durability: ptlactive.DurabilityWAL,
		NoFsync:    true,
	}
}

// BenchmarkSnapshotSave measures serializing the full engine state — rule
// evaluator registers, aux relations, history window, pending firings —
// to a writer. Theorem 1's bounded evaluator state is why this stays
// small and flat as the committed history grows.
func BenchmarkSnapshotSave(b *testing.B) {
	eng := ptlactive.NewEngine(ptlactive.Config{
		Initial:    map[string]ptlactive.Value{"px": ptlactive.Int(100)},
		TrackItems: []string{"px"},
	})
	if err := eng.AddTrigger("spike",
		`@tick and item("px") > 110 and previously item("px") <= 110`, nil); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		px := int64(100 + (i % 40) - 20)
		if err := eng.Exec(int64(i+1), map[string]ptlactive.Value{"px": ptlactive.Int(px)},
			ptlactive.NewEvent("tick")); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.SaveSnapshot(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecover measures Restore for two disk layouts of the same
// 1000-state run: everything in one snapshot (tail replay is empty) vs a
// snapshot-free log whose 1k-record tail replays through the sweep path.
func BenchmarkRecover(b *testing.B) {
	for _, tail := range []bool{false, true} {
		name := "snapshot-only"
		if tail {
			name = "wal-tail-1k"
		}
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			persistBenchEngine(b, dir, 1000, !tail)
			cfg := persistBenchConfig()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := ptlactive.Restore(cfg, dir)
				if err != nil {
					b.Fatal(err)
				}
				if tail && eng.Recovery().ReplayedRecords < 1000 {
					b.Fatalf("expected a ~1k-record tail, replayed %d", eng.Recovery().ReplayedRecords)
				}
				if err := eng.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
