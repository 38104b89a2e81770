package adb

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ptlactive/internal/value"
)

// BenchmarkCommit measures the engine-side cost of one transaction on the
// hot commit path — event-set assembly, constraint check, history append,
// sweep — with a typical small rule table. Run with -benchmem: the
// per-commit allocation count is what the pooled scratch and the
// map-free small event sets are holding down.
func BenchmarkCommit(b *testing.B) {
	e := NewEngine(Config{Initial: map[string]value.Value{
		"a": value.NewInt(0), "b": value.NewInt(0), "c": value.NewInt(0),
	}})
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("watch%d", i)
		item := []string{"a", "b", "c"}[i%3]
		if err := e.AddTrigger(name, fmt.Sprintf("item(%q) > 1000000", item), nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.AddConstraint("cap", `item("a") < 1000000`); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Exec(int64(i+1), map[string]value.Value{
			"a": value.NewInt(int64(i % 1000)),
			"b": value.NewInt(int64(i % 777)),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSparseStatic is the frozen benchmark's sparse-static row in
// miniature, for `make profile`: 100k items, 2,000 quiescent `item(k) > c`
// rules on the hottest keys, Zipf(1.1) transactions of one to three items,
// Compact every 4,096 commits as the benchmark's owner loop does. A commit
// concerns a handful of rules, so what the profile shows is the sweep's
// bookkeeping and the state build, not evaluator steps.
func BenchmarkSparseStatic(b *testing.B) {
	benchSparse(b, func(item string) string { return fmt.Sprintf(`item(%q) > 998`, item) })
}

// BenchmarkSparseTemporal is the sparse-temporal row: the same data and
// commits under 2,000 exact temporal rules "item k rose above 800", which all
// step at every commit though it wrote one to three items. The profile shows
// what a step costs that found its rule's item as it was.
func BenchmarkSparseTemporal(b *testing.B) {
	benchSparse(b, func(item string) string {
		return fmt.Sprintf(`item(%q) > 800 and lasttime item(%q) <= 800`, item, item)
	})
}

func benchSparse(b *testing.B, cond func(item string) string) {
	const items, rules = 100000, 2000
	key := func(i int) string { return fmt.Sprintf("k%06d", i) }
	initial := make(map[string]value.Value, items)
	for i := 0; i < items; i++ {
		initial[key(i)] = value.NewInt(500)
	}
	e := NewEngine(Config{Initial: initial})
	for i := 0; i < rules; i++ {
		if err := e.AddTrigger(fmt.Sprintf("rule_%04d", i), cond(key(i)), nil, WithScheduling(Relevant)); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, items-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		upd := map[string]value.Value{}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			upd[key(int(zipf.Uint64()))] = value.NewInt(rng.Int63n(1000))
		}
		if err := e.Exec(int64(i+1), upd); err != nil {
			b.Fatal(err)
		}
		if i%4096 == 4095 {
			e.Compact()
		}
	}
	b.ReportMetric(float64(e.EvalSteps())/float64(b.N), "steps/op")
}

// BenchmarkConstraintGate is the frozen benchmark's constraint-gate row in
// miniature, for `make profile`: 100k items, 300 temporal constraints "no
// item falls from above 900 to below 100 in one step" on the hottest keys,
// Zipf(1.1) transactions of one to three items, about one in twenty-five of
// them crashing a constrained item that is high. A commit steps all 300
// constraints, so the profile shows what the constraint check costs per
// constraint it did not touch.
func BenchmarkConstraintGate(b *testing.B) {
	const items, gates = 100000, 300
	key := func(i int) string { return fmt.Sprintf("k%06d", i) }
	initial := make(map[string]value.Value, items)
	for i := 0; i < items; i++ {
		initial[key(i)] = value.NewInt(500)
	}
	e := NewEngine(Config{Initial: initial})
	for i := 0; i < gates; i++ {
		cond := fmt.Sprintf(`not (item(%q) < 100 and lasttime item(%q) > 900)`, key(i), key(i))
		if err := e.AddConstraint(fmt.Sprintf("nocrash_%03d", i), cond); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, items-1)
	// model mirrors the constrained items, so the run knows which commits
	// the constraints refuse.
	model := make([]int64, gates)
	for i := range model {
		model[i] = 500
	}
	rejected := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := map[int]int64{}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			k, v := int(zipf.Uint64()), rng.Int63n(1000)
			if k < gates && model[k] > 900 && v < 100 {
				v += 100
			}
			next[k] = v
		}
		crash := false
		if rng.Intn(25) == 0 {
			for k, start := 0, rng.Intn(gates); k < gates && !crash; k++ {
				if g := (start + k) % gates; model[g] > 900 {
					next[g], crash = rng.Int63n(100), true
				}
			}
		}
		upd := make(map[string]value.Value, len(next))
		for k, v := range next {
			upd[key(k)] = value.NewInt(v)
		}
		err := e.Exec(int64(i+1), upd)
		switch {
		case crash != errors.Is(err, ErrConstraintViolation), err != nil && !crash:
			b.Fatalf("commit %d: crash=%t, got %v", i, crash, err)
		case crash:
			rejected++
		default:
			for k, v := range next {
				if k < gates {
					model[k] = v
				}
			}
		}
		if i%4096 == 4095 {
			e.Compact()
		}
	}
	b.ReportMetric(100*float64(rejected)/float64(b.N), "%rejected")
}
