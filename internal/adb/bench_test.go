package adb

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ptlactive/internal/event"
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

// BenchmarkTemporalDense is the frozen benchmark's temporal-dense row in
// miniature, for `make profile-dense`: the paper's "doubled within 10"
// trigger on 32 symbols, the 8 login-session rules, the windowed `dj_volume`
// sum and the `quote` rule, under a random walk of one price per commit with
// its @update_stocks event, Compact every 4,096 commits. Every rule counts
// a fast-path step at every commit, but a doubled rule reads the clock only
// through its time bound, so it steps in full — a timestamp register and a
// frontier — only where its price is written or its old sample's deadline
// falls, ≈ 1.4 of the 32 a commit, and replays its rest record
// between. dj_volume steps on a window and the rest on boolean and class
// registers, so the profile shows what the Section-5 recurrences cost on
// registers beside what the wake loop's replays cost.
func BenchmarkTemporalDense(b *testing.B) {
	const symbols, users = 32, 8
	sym := make([]string, symbols+1)
	price := make([]float64, symbols+1)
	initial := map[string]value.Value{}
	for i := range sym {
		sym[i] = fmt.Sprintf("S%02d", i)
		if i == symbols {
			sym[i] = "DJ"
		}
		price[i] = 100
		initial["px_"+sym[i]] = value.NewFloat(100)
	}
	var rules [][2]string // name, condition
	for i := 0; i < symbols; i++ {
		rules = append(rules, [2]string{"doubled_" + sym[i], fmt.Sprintf(`[t <- time] [x <- item("px_%s")] previously (item("px_%s") <= 0.5 * x and time >= t - 10)`, sym[i], sym[i])})
	}
	for k := 0; k < users; k++ {
		cond := fmt.Sprintf(`((not @logout(U)) since (@login(U) and item("px_DJ") > %d)) and @update_stocks("DJ")`, 90+2*k)
		if k%2 == 1 {
			cond = fmt.Sprintf(`@logout("u%d") and lasttime ((not @logout("u%d")) since (@login("u%d") and ((item("px_DJ") > 50) since @update_stocks("DJ"))))`, k, k, k)
		}
		rules = append(rules, [2]string{fmt.Sprintf("session_%d", k), cond})
	}
	rules = append(rules,
		[2]string{"dj_volume", `sum(item("px_DJ"); window 40; @update_stocks("DJ")) > 1500 and @update_stocks("DJ")`},
		[2]string{"quote", `@update_stocks(S)`})
	e := NewEngine(Config{Initial: initial})
	for _, r := range rules {
		if err := e.AddTrigger(r[0], r[1], nil); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	in := make([]bool, users)
	ts := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ts += 1 + rng.Int63n(3)
		i := rng.Intn(symbols + 1)
		switch r := rng.Float64(); {
		case r < 0.02:
			price[i] *= 2.1
		case r < 0.04:
			price[i] *= 0.45
		default:
			price[i] += (rng.Float64()*2 - 1) * 4
		}
		if price[i] < 1 || price[i] > 10000 {
			price[i] = 100
		}
		evs := []event.Event{event.New("update_stocks", value.NewString(sym[i]))}
		if u := rng.Intn(users); rng.Float64() < 0.3 {
			name := "login"
			if in[u] {
				name = "logout"
			}
			evs = append(evs, event.New(name, value.NewString(fmt.Sprintf("u%d", u))))
			in[u] = !in[u]
		}
		if err := e.Exec(ts, map[string]value.Value{"px_" + sym[i]: value.NewFloat(price[i])}, evs...); err != nil {
			b.Fatal(err)
		}
		if n%4096 == 4095 {
			e.Compact()
		}
	}
	b.ReportMetric(float64(e.EvalSteps())/float64(b.N), "steps/op")
}

// BenchmarkConstraintGate is the frozen benchmark's constraint-gate row in
// miniature, for `make profile`: 100k items, 300 temporal constraints "no
// item falls from above 900 to below 100 in one step" on the hottest keys,
// Zipf(1.1) transactions of one to three items, about one in twenty-five of
// them crashing a constrained item that is high, Compact every 4,096
// commits, as BenchmarkTemporalDense does, so the history holds at most
// that many states. Settled constraints rest at a false fixpoint, so a
// commit steps only the one to three its write set touches and counts the
// rest: the profile shows what the check costs beyond the constraints it
// touched.
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
