// Package gen generates the benchmark's inputs: for each workload a
// database, a rule table and an endless, seeded stream of transactions.
// The system under test receives only what this package produces; one
// seed gives one stream (see Digest).
package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"

	"ptlactive/internal/adb"
	"ptlactive/internal/event"
	"ptlactive/internal/value"
)

// Rule is one row of a workload's rule table.
type Rule struct {
	Name       string
	Cond       string
	Constraint bool
	Sched      adb.Scheduling
	// Param and Domain enumerate the rule's free parameter for the oracle
	// check (every value the generator can bind it to); empty for closed
	// rules. Rules with several parameters are checked for soundness only.
	Param  string
	Domain []value.Value
}

// Op is one transaction. Reject names the integrity constraint the
// generator expects to refuse it ("" means it commits).
type Op struct {
	TS      int64
	Updates map[string]value.Value
	Events  []event.Event
	Reject  string
}

// Workload is a generated input: Initial and Rules are fixed at
// construction, Next yields the op stream.
type Workload struct {
	Name    string
	Initial map[string]value.Value
	Rules   []Rule
	next    func() Op
}

// Next returns the next transaction of the stream.
func (w *Workload) Next() Op { return w.next() }

// Take returns the next n transactions.
func (w *Workload) Take(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = w.next()
	}
	return ops
}

// Names lists the workloads in the order the suite runs them.
func Names() []string {
	return []string{
		"temporal-dense", "sparse-static", "sparse-temporal", "constraint-gate",
		"durable-served", "firing-stream", "replicated",
	}
}

// New builds the named workload from a seed.
func New(name string, seed int64) (*Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "temporal-dense":
		return temporalDense(rng), nil
	case "sparse-static":
		return sparse(name, rng, staticRules), nil
	case "sparse-temporal":
		return sparse(name, rng, temporalRules), nil
	case "constraint-gate":
		return constraintGate(rng), nil
	case "durable-served":
		return durableServed(rng), nil
	case "firing-stream":
		return firingStream(rng), nil
	case "replicated":
		return replicated(rng), nil
	}
	return nil, fmt.Errorf("gen: unknown workload %q", name)
}

// Digest is a stable hash of an op sequence: timestamps, sorted updates,
// events and expectations.
func Digest(ops []Op) string {
	h := sha256.New()
	for _, op := range ops {
		fmt.Fprintf(h, "t%d r%q", op.TS, op.Reject)
		keys := make([]string, 0, len(op.Updates))
		for k := range op.Updates {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, " %s=%s", k, op.Updates[k].Key())
		}
		for _, e := range op.Events {
			fmt.Fprintf(h, " @%s", e.Key())
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// Key names the i-th item of the keyed workloads.
func Key(i int) string { return fmt.Sprintf("k%06d", i) }

// Sizes the workload rows fix; the tests assert the generated stream has
// the shape these promise.
const (
	Symbols      = 32
	Users        = 8
	SparseItems  = 100000
	SparseRules  = 2000
	GateRules    = 300
	GateTriggers = 8
	ViolateShare = 0.05
	ServedItems  = 1000
	ZipfS        = 1.1
)

// temporalDense is the paper's own example at width: per stock symbol the
// "doubled within 10" trigger, session rules over login/logout events and
// one windowed aggregate. Every rule reads the clock or an event, so every
// rule steps on every state.
func temporalDense(rng *rand.Rand) *Workload {
	w := &Workload{Name: "temporal-dense", Initial: map[string]value.Value{}}
	price := make([]float64, Symbols+1)
	sym := make([]string, Symbols+1)
	for i := range sym {
		sym[i] = fmt.Sprintf("S%02d", i)
		if i == Symbols {
			sym[i] = "DJ"
		}
		price[i] = 100
		w.Initial["px_"+sym[i]] = value.NewFloat(100)
	}
	for i := 0; i < Symbols; i++ {
		w.Rules = append(w.Rules, Rule{
			Name: "doubled_" + sym[i],
			Cond: fmt.Sprintf(`[t <- time] [x <- item("px_%s")] previously (item("px_%s") <= 0.5 * x and time >= t - 10)`, sym[i], sym[i]),
		})
	}
	users := make([]value.Value, Users)
	for u := range users {
		users[u] = value.NewString(fmt.Sprintf("u%d", u))
	}
	for k := 0; k < Users; k++ {
		r := Rule{Name: fmt.Sprintf("session_%d", k)}
		if k%2 == 0 {
			// A user who logged in while the index was high and has neither
			// logged out nor seen the index fall since.
			r.Cond = fmt.Sprintf(`((not @logout(U)) since (@login(U) and item("px_DJ") > %d)) and @update_stocks("DJ")`, 90+2*k)
			r.Param, r.Domain = "U", users
		} else {
			r.Cond = fmt.Sprintf(`@logout("u%d") and lasttime ((not @logout("u%d")) since (@login("u%d") and ((item("px_DJ") > 50) since @update_stocks("DJ"))))`, k, k, k)
		}
		w.Rules = append(w.Rules, r)
	}
	w.Rules = append(w.Rules, Rule{
		Name: "dj_volume",
		Cond: `sum(item("px_DJ"); window 40; @update_stocks("DJ")) > 1500 and @update_stocks("DJ")`,
	})
	// One firing per commit, so that event-to-action latency has a sample
	// on every commit whatever the seed makes the prices do.
	w.Rules = append(w.Rules, Rule{Name: "quote", Cond: `@update_stocks(S)`, Param: "S", Domain: symbols(sym)})
	in := make([]bool, Users)
	ts := int64(0)
	w.next = func() Op {
		ts += 1 + rng.Int63n(3)
		i := rng.Intn(Symbols + 1)
		// A random walk with rare halvings and doublings, so "doubled
		// within 10" is reachable and the trigger is not dead code.
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
		op := Op{
			TS:      ts,
			Updates: map[string]value.Value{"px_" + sym[i]: value.NewFloat(price[i])},
			Events:  []event.Event{event.New("update_stocks", value.NewString(sym[i]))},
		}
		if u := rng.Intn(Users); rng.Float64() < 0.3 {
			name := "login"
			if in[u] {
				name = "logout"
			}
			in[u] = !in[u]
			op.Events = append(op.Events, event.New(name, users[u]))
		}
		return op
	}
	return w
}

func symbols(names []string) []value.Value {
	out := make([]value.Value, len(names))
	for i, n := range names {
		out[i] = value.NewString(n)
	}
	return out
}

// zipfKeys draws 1..max distinct item indexes per transaction.
type zipfKeys struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newZipfKeys(rng *rand.Rand, items int) zipfKeys {
	return zipfKeys{rng: rng, zipf: rand.NewZipf(rng, ZipfS, 1, uint64(items-1))}
}

func (z zipfKeys) draw(max int) []int {
	n := 1 + z.rng.Intn(max)
	out := make([]int, 0, n)
	for len(out) < n {
		k := int(z.zipf.Uint64())
		dup := false
		for _, have := range out {
			dup = dup || have == k
		}
		if !dup {
			out = append(out, k)
		}
	}
	return out
}

// staticRules are non-temporal item-local triggers: the quiescent class
// the read-set index replays from its memo.
func staticRules() []Rule {
	rules := make([]Rule, SparseRules)
	for i := range rules {
		rules[i] = Rule{
			Name:  fmt.Sprintf("high_%04d", i),
			Cond:  fmt.Sprintf(`item(%q) > 998`, Key(i)),
			Sched: adb.Relevant,
		}
	}
	return rules
}

// temporalRules are temporal, time-independent item-local triggers. They
// are edge-shaped (a rise, or a fall after a remembered peak) so a rule
// fires at the transition and not at every state after it.
func temporalRules() []Rule {
	rules := make([]Rule, SparseRules)
	for i := range rules {
		k := Key(i)
		r := Rule{Name: fmt.Sprintf("edge_%04d", i), Sched: adb.Relevant}
		if i%2 == 0 {
			r.Cond = fmt.Sprintf(`item(%q) > 800 and lasttime item(%q) <= 800`, k, k)
		} else {
			r.Cond = fmt.Sprintf(`item(%q) < 200 and lasttime (item(%q) >= 200 and previously item(%q) > 800)`, k, k, k)
		}
		rules[i] = r
	}
	return rules
}

// sparse is the large-state shape: 100 000 items, 2 000 rules on the
// hottest items, Zipf transactions touching 1–3 items. The two sparse
// workloads share the database and the op stream and differ only in the
// rule table.
func sparse(name string, rng *rand.Rand, rules func() []Rule) *Workload {
	w := &Workload{Name: name, Initial: make(map[string]value.Value, SparseItems), Rules: rules()}
	for i := 0; i < SparseItems; i++ {
		w.Initial[Key(i)] = value.NewInt(500)
	}
	keys := newZipfKeys(rng, SparseItems)
	ts := int64(0)
	w.next = func() Op {
		ts++
		op := Op{TS: ts, Updates: map[string]value.Value{}}
		for _, k := range keys.draw(3) {
			op.Updates[Key(k)] = value.NewInt(rng.Int63n(1000))
		}
		return op
	}
	return w
}

// constraintGate puts 300 temporal item-local integrity constraints in
// front of the sparse database: "no item falls from above 900 to below
// 100 in one step". About one transaction in twenty violates exactly one
// of them; the generator mirrors the database (a refused transaction
// changes nothing) so it knows every outcome in advance.
func constraintGate(rng *rand.Rand) *Workload {
	w := &Workload{Name: "constraint-gate", Initial: make(map[string]value.Value, SparseItems)}
	model := make([]int64, SparseItems)
	for i := range model {
		model[i] = 500
		w.Initial[Key(i)] = value.NewInt(500)
	}
	gateName := func(i int) string { return fmt.Sprintf("nocrash_%03d", i) }
	for i := 0; i < GateRules; i++ {
		k := Key(i)
		w.Rules = append(w.Rules, Rule{
			Name:       gateName(i),
			Cond:       fmt.Sprintf(`not (item(%q) < 100 and lasttime item(%q) > 900)`, k, k),
			Constraint: true,
		})
	}
	for i := 0; i < GateTriggers; i++ {
		k := Key(i)
		w.Rules = append(w.Rules, Rule{
			Name:  fmt.Sprintf("rise_%d", i),
			Cond:  fmt.Sprintf(`item(%q) > 500 and lasttime item(%q) <= 500`, k, k),
			Sched: adb.Relevant,
		})
	}
	keys := newZipfKeys(rng, SparseItems)
	ts := int64(0)
	w.next = func() Op {
		ts++
		op := Op{TS: ts, Updates: map[string]value.Value{}}
		next := map[int]int64{}
		for _, k := range keys.draw(3) {
			v := rng.Int63n(1000)
			if k < GateRules && model[k] > 900 && v < 100 {
				v += 100 // an accidental crash would be a second violation
			}
			next[k] = v
		}
		if rng.Float64() < ViolateShare {
			// Crash one constrained item that is high right now; the scan
			// starts at a random rule so the violated names spread out.
			for j, start := 0, rng.Intn(GateRules); j < GateRules; j++ {
				k := (start + j) % GateRules
				if _, touched := next[k]; model[k] > 900 && !touched {
					next[k] = rng.Int63n(100)
					op.Reject = gateName(k)
					break
				}
			}
		}
		for k, v := range next {
			op.Updates[Key(k)] = value.NewInt(v)
			if op.Reject == "" {
				model[k] = v
			}
		}
		return op
	}
	return w
}

// servedBase is the 1 000-item database of the served workloads with
// one-item Zipf commits.
func servedBase(name string, rng *rand.Rand) (*Workload, func() (int64, string, value.Value)) {
	w := &Workload{Name: name, Initial: make(map[string]value.Value, ServedItems)}
	for i := 0; i < ServedItems; i++ {
		w.Initial[Key(i)] = value.NewInt(500)
	}
	keys := newZipfKeys(rng, ServedItems)
	ts := int64(0)
	return w, func() (int64, string, value.Value) {
		ts++
		return ts, Key(keys.draw(1)[0]), value.NewInt(rng.Int63n(1000))
	}
}

func riseRule(i, threshold int) Rule {
	k := Key(i)
	return Rule{
		Name: fmt.Sprintf("rise_%02d", i),
		Cond: fmt.Sprintf(`item(%q) > %d and lasttime item(%q) <= %d`, k, threshold, k, threshold),
	}
}

// durableServed: 32 fast-path temporal triggers on the hottest items and
// four constraints that never refuse, so the engine's share of a commit is
// small and the write-ahead log's is large.
func durableServed(rng *rand.Rand) *Workload {
	w, draw := servedBase("durable-served", rng)
	for i := 0; i < 32; i++ {
		w.Rules = append(w.Rules, riseRule(i, 500))
	}
	for i := 0; i < 4; i++ {
		k := Key(i)
		w.Rules = append(w.Rules, Rule{
			Name:       fmt.Sprintf("nonneg_%d", i),
			Cond:       fmt.Sprintf(`not (item(%q) < 0 and lasttime item(%q) >= 0)`, k, k),
			Constraint: true,
		})
	}
	w.next = func() Op {
		ts, k, v := draw()
		return Op{TS: ts, Updates: map[string]value.Value{k: v}}
	}
	return w
}

// firingStream: every commit carries @tick(A, B) and four triggers bind
// both arguments, so each commit produces exactly four firings.
func firingStream(rng *rand.Rand) *Workload {
	w, draw := servedBase("firing-stream", rng)
	for i := 0; i < 4; i++ {
		w.Rules = append(w.Rules, Rule{
			Name: fmt.Sprintf("tick_%d", i),
			Cond: fmt.Sprintf(`@tick(A, B) and A >= %d`, -i),
		})
	}
	w.next = func() Op {
		ts, k, v := draw()
		return Op{
			TS:      ts,
			Updates: map[string]value.Value{k: v},
			Events:  []event.Event{event.New("tick", value.NewInt(ts), v)},
		}
	}
	return w
}

// replicated: one trigger fires on every commit (so replication lag can
// be read off the follower's firing stream) and seven edge triggers fire
// now and then.
func replicated(rng *rand.Rand) *Workload {
	w, draw := servedBase("replicated", rng)
	w.Rules = append(w.Rules, Rule{Name: "tick", Cond: `@tick(A)`})
	for i := 0; i < 7; i++ {
		w.Rules = append(w.Rules, riseRule(i, 950))
	}
	w.next = func() Op {
		ts, k, v := draw()
		return Op{
			TS:      ts,
			Updates: map[string]value.Value{k: v},
			Events:  []event.Event{event.New("tick", value.NewInt(ts))},
		}
	}
	return w
}
