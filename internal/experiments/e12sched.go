package experiments

import (
	"fmt"
	"runtime"

	"ptlactive/internal/adb"
	"ptlactive/internal/value"
)

// SchedIndexRun is the E12 kernel: `rules` non-temporal triggers, each
// watching its own database item, driven through `commits` transactions
// that each touch `touch` items (a rotating window, so every rule is hit
// eventually but each individual commit concerns only touch/rules of the
// rule set). With the read-set index the sweep evaluates only the touched
// rules and replays the memoized outcome for the rest; the coarse filter
// evaluates every database-reading rule at every commit. newEngine picks
// the arm: adb.NewEngine, or adb.NewCoarseEngine — a memory-only
// constructor, not a Config option, and never persisted. The allocation
// counts repeat to within a few bytes on any machine, the step counts
// exactly.
func SchedIndexRun(rules, commits, touch int, newEngine func(adb.Config) *adb.Engine) SchedRun {
	initial := make(map[string]value.Value, rules)
	for i := 0; i < rules; i++ {
		initial[fmt.Sprintf("i%d", i)] = value.NewInt(0)
	}
	eng := newEngine(adb.Config{Initial: initial})
	for i := 0; i < rules; i++ {
		cond := fmt.Sprintf(`item("i%d") > 100`, i)
		if err := eng.AddTrigger(fmt.Sprintf("r%d", i), cond, nil, adb.WithScheduling(adb.Relevant)); err != nil {
			panic(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for c := 0; c < commits; c++ {
		updates := make(map[string]value.Value, touch)
		for k := 0; k < touch; k++ {
			item := (c*touch + k) % rules
			// Push a touched item over the firing threshold every fourth
			// visit so both fired and non-fired memo outcomes are
			// exercised without the firing log dominating the run.
			v := int64(50)
			if (c+k)%4 == 0 {
				v = 150
			}
			updates[fmt.Sprintf("i%d", item)] = value.NewInt(v)
		}
		if err := eng.Exec(int64(c+1), updates); err != nil {
			panic(err)
		}
	}
	runtime.ReadMemStats(&after)
	return SchedRun{
		Steps:   eng.EvalSteps(),
		Firings: eng.Firings(),
		Allocs:  float64(after.Mallocs-before.Mallocs) / float64(commits),
		Bytes:   float64(after.TotalAlloc-before.TotalAlloc) / float64(commits),
	}
}

// SchedRun is one arm of E12: evaluator steps and the firing log for the
// equivalence check, plus heap allocations and bytes per
// commit over the commit loop (the loop's own update maps and keys
// included, identically in both arms).
type SchedRun struct {
	Steps         int64
	Firings       []adb.Firing
	Allocs, Bytes float64
}

// E12ReadSetIndex counts the read-set indexed scheduler's evaluator
// steps and allocations against the coarse Section-8 filter's on a
// workload where each commit touches about 1% of the rule set's read
// sets, and checks the two runs fire identically. What an indexed commit
// takes in time is bench/'s commit_p50_us on sparse-static.
func E12ReadSetIndex(quick bool) Table {
	rules, commits, touch := 500, 400, 5
	if quick {
		rules, commits, touch = 100, 100, 1
	}
	t := Table{
		ID:    "E12",
		Title: "read-set indexed scheduling vs the coarse relevance filter",
		Header: []string{"rules", "commits", "touched/commit",
			"indexed steps", "indexed allocs/commit", "indexed B/commit",
			"coarse steps", "coarse allocs/commit", "coarse B/commit", "step ratio"},
		Notes: "every rule reads one item and every commit updates a rotating ~1% of the items; " +
			"the coarse filter evaluates all database-reading rules at each commit (rules x " +
			"commits steps), the index evaluates only the touched ones and replays the memoized " +
			"outcome for the rest. Firings are verified identical between the two runs; " +
			"allocs and B per commit repeat to within a few bytes anywhere.",
	}
	idx := SchedIndexRun(rules, commits, touch, adb.NewEngine)
	coarse := SchedIndexRun(rules, commits, touch, adb.NewCoarseEngine)
	ifir, cfir := idx.Firings, coarse.Firings
	if len(ifir) != len(cfir) {
		panic(fmt.Sprintf("E12: indexed run fired %d times, coarse %d", len(ifir), len(cfir)))
	}
	for i := range ifir {
		if ifir[i].Rule != cfir[i].Rule || ifir[i].Time != cfir[i].Time || ifir[i].StateIndex != cfir[i].StateIndex {
			panic(fmt.Sprintf("E12: firing %d diverges: indexed %+v, coarse %+v", i, ifir[i], cfir[i]))
		}
	}
	ratio := "-"
	if idx.Steps > 0 {
		ratio = fmt.Sprintf("%.1fx", float64(coarse.Steps)/float64(idx.Steps))
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprint(rules), fmt.Sprint(commits), fmt.Sprint(touch),
		fmt.Sprint(idx.Steps), fmt.Sprintf("%.1f", idx.Allocs), fmt.Sprintf("%.0f", idx.Bytes),
		fmt.Sprint(coarse.Steps), fmt.Sprintf("%.1f", coarse.Allocs), fmt.Sprintf("%.0f", coarse.Bytes),
		ratio,
	})
	return t
}
