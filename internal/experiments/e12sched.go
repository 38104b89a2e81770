package experiments

import (
	"fmt"
	"time"

	"ptlactive/internal/adb"
	"ptlactive/internal/value"
)

// SchedIndexRun is the E12 kernel: `rules` non-temporal triggers, each
// watching its own database item, driven through `commits` transactions
// that each touch `touch` items (a rotating window, so every rule is hit
// eventually but each individual commit concerns only touch/rules of the
// rule set). With the read-set index the sweep evaluates only the touched
// rules and replays the memoized outcome for the rest; the coarse filter
// evaluates every database-reading rule at every commit. It returns the
// evaluator steps, the wall time, and the firing log for the equivalence
// check. newEngine picks the arm: adb.NewEngine, or adb.NewCoarseEngine —
// a memory-only constructor, not a Config option, and never persisted.
func SchedIndexRun(rules, commits, touch int, newEngine func(adb.Config) *adb.Engine) (steps int64, dur time.Duration, firings []adb.Firing) {
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
	start := time.Now()
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
	return eng.EvalSteps(), time.Since(start), eng.Firings()
}

// E12ReadSetIndex measures the read-set indexed scheduler against the
// coarse Section-8 filter on a workload where each commit touches about
// 1% of the rule set's read sets, and checks the two runs fire
// identically.
func E12ReadSetIndex(quick bool) Table {
	rules, commits, touch := 500, 400, 5
	if quick {
		rules, commits, touch = 100, 100, 1
	}
	t := Table{
		ID:    "E12",
		Title: "read-set indexed scheduling vs the coarse relevance filter",
		Header: []string{"rules", "commits", "touched/commit", "indexed steps", "indexed ms",
			"coarse steps", "coarse ms", "step ratio", "speedup"},
		Notes: "every rule reads one item and every commit updates a rotating ~1% of the items; " +
			"the coarse filter evaluates all database-reading rules at each commit, the index " +
			"evaluates only the touched ones and replays the memoized outcome for the rest. " +
			"Firings are verified identical between the two runs.",
	}
	is, id, ifir := SchedIndexRun(rules, commits, touch, adb.NewEngine)
	cs, cd, cfir := SchedIndexRun(rules, commits, touch, adb.NewCoarseEngine)
	if len(ifir) != len(cfir) {
		panic(fmt.Sprintf("E12: indexed run fired %d times, coarse %d", len(ifir), len(cfir)))
	}
	for i := range ifir {
		if ifir[i].Rule != cfir[i].Rule || ifir[i].Time != cfir[i].Time || ifir[i].StateIndex != cfir[i].StateIndex {
			panic(fmt.Sprintf("E12: firing %d diverges: indexed %+v, coarse %+v", i, ifir[i], cfir[i]))
		}
	}
	ratio, speed := "-", "-"
	if is > 0 {
		ratio = fmt.Sprintf("%.1fx", float64(cs)/float64(is))
	}
	if id > 0 {
		speed = fmt.Sprintf("%.1fx", float64(cd)/float64(id))
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprint(rules), fmt.Sprint(commits), fmt.Sprint(touch),
		fmt.Sprint(is), fmtMs(id),
		fmt.Sprint(cs), fmtMs(cd),
		ratio, speed,
	})
	return t
}
