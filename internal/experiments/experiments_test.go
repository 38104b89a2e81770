package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsRun executes every experiment in quick mode and
// asserts the shape claims each table's Notes promise, so EXPERIMENTS.md
// can never silently drift from what the code produces.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	tables := All(true)
	if len(tables) != 18 {
		t.Fatalf("expected 18 tables (E1-E10, E7b, E12, E13, E14, E16, E17, A1, A2), got %d", len(tables))
	}
	byID := map[string]Table{}
	for _, tab := range tables {
		if len(tab.Rows) == 0 || len(tab.Header) == 0 {
			t.Errorf("%s: empty table", tab.ID)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Errorf("%s: ragged row %v", tab.ID, row)
			}
		}
		if tab.String() == "" || tab.Markdown() == "" {
			t.Errorf("%s: renderers broken", tab.ID)
		}
		byID[tab.ID] = tab
	}

	// E2: unoptimized state exceeds optimized at the largest sweep point.
	e2 := byID["E2"]
	last := e2.Rows[len(e2.Rows)-1]
	opt := atoi(t, last[1])
	noopt := atoi(t, last[2])
	if noopt <= opt*2 {
		t.Errorf("E2: expected unoptimized >> optimized, got %d vs %d", noopt, opt)
	}

	// E5: definite mean delay >= Delta at the largest Delta.
	e5 := byID["E5"]
	lastD := e5.Rows[len(e5.Rows)-1]
	delta := atoi(t, lastD[0])
	delay := atof(t, lastD[4])
	if delay < float64(delta) {
		t.Errorf("E5: definite delay %.1f below Delta %d", delay, delta)
	}

	// E6: collapsed divergence must be zero (Theorem 2).
	e6 := byID["E6"]
	if e6.Rows[0][2] != "0" || e6.Rows[0][3] != "true" {
		t.Errorf("E6: Theorem 2 row wrong: %v", e6.Rows[0])
	}

	// E7: DFA states double with k; PTL registers grow by one.
	e7 := byID["E7"]
	for i := 1; i < len(e7.Rows); i++ {
		prev := atoi(t, e7.Rows[i-1][3])
		cur := atoi(t, e7.Rows[i][3])
		if cur != 2*prev {
			t.Errorf("E7: min-DFA states %d -> %d, want doubling", prev, cur)
		}
		if atoi(t, e7.Rows[i][4]) != atoi(t, e7.Rows[i-1][4])+1 {
			t.Errorf("E7: registers not linear: %v", e7.Rows[i])
		}
	}

	// E8: relevant steps strictly below eager steps in every row.
	e8 := byID["E8"]
	for _, row := range e8.Rows {
		if atoi(t, row[1]) <= atoi(t, row[3]) {
			t.Errorf("E8: relevance filtering did not reduce steps: %v", row)
		}
	}

	// E9: the temporal action actually bought stock.
	e9 := byID["E9"]
	if atoi(t, e9.Rows[0][1]) == 0 {
		t.Errorf("E9: no buys recorded: %v", e9.Rows[0])
	}

	// E10: periodic snapshots bound replay — the snapshot row replays far
	// fewer records than the wal-only row, which replays the whole run.
	e10 := byID["E10"]
	walReplayed := atoi(t, e10.Rows[1][4])
	snapReplayed := atoi(t, e10.Rows[3][4])
	commits := atoi(t, e10.Rows[1][1])
	if walReplayed < commits {
		t.Errorf("E10: wal-only replayed %d records for %d commits", walReplayed, commits)
	}
	if snapReplayed*4 >= walReplayed {
		t.Errorf("E10: snapshots did not bound replay: %d vs %d", snapReplayed, walReplayed)
	}

	// E12: the read-set index must evaluate strictly fewer steps than the
	// coarse relevance filter on the sparse-touch workload.
	e12 := byID["E12"]
	idxSteps := atoi(t, e12.Rows[0][3])
	coarseSteps := atoi(t, e12.Rows[0][7])
	if idxSteps >= coarseSteps {
		t.Errorf("E12: index did not reduce steps: %d vs %d", idxSteps, coarseSteps)
	}

	// E13: every fan-out row must deliver the full firing stream to every
	// subscriber (deliveries = commits × subs).
	e13 := byID["E13"]
	for _, row := range e13.Rows {
		commits := atoi(t, row[2])
		subs := atoi(t, row[3])
		delivered := atoi(t, row[4])
		if delivered != commits*subs {
			t.Errorf("E13 %s: delivered %d of %d firings", row[0], delivered, commits*subs)
		}
	}

	// E14: every shard count runs the same workload, and the widest
	// cluster must beat the single-shard row — the shape claim is that
	// partitioning divides the per-commit constraint walk.
	e14 := byID["E14"]
	for _, row := range e14.Rows {
		if got := atoi(t, row[3]); got != atoi(t, e14.Rows[0][3]) {
			t.Errorf("E14 %s shards: commit count drifted: %d", row[0], got)
		}
	}
	oneShard := atof(t, e14.Rows[0][4])
	wide := atof(t, e14.Rows[len(e14.Rows)-1][4])
	if wide >= oneShard {
		t.Errorf("E14: %s-shard run (%vms) not faster than 1 shard (%vms)",
			e14.Rows[len(e14.Rows)-1][0], wide, oneShard)
	}

	// E16: commit cost must not scale linearly with database size. The
	// committed baseline holds the 100k rows within 2x of 1k; here the
	// bound is 10x — far above quick-mode timer noise, two orders below
	// the ~100x a return to whole-map copying would produce.
	e16 := byID["E16"]
	for _, row := range e16.Rows {
		if ratio := atof(t, row[3]); ratio > 10 {
			t.Errorf("E16 %s: %.1fx the 1k row — commit cost scaling with db size", row[0], ratio)
		}
	}

	// E17: over the 8x commit sweep, the unbounded engine's hot set
	// grows with the commit count (well past 4x first-to-last) while the
	// retained configs end near flat (early samples land before the
	// rotation plateau, so only each config's final ratio is the claim)
	// and the spill tier is nonempty by the end.
	e17 := byID["E17"]
	finals := map[string]float64{}
	for _, row := range e17.Rows {
		name := row[0][:strings.IndexByte(row[0], '@')]
		finals[name] = atof(t, row[5]) // rows are in sweep order per config
	}
	if finals["unbounded"] < 4 {
		t.Errorf("E17: unbounded final hot ratio %.2fx over an 8x commit sweep — baseline not growing", finals["unbounded"])
	}
	for _, name := range []string{"retain-drop", "retain-spill"} {
		if finals[name] > 3 {
			t.Errorf("E17 %s: final hot ratio %.2fx — retention not bounding the hot set", name, finals[name])
		}
	}
	lastSpill := e17.Rows[len(e17.Rows)-1]
	if !strings.HasPrefix(lastSpill[0], "retain-spill@") || atof(t, lastSpill[3]) == 0 {
		t.Errorf("E17: final spill row %v has an empty cold tier", lastSpill)
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		t.Fatalf("atoi(%q): %v", s, err)
	}
	return n
}

func atof(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("atof(%q): %v", s, err)
	}
	return f
}

// TestKernelsAgree cross-checks the E1 kernels on a small input: the
// incremental and naive runners must count the same satisfied states.
func TestKernelsAgree(t *testing.T) {
	f := mustFormula(doubledFormula)
	reg := stockRegistry()
	h := quickHistory(300)
	a, err := RunIncremental(f, reg, h)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunNaive(f, reg, h)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("incremental %d != naive %d", a, b)
	}
}
