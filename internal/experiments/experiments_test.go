package experiments

import (
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ptlactive/internal/ptl"
)

// TestAllExperimentsRun executes every experiment in quick mode and
// asserts the shape claims each table's Notes promise, so EXPERIMENTS.md
// can never silently drift from what the code produces.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	tables := All(true)
	if len(tables) != 16 {
		t.Fatalf("expected 16 tables (E1-E10, E7b, E12, E13, E14, E17, A1), got %d", len(tables))
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
	// E2's fast-path column: a register vector and the frontier's samples,
	// one per clause the optimized graph keeps, and it keeps more nodes.
	for _, row := range e2.Rows {
		if fast, opt := atoi(t, row[5]), atoi(t, row[1]); fast >= opt {
			t.Errorf("E2: fast-path state %d at %s updates, optimized graph %d", fast, row[0], opt)
		}
	}
	// E2's unbounded column: no time bound, and subsumption still keeps the
	// state to a node or two, in quick mode and at the full 8,000 updates.
	unbounded := []int{}
	for _, row := range e2.Rows {
		unbounded = append(unbounded, atoi(t, row[4]))
	}
	if peak, err := BoundedStateRun(8000, ptl.Unbounded, true); err != nil || slices.Max(append(unbounded, peak)) > 3 {
		t.Errorf("E2: unbounded peaks %v, and %d (%v) at 8000 updates, want at most 3", unbounded, peak, err)
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

	// E10 to E17 below report counts, not times, so the quick-mode figures
	// are pinned exactly.

	// E10: without snapshots recovery replays the whole log — every
	// commit plus the init and rule-registration records; with a snapshot
	// every 64 records it replays less than one snapshot interval (plus the
	// same two).
	e10 := byID["E10"]
	if len(e10.Rows) != 2 {
		t.Fatalf("E10: %d rows, want wal, wal+snapshot", len(e10.Rows))
	}
	commits := atoi(t, e10.Rows[0][1])
	if got := atoi(t, e10.Rows[0][2]); got != commits+2 {
		t.Errorf("E10 %s: replayed %d records, want %d", e10.Rows[0][0], got, commits+2)
	}
	if got := atoi(t, e10.Rows[1][2]); got >= 64+2 {
		t.Errorf("E10 %s: replayed %d records, want < %d", e10.Rows[1][0], got, 64+2)
	}

	// E12: the coarse filter steps every rule at every commit; the index
	// steps every rule once (nothing memoized yet) and from then on only
	// the touched ones.
	e12 := byID["E12"].Rows[0]
	rules, e12Commits, touch := atoi(t, e12[0]), atoi(t, e12[1]), atoi(t, e12[2])
	if got, want := atoi(t, e12[3]), rules+(e12Commits-1)*touch; got != want {
		t.Errorf("E12: indexed run took %d steps, want %d", got, want)
	}
	if got, want := atoi(t, e12[6]), rules*e12Commits; got != want {
		t.Errorf("E12: coarse run took %d steps, want rules x commits = %d", got, want)
	}

	// E13: every subscriber receives the full firing stream.
	e13 := byID["E13"].Rows[0]
	if got, want := atoi(t, e13[3]), atoi(t, e13[1])*atoi(t, e13[2]); got != want || want == 0 {
		t.Errorf("E13: %d deliveries, want commits x subs = %d", got, want)
	}

	// E14: every shard count runs the same workload, and partitioning
	// divides the per-commit constraint walk: an n-shard row takes within
	// 10% of the single-shard row's evaluator steps per commit over n.
	// Steps, not the timed columns, so the check does not ride on the
	// scheduler.
	e14 := byID["E14"]
	oneShard := atof(t, e14.Rows[0][4])
	for _, row := range e14.Rows {
		if got := atoi(t, row[3]); got != atoi(t, e14.Rows[0][3]) {
			t.Errorf("E14 %s shards: commit count drifted: %d", row[0], got)
		}
		want := oneShard / float64(atoi(t, row[0]))
		if got := atof(t, row[4]); math.Abs(got-want) > 0.1*want {
			t.Errorf("E14 %s shards: %v steps/commit, want %v ± 10%%", row[0], got, want)
		}
	}

	// E17: over the 8x commit sweep, the unbounded engine's hot set
	// grows with the commit count (well past 4x first-to-last) while the
	// retained config ends near flat (early samples land before the
	// rotation plateau, so only each config's final ratio is the claim).
	// The unbounded log is one segment for ever; a retained one has rotated
	// by its second sample and from then on holds exactly two, the sealed
	// one the snapshot chain still needs and the live one.
	e17 := byID["E17"]
	finals := map[string]float64{}
	wantSegs := map[string][]string{
		"unbounded": {"1", "1", "1", "1"},
		"retained":  {"1", "2", "2", "2"},
	}
	gotSegs := map[string][]string{}
	for _, row := range e17.Rows {
		name := row[0][:strings.IndexByte(row[0], '@')]
		finals[name] = atof(t, row[3]) // rows are in sweep order per config
		gotSegs[name] = append(gotSegs[name], row[2])
	}
	if !reflect.DeepEqual(gotSegs, wantSegs) {
		t.Errorf("E17: segment counts %v, want %v", gotSegs, wantSegs)
	}
	if finals["unbounded"] < 4 {
		t.Errorf("E17: unbounded final hot ratio %.2fx over an 8x commit sweep — baseline not growing", finals["unbounded"])
	}
	if finals["retained"] > 3 {
		t.Errorf("E17 retained: final hot ratio %.2fx — retention not bounding the hot set", finals["retained"])
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

// TestE2IgnoresWhatRanBefore: E2's peaks are a property of the bounded
// trigger and its history alone. Each evaluator interns into a table of its
// own, so the peaks measured after another evaluator has built over 300,000
// nodes (80,000 steps of the doubled trigger build some 340,000: a time
// atom, its clause and an or-chain or two each) are the peaks measured
// before.
func TestE2IgnoresWhatRanBefore(t *testing.T) {
	peaks := func() (out []int) {
		for _, n := range []int{200, 800} {
			for _, optimize := range []bool{true, false} {
				peak, err := BoundedStateRun(n, 50, optimize)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, peak)
			}
		}
		return out
	}
	before := peaks()
	if _, err := RunIncremental(mustFormula(doubledFormula), stockRegistry(), quickHistory(80000)); err != nil {
		t.Fatal(err)
	}
	if after := peaks(); !reflect.DeepEqual(after, before) {
		t.Fatalf("E2 peaks (optimized, unoptimized at 200 and 800 updates) moved from %v to %v", before, after)
	}
}
