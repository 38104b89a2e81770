package adb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"testing"

	"ptlactive/internal/core"
	"ptlactive/internal/event"
	"ptlactive/internal/value"
)

// gateConstraints mixes the two evaluator kinds behind the constraint check:
// the first three are decomposable (boolean registers), the next three bind
// a variable across a temporal operator or hold an aggregate (a frontier, a
// timestamp register, an aggregate window, all on the fast path), and the
// last two cross operators in shapes only constraint graphs hold. Items
// range over 0..49, so each rejects a few percent of random transactions.
var gateConstraints = []string{
	`not (item("a") < 8 and lasttime item("a") > 30)`,
	`not (item("b") > 46)`,
	`not (@spike and previously item("b") > 44)`,
	`[x <- item("a")] not previously (item("a") >= x + 42)`,
	`[t <- time] not previously (@alarm and item("b") > 35 and time >= t - 4)`,
	`sum(item("b"); @reset; @tick) < 150`,
	`[x <- item("b")] not lasttime (item("b") > x + 45)`,
	`[x <- item("a")] not previously (item("a") = x + 47)`,
}

// gateOp is one step of a gate trace: an event-only state, or a transaction.
type gateOp struct {
	emit    string
	upd     map[string]value.Value
	deletes []string
	events  []event.Event
}

func gateTrace(seed int64, n int) []gateOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]gateOp, n)
	for i := range ops {
		if rng.Intn(4) == 0 {
			ops[i].emit = []string{"tick", "alarm", "reset", "noise"}[rng.Intn(4)]
			continue
		}
		op := gateOp{upd: map[string]value.Value{}}
		for _, item := range []string{"a", "b", "c"} {
			if rng.Intn(2) == 0 {
				op.upd[item] = value.NewInt(int64(rng.Intn(50)))
			}
		}
		if rng.Intn(12) == 0 {
			op.deletes = []string{"c"}
		}
		if rng.Intn(3) == 0 {
			op.events = append(op.events, event.New([]string{"spike", "tick", "reset"}[rng.Intn(3)]))
		}
		ops[i] = op
	}
	return ops
}

// runGate drives ops on e. With verdicts nil it commits every transaction
// and returns what the constraints said (the violated constraint's name, ""
// for an accepted commit or an emit); given another run's verdicts it
// commits only what that run accepted and aborts, explicitly, what it
// rejected — so e never takes a tentative step it has to undo. Constraints
// register before the trace and at three points inside it, the engine is
// compacted now and then, and rejectSteps sums the constraints in force at
// each rejection.
func runGate(t *testing.T, e *Engine, ops []gateOp, verdicts []string) (said []string, rejectSteps int64) {
	t.Helper()
	for i, cond := range []string{`previously item("a") > 45`, `@tick since item("b") > 20`, `lasttime item("a") > 25`} {
		if err := e.AddTrigger(fmt.Sprintf("t%d", i), cond, nil, WithScheduling(Scheduling(i%2))); err != nil {
			t.Fatal(err)
		}
	}
	registered := 0
	register := func(n int) {
		for ; n > 0; n-- {
			if err := e.AddConstraint(fmt.Sprintf("c%d", registered), gateConstraints[registered]); err != nil {
				t.Fatal(err)
			}
			registered++
		}
	}
	register(2)
	for i, op := range ops {
		ts := e.Now() + 1 + int64(i%3)
		switch {
		case op.emit != "":
			if err := e.Emit(ts, event.New(op.emit)); err != nil {
				t.Fatal(err)
			}
			said = append(said, "")
		case verdicts != nil && verdicts[i] != "":
			if err := e.Begin().Abort(ts); err != nil {
				t.Fatal(err)
			}
			said = append(said, "")
		default:
			err := e.ExecTxn(ts, op.upd, op.deletes, op.events...)
			var ce *ConstraintError
			switch {
			case err == nil:
				said = append(said, "")
			case errors.As(err, &ce):
				said = append(said, ce.Constraint)
				rejectSteps += int64(registered)
			default:
				t.Fatalf("op %d: %v", i, err)
			}
		}
		if i == len(ops)/4 || i == len(ops)/2 || i == 3*len(ops)/4 {
			register(2)
		}
		if i%17 == 16 {
			e.Compact()
		}
	}
	return said, rejectSteps
}

var stepCounterAndCRC = regexp.MustCompile(`"(evalSteps|crc)":\d+`)

// snapshotLessSteps is e's snapshot with the step counter and the envelope
// checksum over it blanked: everything else the temporal component keeps —
// history, cursors, evaluator registers, firings — is in those bytes.
func snapshotLessSteps(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return stepCounterAndCRC.ReplaceAll(buf.Bytes(), []byte(`"$1":0`))
}

// TestRejectedCommitLeavesNoTrace: constraints step in place over the
// tentative state and roll back on a rejection. Engine A runs a trace in
// which about a fifth of the transactions violate some constraint, with
// event-only states between commits (the constraints lag, then catch up) and
// constraints of both evaluator kinds joining mid-trace. Engine B is told
// the verdicts: it commits what A accepted and aborts the rest outright, so
// its constraints never see a state they have to forget. Both must
// end with the same firings, cursors and snapshot — evaluator registers
// included — up to the step counter, which differs by exactly one step per
// constraint per rejection; so must a coarse engine.
func TestRejectedCommitLeavesNoTrace(t *testing.T) {
	trials, n := 8, 160
	if testing.Short() {
		trials = 3
	}
	cfg := func() Config {
		return Config{Initial: map[string]value.Value{
			"a": value.NewInt(10), "b": value.NewInt(10), "c": value.NewInt(0),
		}}
	}
	for trial := 0; trial < trials; trial++ {
		ops := gateTrace(int64(5200+trial), n)
		a := NewEngine(cfg())
		verdicts, rejectSteps := runGate(t, a, ops, nil)
		txns, rejected := 0, 0
		for i, v := range verdicts {
			if ops[i].emit == "" {
				txns++
			}
			if v != "" {
				rejected++
			}
		}
		if share := float64(rejected) / float64(txns); share < 0.08 || share > 0.4 {
			t.Fatalf("trial %d: %d of %d transactions rejected; the trace is meant to reject about a fifth", trial, rejected, txns)
		}
		kinds := map[string]int{}
		for _, r := range a.constraints {
			kinds[fmt.Sprintf("%T", r.ev)]++
		}
		if kinds[fmt.Sprintf("%T", &core.FastEvaluator{})] < 2 || kinds[fmt.Sprintf("%T", &core.Evaluator{})] < 2 {
			t.Fatalf("trial %d: constraint evaluators are not mixed: %v", trial, kinds)
		}
		want := snapshotLessSteps(t, a)

		b := NewEngine(cfg())
		if said, _ := runGate(t, b, ops, verdicts); !reflect.DeepEqual(said, make([]string, len(ops))) {
			t.Fatalf("trial %d: the verdict-fed engine rejected a transaction: %q", trial, said)
		}
		if got := a.EvalSteps() - b.EvalSteps(); got != rejectSteps {
			t.Fatalf("trial %d: rejections cost %d extra steps, want one per constraint in force: %d", trial, got, rejectSteps)
		}
		others := map[string]*Engine{"verdict-fed": b, "coarse": NewCoarseEngine(cfg())}
		for name, o := range others {
			if o != b {
				if said, _ := runGate(t, o, ops, nil); !reflect.DeepEqual(said, verdicts) {
					t.Fatalf("trial %d: %s engine's verdicts diverge:\n got  %q\n want %q", trial, name, said, verdicts)
				}
			}
			if !reflect.DeepEqual(a.Firings(), o.Firings()) {
				t.Fatalf("trial %d: %s engine's firings diverge (%d vs %d)", trial, name, len(o.Firings()), len(a.Firings()))
			}
			if ap, op := pendingStates(t, a), pendingStates(t, o); !reflect.DeepEqual(ap, op) {
				t.Fatalf("trial %d: %s engine's pending states diverge: %v vs %v", trial, name, op, ap)
			}
			if got := snapshotLessSteps(t, o); !bytes.Equal(got, want) {
				t.Fatalf("trial %d: %s engine's snapshot diverges%s", trial, name, firstDiff(got, want))
			}
			if o != b && o.EvalSteps() != a.EvalSteps() {
				t.Fatalf("trial %d: %s engine spent %d steps, want %d", trial, name, o.EvalSteps(), a.EvalSteps())
			}
		}
	}
}

// TestConstraintStepAccounting pins what EvalSteps charges a constraint:
// one step per accepted commit — the tentative step is the step, the sweep
// does not repeat it — two per rejected one (the tentative step, rolled
// back, then the abort state), and one per state it lagged behind.
func TestConstraintStepAccounting(t *testing.T) {
	const n = 5
	e := NewEngine(Config{Initial: map[string]value.Value{"a": value.NewInt(0)}})
	for i := 0; i < n; i++ {
		if err := e.AddConstraint(fmt.Sprintf("c%d", i), fmt.Sprintf(`not (item("a") > %d and lasttime item("a") >= 0)`, 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	exec := func(ts, a int64) error { return e.Exec(ts, map[string]value.Value{"a": value.NewInt(a)}) }
	expect := func(what string, want int64) {
		t.Helper()
		if got := e.EvalSteps(); got != want {
			t.Fatalf("after %s: EvalSteps = %d, want %d", what, got, want)
		}
	}
	if err := exec(1, 5); err != nil {
		t.Fatal(err)
	}
	expect("the first commit (the initial state, then the commit)", 2*n)
	if err := exec(2, 6); err != nil {
		t.Fatal(err)
	}
	expect("an accepted commit", 3*n)
	if err := exec(3, 50); !errors.Is(err, ErrConstraintViolation) {
		t.Fatalf("want a rejection, got %v", err)
	}
	expect("a rejected commit (tentative step, abort state)", 5*n)
	if err := e.Emit(4, event.New("tick")); err != nil {
		t.Fatal(err)
	}
	expect("an event-only state", 5*n)
	if err := exec(5, 7); err != nil {
		t.Fatal(err)
	}
	expect("a commit after one lagged state", 7*n)
	for _, r := range e.constraints {
		if e.cursorOf(r) != e.hist.Len() {
			t.Fatalf("constraint %s: cursor %d, history has %d states", r.name, e.cursorOf(r), e.hist.Len())
		}
	}
}
