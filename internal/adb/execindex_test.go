package adb

import (
	"fmt"
	"reflect"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/ptl"
	"ptlactive/internal/value"
)

// TestExecutionsIndexPerRule is the regression test for the per-rule
// execution logs: interleaved executions of several rules land in their
// own rule's log, in recording order, and Executions' binary search agrees
// with a scan of that log — also after a prune.
func TestExecutionsIndexPerRule(t *testing.T) {
	e := NewEngine(Config{Initial: map[string]value.Value{"c": value.NewInt(0)}})
	for i := 0; i < 3; i++ {
		err := e.AddTrigger(fmt.Sprintf("r%d", i), fmt.Sprintf("@fire%d", i),
			func(ctx *ActionContext) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	// Interleave: r0, r1, r0, r2, r1, r0 ...
	order := []int{0, 1, 0, 2, 1, 0, 2, 2, 1, 0}
	want := map[string][]int64{}
	for i, ri := range order {
		if err := e.Emit(int64(i+1), event.New(fmt.Sprintf("fire%d", ri))); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("r%d", ri)
		want[name] = append(want[name], int64(i+1))
	}
	for name, times := range want {
		var got []int64
		for _, ex := range e.index[name].execs {
			if ex.Rule != name {
				t.Fatalf("%s's log holds an execution of %s", name, ex.Rule)
			}
			got = append(got, ex.Time)
		}
		if !reflect.DeepEqual(got, times) {
			t.Fatalf("%s's log = %v, want %v in recording order", name, got, times)
		}
	}

	// Reference: filter the rule's whole log.
	scan := func(rule string, before int64) []ptl.Execution {
		var out []ptl.Execution
		for _, ex := range e.index[rule].execs {
			if ex.Time < before {
				out = append(out, ex)
			}
		}
		return out
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("r%d", i)
		for _, before := range []int64{0, 3, 7, 100} {
			got := e.Executions(name, before)
			want := scan(name, before)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Executions(%s, %d) = %v, want %v", name, before, got, want)
			}
		}
	}
	if n := len(e.Executions("r0", 100)); n != 4 {
		t.Fatalf("r0 executions = %d, want 4", n)
	}

	// Lookups must agree with the logs the prune shrank.
	if d := e.PruneExecutions(6); d == 0 {
		t.Fatal("prune dropped nothing")
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("r%d", i)
		if got, want := e.Executions(name, 100), scan(name, 100); !reflect.DeepEqual(got, want) {
			t.Fatalf("after prune: Executions(%s) = %v, want %v", name, got, want)
		}
	}
	if n := len(e.Executions("r0", 100)); n != 2 {
		t.Fatalf("after prune: r0 executions = %d, want 2", n)
	}
	if n := len(e.Executions("nosuch", 100)); n != 0 {
		t.Fatalf("unknown rule returned %d executions", n)
	}
}
