package agg

import (
	"sync"
	"testing"

	"ptlactive/internal/adb"
)

const namesCond = `avg(price("IBM"); time = 540; @update_stocks) > 70 and lasttime (count(price("IBM"); @open; @update_stocks) >= 2)`

// rewrittenOn registers namesCond as a rewritten rule on a fresh engine
// and returns the condition the engine holds for it.
func rewrittenOn(t *testing.T, name string) string {
	t.Helper()
	e := priceEngine(t, 60)
	if err := Rewrite(e, name, namesCond, nil); err != nil {
		t.Fatal(err)
	}
	info, ok := e.Rule(name)
	if !ok {
		t.Fatalf("rule %s not registered", name)
	}
	return info.Condition
}

// TestRewriteNamesDependOnRuleOnly: the items a rewritten rule reads are
// named from the rule and the aggregate's position in it — not from how
// many rewrites the process ran before — so the same Rewrite on two fresh
// engines yields the same condition (and the same addrule WAL record).
func TestRewriteNamesDependOnRuleOnly(t *testing.T) {
	first, second := rewrittenOn(t, "watch"), rewrittenOn(t, "watch")
	if first != second {
		t.Fatalf("the same rewrite on two fresh engines differs:\n  %s\n  %s", first, second)
	}
	if other := rewrittenOn(t, "other"); other == first {
		t.Fatalf("rules watch and other share maintenance items: %s", other)
	}
}

// TestRewriteParallelEngines: rewrites on distinct engines share no state
// (run under -race; a package-level counter used to be incremented here).
func TestRewriteParallelEngines(t *testing.T) {
	want := rewrittenOn(t, "watch")
	engines := make([]*adb.Engine, 8)
	errs := make([]error, len(engines))
	var wg sync.WaitGroup
	for i := range engines {
		engines[i] = priceEngine(t, 60)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = Rewrite(engines[i], "watch", namesCond, nil)
		}()
	}
	wg.Wait()
	for i, e := range engines {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if info, _ := e.Rule("watch"); info.Condition != want {
			t.Errorf("parallel rewrite %d produced %s, want %s", i, info.Condition, want)
		}
	}
}
