package main

import (
	"errors"
	"strings"
	"testing"

	"ptlactive/internal/adb"
)

func run(t *testing.T, lines ...string) *shell {
	t.Helper()
	sh := &shell{}
	t.Cleanup(func() { sh.close() })
	for i, line := range lines {
		if err := sh.exec(line); err != nil {
			t.Fatalf("line %d (%q): %v", i+1, line, err)
		}
	}
	return sh
}

func TestShellQuickstartScript(t *testing.T) {
	sh := run(t,
		`item ibm 10`,
		`trigger doubled :: [t <- time] [x <- item("ibm")] previously (item("ibm") <= 0.5 * x and time >= t - 10)`,
		`commit 2 ibm=15`,
		`commit 5 ibm=18`,
		`commit 8 ibm=25`,
	)
	fs := sh.eng.Firings()
	if len(fs) != 1 || fs[0].Time != 8 {
		t.Fatalf("firings = %v", fs)
	}
}

func TestShellConstraintAbort(t *testing.T) {
	sh := run(t,
		`item bal 10`,
		`constraint nonneg :: item("bal") >= 0`,
		`commit 1 bal=5`,
		`commit 2 bal=-1`, // abort is reported, not an error
	)
	v, _ := sh.eng.DB().Get("bal")
	if v.AsInt() != 5 {
		t.Fatalf("bal = %v, want 5 (abort must not apply)", v)
	}
}

func TestShellEmitAndEvents(t *testing.T) {
	sh := run(t,
		`trigger watch :: @login(U)`,
		`emit 1 @login("alice")`,
		`emit 2 @login("bob") @logout("alice")`,
	)
	if len(sh.eng.Firings()) != 2 {
		t.Fatalf("firings = %v", sh.eng.Firings())
	}
}

func TestShellErrors(t *testing.T) {
	sh := &shell{}
	defer sh.close()
	bad := []string{
		`item`,               // missing args
		`trigger x`,          // missing ::
		`commit`,             // missing time
		`commit x`,           // bad time
		`commit 1 noequals`,  // bad update
		`emit 1`,             // no events
		`emit x @a`,          // bad time
		`show nothing`,       // unknown target
		`frobnicate`,         // unknown command
		`trigger t :: and x`, // parse error
	}
	for _, line := range bad {
		if err := sh.exec(line); err == nil {
			t.Errorf("exec(%q) should fail", line)
		}
	}
	// item after engine creation fails.
	sh2 := run(t, `trigger t :: true`)
	if err := sh2.exec(`item a 1`); err == nil {
		t.Error("item after rules should fail")
	}
}

func TestSplitFields(t *testing.T) {
	got := splitFields(`1 ibm=15 @update_stocks("IBM", 2) x="a b"`)
	want := []string{`1`, `ibm=15`, `@update_stocks("IBM", 2)`, `x="a b"`}
	if len(got) != len(want) {
		t.Fatalf("splitFields = %q", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("field %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestParseEvent(t *testing.T) {
	ev, err := parseEvent(`@login("alice", 3)`)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Name != "login" || len(ev.Args) != 2 || ev.Args[0].AsString() != "alice" || ev.Args[1].AsInt() != 3 {
		t.Fatalf("event = %v", ev)
	}
	if _, err := parseEvent(`login`); err == nil {
		t.Error("missing @ should fail")
	}
	if _, err := parseEvent(`@login(1`); err == nil {
		t.Error("unterminated args should fail")
	}
	ev, err = parseEvent(`@tick`)
	if err != nil || ev.Name != "tick" || len(ev.Args) != 0 {
		t.Fatalf("bare event = %v %v", ev, err)
	}
}

func TestParseValue(t *testing.T) {
	cases := map[string]string{
		`3`:      "3",
		`2.5`:    "2.5",
		`"a b"`:  `"a b"`,
		`true`:   "true",
		`false`:  "false",
		`barens`: `"barens"`,
	}
	for in, want := range cases {
		v, err := parseValue(in)
		if err != nil {
			t.Fatalf("parseValue(%q): %v", in, err)
		}
		if v.String() != want {
			t.Errorf("parseValue(%q) = %s, want %s", in, v, want)
		}
	}
	if _, err := parseValue(""); err == nil {
		t.Error("empty value should fail")
	}
}

func TestShellEvalAndShow(t *testing.T) {
	sh := run(t,
		`item a 1`,
		`trigger t :: item("a") > 0`,
		`commit 1 a=2`,
		`eval :: previously item("a") = 2`,
		`show db`,
		`show rules`,
		`show history`,
		`show firings`,
	)
	if !strings.Contains(sh.eng.DB().String(), "a=2") {
		t.Fatal("db state wrong")
	}
}

func TestShellExport(t *testing.T) {
	sh := run(t,
		`item a 1`,
		`trigger r :: item("a") > 0`,
		`commit 1 a=2`,
		`export`,
	)
	_ = sh
}

func TestShellHealthAndRevive(t *testing.T) {
	sh := &shell{cfg: adb.Config{MaxRuleFailures: 1}}
	defer sh.close()
	for _, line := range []string{
		`item a 1`,
		`trigger t :: @hit`,
		`emit 1 @hit`,
	} {
		if err := sh.exec(line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	// Shell triggers have nil actions, so nothing can fail; quarantine a
	// rule through the engine to exercise the commands against real state.
	if err := sh.do(func(eng *adb.Engine) error {
		return eng.AddTrigger("bad", `@hit`, func(ctx *adb.ActionContext) error {
			return errors.New("nope")
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := sh.exec(`emit 2 @hit`); err != nil {
		t.Fatal(err)
	}
	if got := sh.eng.QuarantinedRules(); len(got) != 1 || got[0] != "bad" {
		t.Fatalf("QuarantinedRules = %v", got)
	}
	for _, line := range []string{`health`, `health bad`, `revive bad`} {
		if err := sh.exec(line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	if got := sh.eng.QuarantinedRules(); len(got) != 0 {
		t.Fatalf("still quarantined after revive: %v", got)
	}
	if err := sh.exec(`health nosuch`); err == nil {
		t.Error("health of unknown rule should fail")
	}
	if err := sh.exec(`revive nosuch`); err == nil {
		t.Error("revive of unknown rule should fail")
	}
	if err := sh.exec(`revive`); err == nil {
		t.Error("revive without a rule should fail")
	}
}

// TestReservedItemRefused: an item line may not set the item time, which
// every state answers with its timestamp; the shell refuses it before it
// builds an engine.
func TestReservedItemRefused(t *testing.T) {
	sh := &shell{}
	defer sh.close()
	if err := sh.exec(`item time 99`); !errors.Is(err, adb.ErrReservedItem) {
		t.Fatalf("item time: %v, want ErrReservedItem", err)
	}
	if sh.eng != nil || sh.cfg.Initial != nil {
		t.Fatal("a refused item line built an engine or an initial state")
	}
}
