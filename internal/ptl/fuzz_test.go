package ptl

import "testing"

// FuzzParse: the parser never panics, successful parses round-trip
// through the printer, and whatever parses is copied by the identity map
// and visited exactly once by Walk and WalkTerms (checkTraversal) — the
// committed corpus runs all three in tier-1, and `make verify` fuzzes for
// a bounded time. The printed text is what the WAL and snapshots store.
func FuzzParse(f *testing.F) {
	seeds := []string{
		`[t <- time] [x <- price("IBM")] previously (price("IBM") <= 0.5 * x and time >= t - 10)`,
		`(not @logout(U)) since @login(U)`,
		`avg(price("IBM"); window 60; @update_stocks) > 70`,
		`sum(p(); time = 540; time mod 60 = 0) / sum(1; time = 540; true) > 70`,
		`executed(r1, X, T) and time = T + 10`,
		`previously <= 30 (item("done") = 1) since throughout @a`,
		`(A, B) in pairs() or 1 + 2 * 3 != -4`,
		`throughout <= 5 lasttime lasttime true`,
		"x = \"a\\\"b\\n\"",
		`# comment only`,
		"true",
		"@ev0",
		"@pay3(x) and x > 4",
		`item("a") > 10`,
		`item("a") > 10 since @ev1`,
		`lasttime @ev2`,
		`previously <= 5 @ev0`,
		`throughout <= 3 item("b") < 20`,
		`not (item("a") > 50)`,
		`@pay1(x) and (x >= 2 or lasttime @ev0)`,
		`(@ev0 or @ev1) since (item("a") = 0)`,
		`[x <- item("a")] x*2 + 1 > -3`,
		`avg(item("a"); window 60; @ev0) > 5`,
		`sum(item("a"); @start; @ev0) > 5`,
		`count(item("a"); window 10; @ev0) >= 2`,
		`executed(r1, x, t) and t > 3`,
		`(x) in rel("stocks")`,
		`item("a") = 1.5 or item("s") = "hi"`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := Parse(src)
		if err != nil {
			return
		}
		printed := g.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q (from %q) failed: %v", printed, src, err)
		}
		if !Equal(g, back) {
			t.Fatalf("round trip changed:\n  src:   %q\n  first: %s\n  again: %s", src, g, back)
		}
		checkTraversal(t, g)
	})
}
