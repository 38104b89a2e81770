package ptl

import "testing"

// FuzzParse: the parser never panics, successful parses round-trip
// through the printer, and whatever parses is copied by the identity map
// and visited exactly once by Walk and WalkTerms (checkTraversal) — the
// committed corpus runs all three in tier-1.
func FuzzParse(f *testing.F) {
	seeds := []string{
		`[t <- time] [x <- price("IBM")] previously (price("IBM") <= 0.5 * x and time >= t - 10)`,
		`(not @logout(U)) since @login(U)`,
		`avg(price("IBM"); window 60; @update_stocks) > 70`,
		`sum(p(); time = 540; time mod 60 = 0) / sum(1; time = 540; true) > 70`,
		`executed(r1, X, T) and time = T + 10`,
		`eventually <= 30 (item("done") = 1) until always @a`,
		`(A, B) in pairs() or 1 + 2 * 3 != -4`,
		`throughout <= 5 nexttime lasttime true`,
		"x = \"a\\\"b\\n\"",
		`# comment only`,
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
