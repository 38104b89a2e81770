package ptl_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ptlactive/internal/ptl"
	"ptlactive/internal/ptlgen"
)

const normalGolden = "testdata/normal.golden"

// goldenByHand are shapes ptlgen never draws: bounded operators and
// re-bound variables in both formulas of one aggregate (which of the two
// gets the lower fresh name is part of the normal form), future operators,
// executed, membership and free variables under a shadowing assignment.
var goldenByHand = []string{
	`sum(item("a"); previously <= 3 @s; (throughout <= 4 @u since <= 5 @w)) > 1`,
	`[x <- item("a")] avg(item("b"); [x <- time] x > 3; [x <- item("c")] lasttime x < 2) > x`,
	`[x <- item("a")] ([x <- item("b")] x > 1 and [x <- time] previously <= 2 x > Y)`,
	`eventually <= 30 (item("done") = 1) until always <= 4 @a(X)`,
	`executed(r1, X, T) and time = T + 10 and (A, X) in pairs()`,
	`[X <- item("a")] (X > 1 and previously [Y <- time] @e(X, Y, Z)) or X = - Z`,
	`count(item("a"); window 5; nexttime @w) >= min(item("a"); @s; @u or lasttime @w)`,
}

var genVar = regexp.MustCompile(`x[0-9]+`)

// goldenInputs lists the formulas the golden file covers. ptlgen binds
// every variable once and leaves none free, which gives RenameApart,
// FreeVars and Substitute nothing to do, so each seeded formula appears
// three times: as drawn; folded onto two variable names with item("c")
// replaced by a variable (re-bindings, shadowing, free occurrences); and
// that twice more under enclosing assignments of the same two names.
func goldenInputs(t *testing.T) []ptl.Formula {
	var out []ptl.Formula
	for _, src := range goldenByHand {
		f, err := ptl.Parse(src)
		if err != nil {
			t.Fatalf("parse %s: %v", src, err)
		}
		out = append(out, f)
	}
	for seed := 0; seed < 150; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		var f ptl.Formula
		if seed%2 == 0 {
			f = ptlgen.Formula(rng, 2+seed%3)
		} else {
			f = ptlgen.FormulaWithAggregates(rng, 2+seed%3)
		}
		folded := genVar.ReplaceAllStringFunc(f.String(), func(v string) string {
			n, _ := strconv.Atoi(v[1:])
			return fmt.Sprintf("x%d", n%2)
		})
		folded = strings.ReplaceAll(folded, `item("c")`, "x1")
		g, err := ptl.Parse(folded)
		if err != nil {
			t.Fatalf("seed %d: parse %s: %v", seed, folded, err)
		}
		nested := ptl.Let("x1", ptl.Q("item", ptl.CStr("a")), &ptl.And{L: g, R: ptl.Let("x0", ptl.Time(), g)})
		out = append(out, f, g, nested)
	}
	return out
}

func renderNormalForms(t *testing.T) []byte {
	env := map[string]ptl.Term{
		"x0": ptl.CInt(7),
		"x1": &ptl.Neg{X: ptl.Q("item", ptl.CStr("b"))},
		"X":  ptl.V("W"),
	}
	var b bytes.Buffer
	for _, f := range goldenInputs(t) {
		renamed := ptl.RenameApart(f)
		fmt.Fprintf(&b, "formula     %s\n", f)
		fmt.Fprintf(&b, "free        %s\n", strings.Join(ptl.FreeVars(f), " "))
		fmt.Fprintf(&b, "renamed     %s\n", renamed)
		fmt.Fprintf(&b, "desugared   %s\n", ptl.Desugar(renamed))
		fmt.Fprintf(&b, "substituted %s\n\n", ptl.Substitute(f, env))
	}
	return b.Bytes()
}

// TestNormalFormsGolden pins FreeVars, RenameApart, Desugar∘RenameApart and
// Substitute byte-for-byte against a file written by the commit before
// they moved onto the traverse.go primitives. The fresh names they
// generate reach evaluator snapshots, so "equivalent up to renaming" is
// not enough. Regenerate (PTL_WRITE_GOLDEN=1) only for a deliberate change
// to the normal form, and diff the old file against the new first.
func TestNormalFormsGolden(t *testing.T) {
	got := renderNormalForms(t)
	if os.Getenv("PTL_WRITE_GOLDEN") != "" {
		if err := os.WriteFile(normalGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(normalGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("golden has %d lines, got %d", len(wl), len(gl))
}

// TestTraversalOverGenerated runs checkTraversal (identity map copies;
// Walk and WalkTerms visit every occurrence exactly once) over the golden
// file's inputs, aggregates included, and over their normal forms.
func TestTraversalOverGenerated(t *testing.T) {
	for _, f := range goldenInputs(t) {
		ptl.CheckTraversal(t, f)
		ptl.CheckTraversal(t, ptl.Desugar(ptl.RenameApart(f)))
	}
}
