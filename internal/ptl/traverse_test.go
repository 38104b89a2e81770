package ptl

import (
	"reflect"
	"slices"
	"testing"

	"ptlactive/internal/value"
)

type (
	formulaRow struct {
		f    Formula
		kids []any
	}
	termRow struct {
		t    Term
		kids []any
	}
)

// kindTable holds one instance of every Formula and Term kind with the
// children it has, spelled out by hand in field order: it is what
// traverse.go is checked against, and the one other place in the tests
// that knows the shape.
func kindTable() (formulas []formulaRow, terms []termRow) {
	ta, tb, tc := V("a"), CInt(2), Q("item", CStr("k"))
	fa, fb := Ev("p"), Ev("q")
	fm := func(f Formula, kids ...any) { formulas = append(formulas, formulaRow{f, kids}) }
	tm := func(t Term, kids ...any) { terms = append(terms, termRow{t, kids}) }
	fm(&BoolConst{V: true})
	fm(&Cmp{Op: value.LT, L: ta, R: tb}, ta, tb)
	fm(&EventAtom{Name: "e", Args: []Term{ta, tb}}, ta, tb)
	fm(&EventAtom{Name: "e"})
	fm(&Executed{Rule: "r", Args: []Term{ta, tb}, TimeArg: tc}, ta, tb, tc)
	fm(&Member{Elems: []Term{ta, tb}, Rel: tc}, ta, tb, tc)
	fm(&Not{F: fa}, fa)
	fm(&And{L: fa, R: fb}, fa, fb)
	fm(&Or{L: fa, R: fb}, fa, fb)
	fm(&Since{L: fa, R: fb, Bound: 3}, fa, fb)
	fm(&Lasttime{F: fa}, fa)
	fm(&Previously{F: fa, Bound: 4}, fa)
	fm(&Throughout{F: fa, Bound: Unbounded}, fa)
	fm(&Assign{Var: "x", Q: tc, Body: fa}, tc, fa)

	tm(CInt(1))
	tm(V("x"))
	tm(&Call{Fn: "f", Args: []Term{ta, tb}}, ta, tb)
	tm(Time())
	tm(&Arith{Op: value.Add, L: ta, R: tb}, ta, tb)
	tm(&Neg{X: ta}, ta)
	tm(NewAgg(AggSum, tc, fa, fb), tc, fa, fb)
	tm(NewWindowAgg(AggMax, tc, 9, fb), tc, fb)
	return formulas, terms
}

// collect returns visitor callbacks appending what they are given to out.
func collect(out *[]any) (func(Formula), func(Term)) {
	return func(f Formula) { *out = append(*out, f) }, func(t Term) { *out = append(*out, t) }
}

// recordMap returns mapper callbacks that append what they are given to
// out and return it unchanged.
func recordMap(out *[]any) (func(Formula) Formula, func(Term) Term) {
	ff, tf := collect(out)
	return func(f Formula) Formula { ff(f); return f }, func(t Term) Term { tf(t); return t }
}

// TestChildrenEveryKind: the visitors reach each child of each kind once,
// in field order; the mappers rebuild an equal node of the same kind — a
// fresh one when the kind has children, the node itself when it has none
// by nature (constants, variables) — handing each child to the callbacks
// once.
func TestChildrenEveryKind(t *testing.T) {
	formulas, terms := kindTable()
	idF := func(f Formula) Formula { return f }
	idT := func(t Term) Term { return t }
	for _, row := range formulas {
		var got []any
		ff, tf := collect(&got)
		Children(row.f, ff, tf)
		if !slices.Equal(got, row.kids) {
			t.Errorf("Children(%T) = %v, want %v", row.f, got, row.kids)
		}
		var mapped []any
		mf, mt := recordMap(&mapped)
		out := MapChildren(row.f, mf, mt)
		if !slices.Equal(mapped, row.kids) {
			t.Errorf("MapChildren(%T) rewrote %v, want %v", row.f, mapped, row.kids)
		}
		if !Equal(out, row.f) || reflect.TypeOf(out) != reflect.TypeOf(row.f) {
			t.Errorf("MapChildren(%T) under identity = %s", row.f, out)
		}
		_, leaf := row.f.(*BoolConst)
		if (out == row.f) != leaf {
			t.Errorf("MapChildren(%T): same pointer = %t, want %t", row.f, out == row.f, leaf)
		}
	}
	for _, row := range terms {
		var got []any
		ff, tf := collect(&got)
		TermChildren(row.t, ff, tf)
		if !slices.Equal(got, row.kids) {
			t.Errorf("TermChildren(%T) = %v, want %v", row.t, got, row.kids)
		}
		out := MapTermChildren(row.t, idF, idT)
		if !EqualTerms(out, row.t) || reflect.TypeOf(out) != reflect.TypeOf(row.t) {
			t.Errorf("MapTermChildren(%T) under identity = %s", row.t, out)
		}
		leaf := false
		switch row.t.(type) {
		case *Const, *Var:
			leaf = true
		}
		if (out == row.t) != leaf {
			t.Errorf("MapTermChildren(%T): same pointer = %t, want %t", row.t, out == row.t, leaf)
		}
	}
	// The mapper rewrites an aggregate's sampling formula before its
	// starting formula (see MapTermChildren): fresh names depend on it.
	q, start, sample := Q("item", CStr("k")), Ev("p"), Ev("q")
	var order []any
	mf, mt := recordMap(&order)
	MapTermChildren(NewAgg(AggSum, q, start, sample), mf, mt)
	if !slices.Equal(order, []any{q, sample, start}) {
		t.Errorf("MapTermChildren(agg) rewrote in order %v", order)
	}
}

// checkTraversal asserts, for any formula, what the traversals promise on
// top of Children: mapping with the identity copies the formula, Walk
// visits the formula first and every subformula occurrence exactly once,
// and WalkTerms every term occurrence exactly once. The occurrences are
// counted by a worklist over Children/TermChildren, which
// TestChildrenEveryKind checks kind by kind.
func checkTraversal(t testing.TB, f Formula) {
	t.Helper()
	var idF func(Formula) Formula
	var idT func(Term) Term
	idF = func(g Formula) Formula { return MapChildren(g, idF, idT) }
	idT = func(u Term) Term { return MapTermChildren(u, idF, idT) }
	if c := idF(f); !Equal(c, f) || c.String() != f.String() {
		t.Fatalf("identity map changed the formula:\n  from: %s\n  to:   %s", f, c)
	}

	wantF, wantT := map[Formula]int{}, map[Term]int{}
	var work []any
	push, pushT := collect(&work)
	push(f)
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		switch x := n.(type) {
		case Formula:
			wantF[x]++
			Children(x, push, pushT)
		case Term:
			wantT[x]++
			TermChildren(x, push, pushT)
		}
	}
	gotF, gotT := map[Formula]int{}, map[Term]int{}
	first := true
	Walk(f, func(g Formula) {
		if first && g != f {
			t.Fatalf("Walk visited %s before the formula itself", g)
		}
		first = false
		gotF[g]++
	})
	WalkTerms(f, func(u Term) { gotT[u]++ })
	for g, n := range wantF {
		if gotF[g] != n {
			t.Fatalf("Walk visited %s %d times, it occurs %d times in %s", g, gotF[g], n, f)
		}
	}
	for u, n := range wantT {
		if gotT[u] != n {
			t.Fatalf("WalkTerms visited %s %d times, it occurs %d times in %s", u, gotT[u], n, f)
		}
	}
	if len(gotF) != len(wantF) || len(gotT) != len(wantT) {
		t.Fatalf("Walk/WalkTerms visited %d/%d distinct nodes, %d/%d occur in %s", len(gotF), len(gotT), len(wantF), len(wantT), f)
	}
}

// TestWalkThroughAggregates pins the hole the old Walk had: it offered an
// aggregate's starting and sampling formulas without descending into them
// (and once per enclosing ancestor), so an event atom under a connective
// in a sampling formula was invisible to EventNames and everything built
// on it — the relevance filter's event index, ConditionFootprint, the
// cluster's relay registration.
func TestWalkThroughAggregates(t *testing.T) {
	for _, src := range []string{
		`sum(item("a"); @s; (@u or @w)) > 1`,
		`sum(item("a"); @s; (@u and lasttime @w)) > 1`,
		`not (sum(item("a"); @s; (@u or @w)) > 1)`,
		`not (sum(item("a"); @s; (@u and lasttime @w)) > 1)`,
		`[x <- sum(item("a"); @s; avg(item("b"); executed(r, T) and @u; [y <- time] @w(y)) > 2)] lasttime x > 1`,
	} {
		f := parse(t, src)
		if got := EventNames(f); !reflect.DeepEqual(got, []string{"s", "u", "w"}) {
			t.Errorf("EventNames(%s) = %v, want [s u w]", src, got)
		}
		checkTraversal(t, f)
		var order []string
		Walk(f, func(g Formula) {
			if e, ok := g.(*EventAtom); ok {
				order = append(order, e.Name)
			}
		})
		if !reflect.DeepEqual(order, []string{"s", "u", "w"}) {
			t.Errorf("Walk(%s) met the event atoms as %v, want each once in source order", src, order)
		}
	}
	f := parse(t, `[x <- sum(item("a"); @s; avg(item("b"); executed(r, T) and @u; [y <- time] @w(y)) > 2)] lasttime x > 1`)
	if bv := BoundVars(f); !reflect.DeepEqual(bv, []string{"x", "y"}) {
		t.Errorf("BoundVars = %v: the assignment inside the nested aggregate is missing", bv)
	}
	execs := 0
	Walk(f, func(g Formula) {
		if _, ok := g.(*Executed); ok {
			execs++
		}
	})
	if execs != 1 {
		t.Errorf("Walk met executed() %d times, want 1", execs)
	}
}
