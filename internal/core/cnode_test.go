package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ptlactive/internal/value"
)

// randNode generates a random constraint node over variables x, y with
// small integer constants; returns the node. Depth bounds recursion.
func randNode(tab *interner, rng *rand.Rand, depth int) *cnode {
	mk := func() *cterm {
		switch rng.Intn(3) {
		case 0:
			return tab.constTerm(value.NewInt(int64(rng.Intn(7) - 3)))
		case 1:
			return tab.varTerm([]string{"x", "y"}[rng.Intn(2)])
		default:
			t, err := tab.arithTerm(value.ArithOp(rng.Intn(3)), // add/sub/mul
				tab.varTerm([]string{"x", "y"}[rng.Intn(2)]),
				tab.constTerm(value.NewInt(int64(rng.Intn(5)))))
			if err != nil {
				panic(err)
			}
			return t
		}
	}
	if depth <= 0 {
		n, err := tab.mkAtom(value.CmpOp(rng.Intn(6)), mk(), mk())
		if err != nil {
			panic(err)
		}
		return n
	}
	switch rng.Intn(4) {
	case 0:
		return tab.mkAnd(randNode(tab, rng, depth-1), randNode(tab, rng, depth-1))
	case 1:
		return tab.mkOr(randNode(tab, rng, depth-1), randNode(tab, rng, depth-1))
	case 2:
		return tab.mkNot(randNode(tab, rng, depth-1))
	default:
		return randNode(tab, rng, 0)
	}
}

func env(x, y int64) map[string]value.Value {
	return map[string]value.Value{"x": value.NewInt(x), "y": value.NewInt(y)}
}

func TestMkAtomFoldsGround(t *testing.T) {
	tab := newInterner()
	a, err := tab.mkAtom(value.LT, tab.constTerm(value.NewInt(1)), tab.constTerm(value.NewInt(2)))
	if err != nil || a != nodeTrue {
		t.Fatalf("1 < 2 should fold to true, got %v %v", a, err)
	}
	a, err = tab.mkAtom(value.EQ, tab.constTerm(value.NewInt(1)), tab.constTerm(value.NewInt(2)))
	if err != nil || a != nodeFalse {
		t.Fatalf("1 = 2 should fold to false")
	}
	// Null side folds to false.
	a, err = tab.mkAtom(value.GE, tab.constTerm(value.Value{}), tab.constTerm(value.NewInt(0)))
	if err != nil || a != nodeFalse {
		t.Fatalf("null >= 0 should fold to false, got %v %v", a, err)
	}
	// Symbolic atom does not fold.
	a, err = tab.mkAtom(value.LT, tab.varTerm("x"), tab.constTerm(value.NewInt(2)))
	if err != nil || a.kind != nkAtom {
		t.Fatalf("symbolic atom folded: %v", a)
	}
}

func TestMkAndOrIdentities(t *testing.T) {
	tab := newInterner()
	x, _ := tab.mkAtom(value.GT, tab.varTerm("x"), tab.constTerm(value.NewInt(0)))
	if tab.mkAnd() != nodeTrue || tab.mkOr() != nodeFalse {
		t.Fatal("empty and/or wrong")
	}
	if tab.mkAnd(x, nodeTrue) != x || tab.mkOr(x, nodeFalse) != x {
		t.Fatal("identity elements not dropped")
	}
	if tab.mkAnd(x, nodeFalse) != nodeFalse || tab.mkOr(x, nodeTrue) != nodeTrue {
		t.Fatal("absorbing elements not applied")
	}
	if tab.mkAnd(x, x) != x || tab.mkOr(x, x) != x {
		t.Fatal("duplicates not merged")
	}
	// Complementary atoms contradict / tautologize.
	nx := tab.mkNot(x)
	if tab.mkAnd(x, nx) != nodeFalse {
		t.Fatal("x and not x should be false")
	}
	if tab.mkOr(x, nx) != nodeTrue {
		t.Fatal("x or not x should be true")
	}
	// Flattening: and(and(a,b),c) has three kids.
	y, _ := tab.mkAtom(value.GT, tab.varTerm("y"), tab.constTerm(value.NewInt(0)))
	z, _ := tab.mkAtom(value.LT, tab.varTerm("y"), tab.constTerm(value.NewInt(9)))
	n := tab.mkAnd(tab.mkAnd(x, y), z)
	if n.kind != nkAnd || len(n.kids) != 3 {
		t.Fatalf("flattening failed: %v", n)
	}
}

func TestMkNot(t *testing.T) {
	tab := newInterner()
	if tab.mkNot(nodeTrue) != nodeFalse || tab.mkNot(nodeFalse) != nodeTrue {
		t.Fatal("constant negation wrong")
	}
	x, _ := tab.mkAtom(value.LE, tab.varTerm("x"), tab.constTerm(value.NewInt(2)))
	nx := tab.mkNot(x)
	if nx.kind != nkAtom || nx.op != value.GT {
		t.Fatalf("atom negation should flip the operator, got %v", nx)
	}
	and := tab.mkAnd(x, tab.mkNot(tab.mkAnd(x, x))) // contradiction
	if and != nodeFalse {
		t.Fatalf("contradiction not detected: %v", and)
	}
	n := tab.mkNot(tab.mkAnd(x, mustAtom(t, tab, value.GT, tab.varTerm("y"), tab.constTerm(value.NewInt(1)))))
	if tab.mkNot(n).kind != nkAnd {
		t.Fatal("double negation should cancel")
	}
}

func mustAtom(t *testing.T, tab *interner, op value.CmpOp, l, r *cterm) *cnode {
	t.Helper()
	a, err := tab.mkAtom(op, l, r)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestSimplifierSoundness: random nodes evaluate identically before and
// after substitution-based simplification, across assignments.
func TestSimplifierSoundness(t *testing.T) {
	tab := newInterner()
	for seed := 0; seed < 300; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := randNode(tab, rng, 3)
		xv := int64(rng.Intn(9) - 4)
		// Substituting x then evaluating with y must equal evaluating the
		// original with both.
		sub, err := tab.substNode(n, "x", value.NewInt(xv), map[*cnode]*cnode{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for yv := int64(-3); yv <= 3; yv++ {
			got, err := evalNode(sub, env(0 /*unused*/, yv))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			want, err := evalNode(n, env(xv, yv))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if got != want {
				t.Fatalf("seed %d: subst changed semantics (x=%d y=%d): %s vs %s",
					seed, xv, yv, n, sub)
			}
		}
	}
}

// TestSubsumptionInvisible: ors of same-shape and near-miss disjuncts,
// built alike through a table that subsumes and one that does not, agree
// under random environments — on the verdict and the first error of the
// short-circuited evaluation and of the fire check's, on what substituting
// the variables meets, and on the candidates — while the subsuming table's
// ors hold fewer disjuncts.
func TestSubsumptionInvisible(t *testing.T) {
	on, off := newInterner(), newInterner()
	on.subsume = true
	vals := []value.Value{value.NewInt(0), value.NewInt(1), value.NewInt(3), value.NewFloat(0.5),
		value.NewFloat(2.5), value.NewFloat(math.NaN()), value.NewString("a"), value.NewString("b"),
		value.NewBool(true), {}}
	// build replays one seed's constructor calls on a table: ors grown as the
	// Since recurrence grows them, and now and then y substituted, which
	// rebuilds them.
	build := func(in *interner, seed int64) (n *cnode, err error) {
		rng := rand.New(rand.NewSource(seed))
		x, y := in.varTerm("x"), in.varTerm("y")
		half, _ := in.arithTerm(value.Mul, in.constTerm(value.NewFloat(0.5)), x)
		back, _ := in.arithTerm(value.Sub, x, in.constTerm(value.NewInt(10)))
		sides := []*cterm{x, y, half, back}
		ops := []value.CmpOp{value.LE, value.LE, value.GE, value.GE, value.LT, value.GT, value.EQ, value.NE}
		// Most disjuncts follow the seed's template — per atom an operator, a
		// side, which side is constant and a pool of three neighbouring
		// constants, a single one for = and ≠ — and the rest are near misses.
		type slot struct{ op, side, flip, pool int }
		tmpl := make([]slot, 1+rng.Intn(3))
		for i := range tmpl {
			tmpl[i] = slot{rng.Intn(len(ops)), rng.Intn(len(sides)), rng.Intn(3), rng.Intn(len(vals) - 2)}
		}
		disjunct := func() *cnode {
			atoms := make([]*cnode, len(tmpl))
			for i, s := range tmpl {
				c := s.pool + rng.Intn(3)
				if rng.Intn(6) == 0 {
					s, c = slot{rng.Intn(len(ops)), rng.Intn(len(sides)), rng.Intn(3), 0}, rng.Intn(len(vals))
				} else if ops[s.op] == value.EQ || ops[s.op] == value.NE {
					c = s.pool
				}
				l, r := in.constTerm(vals[c]), sides[s.side]
				if s.flip == 0 {
					l, r = r, l
				}
				atoms[i], _ = in.mkAtom(ops[s.op], l, r) // a symbolic side: no error
			}
			return in.mkAnd(atoms...)
		}
		n = nodeFalse
		for k := 3 + rng.Intn(10); k > 0 && err == nil; k-- {
			switch rng.Intn(6) {
			case 0:
				n = in.mkOr(n, disjunct())
			case 1:
				n = in.mkOr(disjunct(), disjunct(), n)
			case 2:
				n, err = in.subst(n, "y", vals[rng.Intn(len(vals))])
			default:
				n = in.mkOr(disjunct(), n)
			}
		}
		return n, err
	}
	const seeds = 600
	smaller := 0
	for seed := int64(0); seed < seeds; seed++ {
		a, aerr := build(on, seed)
		b, berr := build(off, seed)
		if fmt.Sprint(aerr) != fmt.Sprint(berr) {
			t.Fatalf("seed %d: building meets %v subsuming, %v not", seed, aerr, berr)
		}
		if aerr != nil {
			continue
		}
		if nodeSize(a, map[*cnode]struct{}{}) < nodeSize(b, map[*cnode]struct{}{}) {
			smaller++
		}
		ca, cb := map[string]map[string]value.Value{}, map[string]map[string]value.Value{}
		collectCandidates(a, ca)
		collectCandidates(b, cb)
		if !reflect.DeepEqual(ca, cb) {
			t.Fatalf("seed %d: candidates %v subsuming, %v not\n%s\n%s", seed, ca, cb, a, b)
		}
		for _, xv := range vals {
			for _, yv := range vals {
				e := map[string]value.Value{"x": xv, "y": yv}
				check := func(what string, ga, gb any, ea, eb error) {
					if fmt.Sprint(ga, ea) != fmt.Sprint(gb, eb) {
						t.Fatalf("seed %d, x=%s y=%s: %s gives %v (%v) subsuming, %v (%v) not\n%s\n%s",
							seed, xv, yv, what, ga, ea, gb, eb, a, b)
					}
				}
				va, ea := evalNode(a, e)
				vb, eb := evalNode(b, e)
				check("evalNode", va, vb, ea, eb)
				va, ea = evaluate(a, e, map[*cnode]bool{})
				vb, eb = evaluate(b, e, map[*cnode]bool{})
				check("the fire check", va, vb, ea, eb)
				sa, ea := on.subst(a, "x", xv)
				if ea == nil {
					sa, ea = on.subst(sa, "y", yv)
				}
				sb, eb := off.subst(b, "x", xv)
				if eb == nil {
					sb, eb = off.subst(sb, "y", yv)
				}
				check("substitution", sa, sb, ea, eb)
			}
		}
	}
	if smaller < seeds/6 {
		t.Fatalf("subsumption shrank %d of %d graphs", smaller, seeds)
	}
}

func TestSubstSharing(t *testing.T) {
	tab := newInterner()
	// Substituting a variable not present returns the identical node.
	x := mustAtom(t, tab, value.GT, tab.varTerm("x"), tab.constTerm(value.NewInt(0)))
	n := tab.mkAnd(x, tab.mkNot(tab.mkOr(x, x)))
	got, err := tab.substNode(n, "zzz", value.NewInt(1), map[*cnode]*cnode{})
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatal("substitution of absent variable should be identity (pointer-equal)")
	}
}

func TestDecomposeLinear(t *testing.T) {
	tab := newInterner()
	v := tab.varTerm("t")
	c3 := tab.constTerm(value.NewInt(3))
	c5 := tab.constTerm(value.NewInt(5))
	add, _ := tab.arithTerm(value.Add, v, c3)      // t + 3
	sub, _ := tab.arithTerm(value.Sub, c5, v)      // 5 - t
	nested, _ := tab.arithTerm(value.Sub, add, c5) // (t+3) - 5
	mul, _ := tab.arithTerm(value.Mul, v, c3)      // 3t: not unit
	twoVars, _ := tab.arithTerm(value.Add, v, tab.varTerm("u"))

	cases := []struct {
		t      *cterm
		sign   int
		offset float64
		ok     bool
	}{
		{v, 1, 0, true},
		{c3, 0, 3, true},
		{add, 1, 3, true},
		{sub, -1, 5, true},
		{nested, 1, -2, true},
		{mul, 0, 0, false},
		{twoVars, 0, 0, false},
	}
	for i, c := range cases {
		lp, ok := decomposeLinear(c.t)
		if ok != c.ok {
			t.Errorf("case %d: ok=%t want %t", i, ok, c.ok)
			continue
		}
		if ok && (lp.sign != c.sign || lp.offset.AsFloat() != c.offset) {
			t.Errorf("case %d: got sign=%d offset=%s", i, lp.sign, lp.offset)
		}
	}
}

func TestVarConstAtomNormalization(t *testing.T) {
	tab := newInterner()
	tv := map[string]bool{"t": true}
	v := tab.varTerm("t")
	// time_j >= t - 10 with time_j = 7: atom 7 >= t-10 should normalize to
	// t <= 17.
	rhs, _ := tab.arithTerm(value.Sub, v, tab.constTerm(value.NewInt(10)))
	atom := mustAtom(t, tab, value.GE, tab.constTerm(value.NewInt(7)), rhs)
	name, c, op, ok := varConstAtom(atom, tv)
	if !ok || name != "t" || c.AsFloat() != 17 || op != value.LE {
		t.Fatalf("normalized to %s %s %s (ok=%t)", name, op, c, ok)
	}
	// 5 - t < 2 -> -t < -3 -> t > 3.
	lhs, _ := tab.arithTerm(value.Sub, tab.constTerm(value.NewInt(5)), v)
	atom = mustAtom(t, tab, value.LT, lhs, tab.constTerm(value.NewInt(2)))
	name, c, op, ok = varConstAtom(atom, tv)
	if !ok || name != "t" || c.AsFloat() != 3 || op != value.GT {
		t.Fatalf("normalized to %s %s %s (ok=%t)", name, op, c, ok)
	}
	// Non-time variables are not pruned.
	atom = mustAtom(t, tab, value.LE, tab.varTerm("u"), tab.constTerm(value.NewInt(2)))
	if _, _, _, ok := varConstAtom(atom, tv); ok {
		t.Fatal("non-anchored variable should not match")
	}
}

// TestTimeBoundPruneSoundness: for time-anchored variables substituted
// with any value >= now, the pruned node evaluates identically.
func TestTimeBoundPruneSoundness(t *testing.T) {
	tab := newInterner()
	tv := map[string]bool{"x": true}
	for seed := 0; seed < 200; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		n := randNode(tab, rng, 3)
		now := int64(rng.Intn(10))
		pruned := tab.timeBoundPrune(n, now, tv, map[*cnode]*cnode{})
		// x takes values now, now+1, ... (nondecreasing current time).
		for dx := int64(0); dx < 4; dx++ {
			for yv := int64(-2); yv <= 2; yv++ {
				got, err := evalNode(pruned, env(now+dx, yv))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				want, err := evalNode(n, env(now+dx, yv))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if got != want {
					t.Fatalf("seed %d: prune changed semantics at x=%d y=%d now=%d\nbefore: %s\nafter:  %s",
						seed, now+dx, yv, now, n, pruned)
				}
			}
		}
	}
}

func TestMemberExpansion(t *testing.T) {
	tab := newInterner()
	rel := value.NewRelation([][]value.Value{
		{value.NewString("a"), value.NewInt(1)},
		{value.NewString("b"), value.NewInt(2)},
	})
	// Ground membership folds to a constant.
	n, err := tab.mkMember([]*cterm{tab.constTerm(value.NewString("a")), tab.constTerm(value.NewInt(1))}, tab.constTerm(rel))
	if err != nil || n != nodeTrue {
		t.Fatalf("ground member = %v, %v", n, err)
	}
	n, err = tab.mkMember([]*cterm{tab.constTerm(value.NewString("a")), tab.constTerm(value.NewInt(2))}, tab.constTerm(rel))
	if err != nil || n != nodeFalse {
		t.Fatalf("ground non-member = %v, %v", n, err)
	}
	// Variable elements expand to equality disjunction.
	n, err = tab.mkMember([]*cterm{tab.varTerm("s"), tab.varTerm("v")}, tab.constTerm(rel))
	if err != nil || n.kind != nkOr || len(n.kids) != 2 {
		t.Fatalf("expansion = %v, %v", n, err)
	}
	// Candidates surface from the expansion.
	cands := map[string]map[string]value.Value{}
	collectCandidates(n, cands)
	if len(cands["s"]) != 2 || len(cands["v"]) != 2 {
		t.Fatalf("candidates = %v", cands)
	}
	// Arity-mismatched rows never match.
	n, err = tab.mkMember([]*cterm{tab.varTerm("s")}, tab.constTerm(rel))
	if err != nil || n != nodeFalse {
		t.Fatalf("arity mismatch should be false: %v", n)
	}
	// Membership in a scalar errors.
	if _, err := tab.mkMember([]*cterm{tab.varTerm("s")}, tab.constTerm(value.NewInt(1))); err == nil {
		t.Fatal("member of scalar should error")
	}
	// Null relation: false.
	n, err = tab.mkMember([]*cterm{tab.varTerm("s")}, tab.constTerm(value.Value{}))
	if err != nil || n != nodeFalse {
		t.Fatalf("member of null should be false: %v %v", n, err)
	}
	// Symbolic relation stays a member node; substitution expands it.
	sym, err := tab.mkMember([]*cterm{tab.varTerm("s")}, tab.varTerm("r"))
	if err != nil || sym.kind != nkMember {
		t.Fatalf("symbolic member = %v", sym)
	}
	unary := value.NewRelation([][]value.Value{{value.NewString("z")}})
	got, err := tab.substNode(sym, "r", unary, map[*cnode]*cnode{})
	if err != nil {
		t.Fatal(err)
	}
	if got.kind != nkAtom || got.op != value.EQ {
		t.Fatalf("substituted member = %v", got)
	}
	// evalNode on a symbolic member with env.
	ok, err := evalNode(sym, map[string]value.Value{"s": value.NewString("z"), "r": unary})
	if err != nil || !ok {
		t.Fatalf("evalNode member: %t %v", ok, err)
	}
}

func TestMemberExpandLimit(t *testing.T) {
	tab := newInterner()
	rows := make([][]value.Value, memberExpandLimit+1)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i))}
	}
	big := value.NewRelation(rows)
	if _, err := tab.mkMember([]*cterm{tab.varTerm("s")}, tab.constTerm(big)); err == nil {
		t.Fatal("oversized expansion should error")
	}
}

func TestNodeStrings(t *testing.T) {
	tab := newInterner()
	x := mustAtom(t, tab, value.GT, tab.varTerm("x"), tab.constTerm(value.NewInt(0)))
	m, _ := tab.mkMember([]*cterm{tab.varTerm("s")}, tab.varTerm("r"))
	for _, n := range []*cnode{nodeTrue, nodeFalse, x, tab.mkAnd(x, mustAtom(t, tab, value.LT, tab.varTerm("y"), tab.constTerm(value.NewInt(9)))), tab.mkNot(tab.mkOr(x, m)), m} {
		if n.String() == "" {
			t.Fatal("empty node string")
		}
	}
	at, _ := tab.arithTerm(value.Add, tab.varTerm("x"), tab.constTerm(value.NewInt(1)))
	if !strings.Contains(at.String(), "+") {
		t.Fatalf("cterm string = %s", at)
	}
}

func TestNodeSizeSharing(t *testing.T) {
	tab := newInterner()
	x := mustAtom(t, tab, value.GT, tab.varTerm("x"), tab.constTerm(value.NewInt(0)))
	y := mustAtom(t, tab, value.LT, tab.varTerm("y"), tab.constTerm(value.NewInt(5)))
	shared := tab.mkOr(x, y)
	n := tab.mkAnd(shared, tab.mkNot(shared))
	// n is a contradiction: not(shared) is shared's complement, which
	// mkAnd detects and folds to false.
	if n != nodeFalse {
		t.Fatalf("complement detection failed: %v", n)
	}
	big := tab.mkAnd(tab.mkOr(x, y), tab.mkOr(y, x))
	seen := map[*cnode]struct{}{}
	if s := nodeSize(big, seen); s <= 0 {
		t.Fatalf("nodeSize = %d", s)
	}
}
