// Package core implements the paper's primary contribution: the
// incremental algorithm of Section 5 for evaluating PTL trigger
// conditions. After the i-th update it maintains, for every temporal
// subformula g, a constraint formula F_{g,i} over the condition's
// variables; the recurrences
//
//	F_{g since h, i} = F_{h,i}  OR  (F_{g,i} AND F_{g since h, i-1})
//	F_{lasttime g, i} = F_{g, i-1}
//
// combine each new system state with the stored formulas, so evaluation
// cost depends on the change, never on the length of the history
// (Theorem 1). Constraint formulas are kept as an and-or graph with
// aggressive simplification: the time-bound optimization folds dead
// clauses over time-anchored variables to false, and an or drops the
// disjuncts others of their shape cover, which bounds the state kept.
//
// This file implements the constraint-formula representation: immutable
// nodes (true/false, comparison atoms, and/or/not) over constraint terms
// (constants, variables, arithmetic), with construction-time
// simplification, substitution, pruning, evaluation and candidate
// extraction.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"ptlactive/internal/value"
)

// ctKind enumerates constraint-term kinds.
type ctKind int

const (
	ctConst ctKind = iota
	ctVar
	ctArith
)

// cterm is an immutable constraint term: a constant, a variable left
// symbolic by an enclosing assignment, or arithmetic over those. Terms are
// built through an interner (intern.go), which keeps them canonical.
type cterm struct {
	kind ctKind
	v    value.Value   // ctConst
	name string        // ctVar
	op   value.ArithOp // ctArith
	l, r *cterm        // ctArith
	hash uint64        // structural, set by the interner
	vars []string      // sorted distinct variable names, nil when ground
}

func (in *interner) constTerm(v value.Value) *cterm {
	return in.term(cterm{kind: ctConst, v: v})
}

func (in *interner) varTerm(name string) *cterm {
	return in.term(cterm{kind: ctVar, name: name})
}

// arithTerm builds an arithmetic term, folding when both sides are
// constant. Arithmetic over an undefined (Null) constant yields Null,
// implementing "undefined aggregate values propagate" (see package naive).
func (in *interner) arithTerm(op value.ArithOp, l, r *cterm) (*cterm, error) {
	if l.kind == ctConst && r.kind == ctConst {
		if l.v.IsNull() || r.v.IsNull() || divByZero(op, r.v) {
			return in.constTerm(value.Value{}), nil
		}
		v, err := value.Arith(op, l.v, r.v)
		if err != nil {
			return nil, err
		}
		return in.constTerm(v), nil
	}
	return in.term(cterm{kind: ctArith, op: op, l: l, r: r}), nil
}

// substTerm replaces a variable with a constant value, folding arithmetic.
func (in *interner) substTerm(t *cterm, name string, v value.Value) (*cterm, error) {
	switch t.kind {
	case ctConst:
		return t, nil
	case ctVar:
		if t.name == name {
			return in.constTerm(v), nil
		}
		return t, nil
	case ctArith:
		l, err := in.substTerm(t.l, name, v)
		if err != nil {
			return nil, err
		}
		r, err := in.substTerm(t.r, name, v)
		if err != nil {
			return nil, err
		}
		if l == t.l && r == t.r {
			return t, nil
		}
		return in.arithTerm(t.op, l, r)
	default:
		return nil, fmt.Errorf("core: unknown cterm kind %d", t.kind)
	}
}

// eval computes the term under a complete assignment.
func (t *cterm) eval(env map[string]value.Value) (value.Value, error) {
	switch t.kind {
	case ctConst:
		return t.v, nil
	case ctVar:
		v, ok := env[t.name]
		if !ok {
			return value.Value{}, fmt.Errorf("core: unbound variable %s in constraint", t.name)
		}
		return v, nil
	case ctArith:
		l, err := t.l.eval(env)
		if err != nil {
			return value.Value{}, err
		}
		r, err := t.r.eval(env)
		if err != nil {
			return value.Value{}, err
		}
		if l.IsNull() || r.IsNull() || divByZero(t.op, r) {
			return value.Value{}, nil
		}
		return value.Arith(t.op, l, r)
	default:
		return value.Value{}, fmt.Errorf("core: unknown cterm kind %d", t.kind)
	}
}

func (t *cterm) String() string {
	switch t.kind {
	case ctConst:
		return t.v.String()
	case ctVar:
		return t.name
	case ctArith:
		return fmt.Sprintf("(%s %s %s)", t.l, t.op, t.r)
	default:
		return "?"
	}
}

// nodeKind enumerates constraint-formula node kinds.
type nodeKind int

const (
	nkTrue nodeKind = iota
	nkFalse
	nkAtom // comparison atom over cterms
	nkMember
	nkAnd
	nkOr
	nkNot
)

// memberExpandLimit caps the equality expansion of a membership atom
// (rows x elements); beyond it evaluation reports an error rather than
// building an unbounded constraint formula.
const memberExpandLimit = 100000

// cnode is an immutable constraint-formula node. Nodes are shared freely:
// the Since recurrence links each new formula to the previous one, so the
// stored state forms a DAG ("the formulas F can be maintained as an and-or
// graph", Section 5). An evaluator builds its nodes through its own
// interner (intern.go), so structurally equal formulas it meets are one
// pointer: memos keyed by node pointer are exact, and and/or construction
// deduplicates children by pointer.
type cnode struct {
	kind  nodeKind
	op    value.CmpOp // nkAtom
	l, r  *cterm      // nkAtom
	elems []*cterm    // nkMember tuple elements
	rel   *cterm      // nkMember relation term
	kids  []*cnode    // nkAnd, nkOr (flattened, deduplicated)
	sub   *cnode      // nkNot
	hash  uint64      // structural, set by the interner
	vars  []string    // sorted distinct variable names, nil when ground
}

var (
	nodeTrue  = &cnode{kind: nkTrue}
	nodeFalse = &cnode{kind: nkFalse}
)

func nodeBool(b bool) *cnode {
	if b {
		return nodeTrue
	}
	return nodeFalse
}

// mkAtom builds a comparison atom, folding to a constant when both sides
// are ground. A Null (undefined) side makes the atom false.
func (in *interner) mkAtom(op value.CmpOp, l, r *cterm) (*cnode, error) {
	if l.vars == nil && r.vars == nil {
		lv, err := l.eval(nil)
		if err != nil {
			return nil, err
		}
		rv, err := r.eval(nil)
		if err != nil {
			return nil, err
		}
		if lv.IsNull() || rv.IsNull() {
			return nodeFalse, nil
		}
		b, err := value.Cmp(op, lv, rv)
		if err != nil {
			return nil, err
		}
		return nodeBool(b), nil
	}
	return in.node(&cnode{kind: nkAtom, op: op, l: l, r: r}), nil
}

// expandCheck refuses a membership expansion beyond memberExpandLimit.
func expandCheck(rel value.Value, elems int) error {
	if rel.Kind() != value.Relation {
		return fmt.Errorf("core: membership in %s, want relation", rel.Kind())
	}
	if rel.NumRows()*elems > memberExpandLimit {
		return fmt.Errorf("core: membership expansion of %d rows x %d elements exceeds limit %d",
			rel.NumRows(), elems, memberExpandLimit)
	}
	return nil
}

// mkMember builds a membership atom (elems) in rel. When the relation
// side is a constant it expands into the disjunction over rows of
// element-equality conjunctions — membership is how relation-valued
// bindings (the paper's auxiliary relations R_x) surface as equality
// constraints that bind rule parameters. While the relation is still
// symbolic (bound by an enclosing assignment under a temporal operator)
// the atom is kept as-is and expands upon substitution.
func (in *interner) mkMember(elems []*cterm, rel *cterm) (*cnode, error) {
	if rel.kind != ctConst {
		return in.node(&cnode{kind: nkMember, elems: elems, rel: rel}), nil
	}
	if rel.v.IsNull() {
		return nodeFalse, nil
	}
	if err := expandCheck(rel.v, len(elems)); err != nil {
		return nil, err
	}
	disjuncts := make([]*cnode, 0, rel.v.NumRows())
	for _, row := range rel.v.Rows() {
		if len(row) != len(elems) {
			continue // arity mismatch cannot match
		}
		conj := make([]*cnode, len(elems))
		for k := range elems {
			a, err := in.mkAtom(value.EQ, elems[k], in.constTerm(row[k]))
			if err != nil {
				return nil, err
			}
			conj[k] = a
		}
		disjuncts = append(disjuncts, in.mkAnd(conj...))
	}
	return in.mkOr(disjuncts...), nil
}

// mkAnd conjoins nodes with flattening, constant folding, deduplication
// and complementary-pair detection.
func (in *interner) mkAnd(kids ...*cnode) *cnode { return in.junction(nkAnd, kids, false) }

// mkOr disjoins nodes, dual to mkAnd.
func (in *interner) mkOr(kids ...*cnode) *cnode { return in.junction(nkOr, kids, false) }

// junction builds the and (kind nkAnd) or the or (nkOr) of kids in scratch:
// members are marked in seen and deleted one by one after (clearing a map
// costs the most it ever held); only a new node copies the child list.
// subsumed does not compare the children of the last kid, which met when it
// was built (a Since chain's), with each other, nor any child rebuild passes.
func (in *interner) junction(kind nodeKind, kids []*cnode, rebuilt bool) *cnode {
	unit, zero := nodeTrue, nodeFalse
	if kind == nkOr {
		unit, zero = nodeFalse, nodeTrue
	}
	in.flat, in.fresh, in.gone = in.flat[:0], in.fresh[:0], in.gone[:0]
	ok := true
	for i, k := range kids {
		switch {
		case k.kind == kind:
			for _, g := range k.kids {
				if ok = in.addKid(kind, g, rebuilt || i == len(kids)-1); !ok {
					break
				}
			}
		case k != unit:
			ok = k != zero && in.addKid(kind, k, rebuilt)
		}
		if !ok {
			break
		}
	}
	for _, f := range in.flat {
		delete(in.seen, f)
	}
	for _, f := range in.gone {
		delete(in.seen, f)
	}
	switch {
	case !ok:
		return zero
	case len(in.flat) == 0:
		return unit
	case len(in.flat) == 1:
		return in.flat[0]
	}
	return in.node(&cnode{kind: kind, kids: in.flat})
}

// addKid appends g to the child list under construction unless it is
// there already or, in an or, subsumed (old: compared with no other old
// one); it reports false when g's complement is there, which folds it all.
func (in *interner) addKid(kind nodeKind, g *cnode, old bool) bool {
	if in.seen[g] {
		return true
	}
	if c := in.complement(g); c != nil && in.seen[c] {
		return false
	}
	in.seen[g] = true
	if kind != nkOr || !in.subsume || !in.subsumed(g, old) {
		in.flat = append(in.flat, g)
	}
	return true
}

// subsumed reports whether g, the next disjunct of an or, is redundant
// beside a fresh disjunct y of its shape: g implies y, or y, the last so
// far, implies g and g takes its place. Paired atoms error together, so
// every in-order evaluation or substitution meets the or's verdict and
// first error as before (DESIGN.md §4.1). It costs O(fresh disjuncts).
func (in *interner) subsumed(g *cnode, old bool) bool {
	if old && len(in.fresh) == 0 || !ordering(g) {
		return false
	}
	for _, i := range in.fresh {
		switch gy, yg := implies(g, in.flat[i], i == len(in.flat)-1); {
		case gy:
			in.gone = append(in.gone, g)
			return true
		case yg:
			in.flat[i], in.gone = g, append(in.gone, in.flat[i])
			return true
		}
	}
	if !old {
		in.fresh = append(in.fresh, len(in.flat))
	}
	return false
}

// ordering reports whether g, an atom or an and (whose kids are not ands),
// orders a constant against a symbolic side, as a subsumable disjunct does.
func ordering(g *cnode) bool {
	if g.kind == nkAtom {
		return g.op != value.EQ && g.op != value.NE && (g.l.kind == ctConst) != (g.r.kind == ctConst)
	}
	return g.kind == nkAnd && slices.ContainsFunc(g.kids, ordering)
}

// implies reports whether disjunct a implies b and, if converse, whether b
// implies a; both are false unless they have the same shape: atoms, or ands
// of as many atoms, that pair position by position — the identical node, or
// ordering atoms over one interned symbolic side, on the same side, by the
// same operator, against constants of one ordered kind (in c <= s, the
// larger c is the stronger).
func implies(a, b *cnode, converse bool) (ab, ba bool) {
	n := len(a.kids)
	if a.kind != b.kind || n != len(b.kids) || a.kind != nkAtom && a.kind != nkAnd {
		return false, false
	}
	ab, ba = true, converse
	for i := 0; i < max(n, 1) && (ab || ba); i++ {
		x, y := a, b
		if n > 0 {
			x, y = a.kids[i], b.kids[i]
		}
		if x == y {
			continue
		}
		cx, cy, left := x.l, y.l, true
		if x.l == y.l {
			cx, cy, left = x.r, y.r, false
		}
		if x.kind != nkAtom || y.kind != nkAtom || x.op != y.op || x.op == value.EQ || x.op == value.NE ||
			x.l != y.l && x.r != y.r || cx.kind != ctConst || cy.kind != ctConst {
			return false, false
		}
		c, ok := order(cx.v, cy.v)
		if left != (x.op == value.LT || x.op == value.LE) {
			c = -c
		}
		ab, ba = ok && ab && c >= 0, ok && ba && c <= 0
	}
	return ab, ba
}

// order compares two constants of one kind that orders totally: int,
// string, bool, or float but NaN, which orders equal to everything.
func order(a, b value.Value) (int, bool) {
	switch k := a.Kind(); {
	case k != b.Kind():
		return 0, false
	case k == value.Float: // compared directly: a NaN is neither <, > nor =
		x, y := a.AsFloat(), b.AsFloat()
		if x < y || x > y {
			return cmp.Compare(x, y), true
		}
		return 0, x == y
	case k == value.Int:
		return cmp.Compare(a.AsInt(), b.AsInt()), true
	case k == value.String || k == value.Bool:
		c, _ := a.Compare(b)
		return c, true
	}
	return 0, false
}

// complement returns g's direct complement if the table holds it (when it
// does not, no child list can contain it): the atom with the negated
// operator, the negated formula of a negation, the negation of anything
// else.
func (in *interner) complement(g *cnode) *cnode {
	c := cnode{kind: nkNot, sub: g}
	switch g.kind {
	case nkAtom:
		c = cnode{kind: nkAtom, op: g.op.Negate(), l: g.l, r: g.r}
	case nkNot:
		return g.sub
	}
	c.hash = c.structHash()
	n, _ := in.findNode(&c)
	return n
}

// mkNot negates a node. Atoms negate into their complementary operator so
// negation never blocks folding.
func (in *interner) mkNot(n *cnode) *cnode {
	switch n.kind {
	case nkTrue:
		return nodeFalse
	case nkFalse:
		return nodeTrue
	case nkNot:
		return n.sub
	case nkAtom:
		neg, err := in.mkAtom(n.op.Negate(), n.l, n.r)
		if err != nil {
			// Negating an existing atom cannot introduce evaluation errors.
			panic(fmt.Sprintf("core: internal: negate atom: %v", err))
		}
		return neg
	default:
		return in.node(&cnode{kind: nkNot, sub: n})
	}
}

// children is an and's or an or's children, or a not's one.
func (n *cnode) children() []*cnode {
	if n.kind == nkNot {
		return []*cnode{n.sub}
	}
	return n.kids
}

// rebuild is n (an and, an or or a not) over the children the caller
// pushed on in.stack from base on, n itself when none changed. It pops
// them.
func (in *interner) rebuild(n *cnode, base int) *cnode {
	kids, out := in.stack[base:], n
	switch {
	case slices.Equal(kids, n.children()):
	case n.kind == nkNot:
		out = in.mkNot(kids[0])
	default:
		out = in.junction(n.kind, kids, true)
	}
	in.stack = in.stack[:base]
	return out
}

// substNode substitutes a constant for a variable throughout the node,
// re-simplifying. A memo table keyed by node pointer keeps the cost
// proportional to the DAG size, not the tree size.
func (in *interner) substNode(n *cnode, name string, v value.Value, memo map[*cnode]*cnode) (*cnode, error) {
	if !n.mentions(name) {
		return n, nil
	}
	if cached, ok := memo[n]; ok {
		return cached, nil
	}
	out := n
	switch n.kind {
	case nkAtom:
		l, err := in.substTerm(n.l, name, v)
		if err != nil {
			return nil, err
		}
		r, err := in.substTerm(n.r, name, v)
		if err != nil {
			return nil, err
		}
		if l != n.l || r != n.r {
			if out, err = in.mkAtom(n.op, l, r); err != nil {
				return nil, err
			}
		}
	case nkMember:
		elems := make([]*cterm, len(n.elems))
		for i, e := range n.elems {
			ne, err := in.substTerm(e, name, v)
			if err != nil {
				return nil, err
			}
			elems[i] = ne
		}
		rel, err := in.substTerm(n.rel, name, v)
		if err != nil {
			return nil, err
		}
		if rel != n.rel || !slices.Equal(elems, n.elems) {
			if out, err = in.mkMember(elems, rel); err != nil {
				return nil, err
			}
		}
	case nkAnd, nkOr, nkNot:
		base := len(in.stack)
		for _, k := range n.children() {
			nk, err := in.substNode(k, name, v, memo)
			if err != nil {
				in.stack = in.stack[:base]
				return nil, err
			}
			in.stack = append(in.stack, nk)
		}
		out = in.rebuild(n, base)
	}
	memo[n] = out
	return out, nil
}

// evalNode evaluates the node under a complete assignment. Comparison
// errors (e.g. ordering a string against an int) surface as errors.
func evalNode(n *cnode, env map[string]value.Value) (bool, error) { return evaluate(n, env, nil) }

// evaluate is evalNode when memo is nil. With a memo it is the fire
// check's evaluation, without evalNode's short circuits: every atom below n
// is evaluated, and a membership's elements before its relation, so it
// meets every error a substitution of n's variables can meet, and more. A
// membership with a Null element is false, as the substitution's equality
// atoms make it (evalNode's tuple equality has Null equal Null). An
// and/or's verdict is memoized, and the caller empties the memo.
func evaluate(n *cnode, env map[string]value.Value, memo map[*cnode]bool) (bool, error) {
	switch n.kind {
	case nkTrue, nkFalse:
		return n == nodeTrue, nil
	case nkAtom:
		l, err := n.l.eval(env)
		if err != nil {
			return false, err
		}
		r, err := n.r.eval(env)
		if err != nil || l.IsNull() || r.IsNull() {
			return false, err
		}
		return value.Cmp(n.op, l, r)
	case nkMember:
		elems := make([]value.Value, len(n.elems))
		for i := 0; memo != nil && i < len(elems); i++ {
			if _, err := n.elems[i].eval(env); err != nil {
				return false, err
			}
		}
		rel, err := n.rel.eval(env)
		if err != nil || rel.IsNull() {
			return false, err
		}
		if err := expandCheck(rel, len(elems)); err != nil && (memo != nil || rel.Kind() != value.Relation) {
			return false, err
		}
		for i, e := range n.elems {
			if elems[i], err = e.eval(env); err != nil {
				return false, err
			}
		}
		if memo != nil && slices.ContainsFunc(elems, value.Value.IsNull) {
			return false, nil
		}
		want := value.NewTuple(elems...)
		for _, row := range rel.Rows() {
			if value.NewTuple(row...).Equal(want) {
				return true, nil
			}
		}
		return false, nil
	case nkAnd, nkOr:
		if b, ok := memo[n]; ok {
			return b, nil
		}
		b := n.kind == nkAnd
		for _, k := range n.kids {
			kb, err := evaluate(k, env, memo)
			if err != nil {
				return false, err
			}
			if kb != (n.kind == nkAnd) {
				if b = kb; memo == nil {
					break
				}
			}
		}
		if memo != nil {
			memo[n] = b
		}
		return b, nil
	case nkNot:
		b, err := evaluate(n.sub, env, memo)
		return !b, err
	}
	return false, fmt.Errorf("core: unknown node kind %d", n.kind)
}

// timeBoundPrune implements the Section-5 optimization: for a variable t
// known to always be substituted with the current time (which is
// nondecreasing), an upper-bound clause like t <= c can never be satisfied
// again once now > c, so it folds to false; dually a lower-bound clause
// t >= c is permanently satisfied once now >= c and folds to true. The
// memo is keyed by node pointer and is valid for one value of now.
func (in *interner) timeBoundPrune(n *cnode, now int64, timeVars map[string]bool, memo map[*cnode]*cnode) *cnode {
	if len(timeVars) == 0 || !n.mentionsAny(timeVars) {
		return n
	}
	if n.kind == nkAtom || n.kind == nkMember {
		return pruneAtom(n, now, timeVars)
	}
	if cached, ok := memo[n]; ok {
		return cached
	}
	base := len(in.stack)
	for _, k := range n.children() {
		nk := in.timeBoundPrune(k, now, timeVars, memo)
		in.stack = append(in.stack, nk)
	}
	out := in.rebuild(n, base)
	memo[n] = out
	return out
}

// pruneAtom is timeBoundPrune's verdict on one atom.
func pruneAtom(n *cnode, now int64, timeVars map[string]bool) *cnode {
	_, c, op, ok := varConstAtom(n, timeVars)
	if !ok {
		return n
	}
	// Compared as values, not float64s: on a nanosecond clock now and c are
	// integers float64 cannot tell from their neighbours.
	past, _ := value.NewInt(now).Compare(c)
	switch {
	case (op == value.LE || op == value.EQ) && past > 0, op == value.LT && past >= 0:
		return nodeFalse
	case op == value.GE && past >= 0, (op == value.GT || op == value.NE) && past > 0:
		return nodeTrue
	}
	return n
}

// linearPart is the decomposition of a constraint term as sign*var +
// offset where sign is 0 (no variable), +1 or -1. The offset is a numeric
// Value so integer bounds stay exact (value.Arith keeps Int op Int an Int).
type linearPart struct {
	varName string
	sign    int
	offset  value.Value
}

// decomposeLinear writes the term as sign*var + offset when it has that
// shape (additive chains with at most one variable of unit coefficient).
func decomposeLinear(t *cterm) (linearPart, bool) {
	switch t.kind {
	case ctConst:
		if !t.v.IsNumeric() {
			return linearPart{}, false
		}
		return linearPart{offset: t.v}, true
	case ctVar:
		return linearPart{varName: t.name, sign: 1, offset: value.NewInt(0)}, true
	case ctArith:
		if t.op != value.Add && t.op != value.Sub {
			return linearPart{}, false
		}
		l, ok := decomposeLinear(t.l)
		if !ok {
			return linearPart{}, false
		}
		r, ok := decomposeLinear(t.r)
		if !ok {
			return linearPart{}, false
		}
		if t.op == value.Sub {
			r.sign = -r.sign
		}
		if l.sign != 0 && r.sign != 0 {
			return linearPart{}, false // two variable occurrences
		}
		// Add or Sub of two numerics cannot fail.
		off, _ := value.Arith(t.op, l.offset, r.offset)
		out := linearPart{varName: l.varName, sign: l.sign, offset: off}
		if r.sign != 0 {
			out.varName, out.sign = r.varName, r.sign
		}
		return out, true
	default:
		return linearPart{}, false
	}
}

// varConstAtom normalizes atoms whose two sides are linear in a single
// time-anchored variable into the form `var OP const`. The desugared
// bounded operators produce shapes like time_j >= t - 10, which normalize
// to t <= time_j + 10 — exactly the clauses the Section-5 optimization
// folds.
func varConstAtom(n *cnode, timeVars map[string]bool) (string, value.Value, value.CmpOp, bool) {
	if n.kind != nkAtom {
		return "", value.Value{}, 0, false
	}
	l, ok := decomposeLinear(n.l)
	if !ok {
		return "", value.Value{}, 0, false
	}
	r, ok := decomposeLinear(n.r)
	if !ok {
		return "", value.Value{}, 0, false
	}
	// Move the variable to the left: sign*v + l.offset OP r.offset.
	op := n.op
	switch {
	case l.sign != 0 && r.sign == 0:
	case l.sign == 0 && r.sign != 0:
		l, r = r, l
		op = op.Flip()
	default:
		return "", value.Value{}, 0, false
	}
	if !timeVars[l.varName] {
		return "", value.Value{}, 0, false
	}
	// sign*v OP r.offset - l.offset; divide by sign (flip on -1).
	hi, lo := r.offset, l.offset
	if l.sign < 0 {
		hi, lo = lo, hi
		op = op.Flip()
	}
	c, _ := value.Arith(value.Sub, hi, lo)
	return l.varName, c, op, true
}

// collectCandidates gathers, for every variable, the constant values it is
// equated with anywhere in the node. Rule parameters take their values
// from these active-domain candidates (event parameters, executed records
// and relation members all surface as equalities).
func collectCandidates(n *cnode, out map[string]map[string]value.Value) {
	switch n.kind {
	case nkAtom:
		if n.op != value.EQ {
			return
		}
		if n.l.kind == ctVar && n.r.kind == ctConst {
			addCandidate(out, n.l.name, n.r.v)
		}
		if n.r.kind == ctVar && n.l.kind == ctConst {
			addCandidate(out, n.r.name, n.l.v)
		}
	case nkAnd, nkOr:
		for _, k := range n.kids {
			collectCandidates(k, out)
		}
	case nkNot:
		collectCandidates(n.sub, out)
	}
}

func addCandidate(out map[string]map[string]value.Value, name string, v value.Value) {
	m, ok := out[name]
	if !ok {
		m = make(map[string]value.Value)
		out[name] = m
	}
	m[v.Key()] = v
}

// nodeSize counts the distinct nodes reachable from n — the state-size
// metric reported by the evaluator (E2, E7).
func nodeSize(n *cnode, seen map[*cnode]struct{}) int {
	if _, ok := seen[n]; ok {
		return 0
	}
	seen[n] = struct{}{}
	total := 1
	switch n.kind {
	case nkAnd, nkOr:
		for _, k := range n.kids {
			total += nodeSize(k, seen)
		}
	case nkNot:
		total += nodeSize(n.sub, seen)
	}
	return total
}

// String renders a constraint formula for diagnostics.
func (n *cnode) String() string {
	switch n.kind {
	case nkTrue:
		return "true"
	case nkFalse:
		return "false"
	case nkAtom:
		return fmt.Sprintf("%s %s %s", n.l, n.op, n.r)
	case nkMember:
		parts := make([]string, len(n.elems))
		for i, e := range n.elems {
			parts[i] = e.String()
		}
		return "(" + strings.Join(parts, ", ") + ") in " + n.rel.String()
	case nkAnd, nkOr:
		sep := " and "
		if n.kind == nkOr {
			sep = " or "
		}
		parts := make([]string, len(n.kids))
		for i, k := range n.kids {
			parts[i] = k.String()
		}
		return "(" + strings.Join(parts, sep) + ")"
	case nkNot:
		return "not (" + n.sub.String() + ")"
	default:
		return "?"
	}
}

// divByZero reports a division or modulo with a zero right operand; in
// formula evaluation it yields the undefined value (its atom becomes
// false) instead of an error, consistently with empty aggregates.
func divByZero(op value.ArithOp, r value.Value) bool {
	if op != value.Div && op != value.Mod {
		return false
	}
	return r.IsNumeric() && r.AsFloat() == 0
}
