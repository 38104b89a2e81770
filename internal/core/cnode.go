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
// aggressive simplification, and the time-bound optimization folds dead
// clauses over time-anchored variables to false, which bounds the state
// kept for bounded operators.
//
// This file implements the constraint-formula representation: immutable
// nodes (true/false, comparison atoms, and/or/not) over constraint terms
// (constants, variables, arithmetic), with construction-time
// simplification, substitution, pruning, evaluation and candidate
// extraction.
package core

import (
	"fmt"
	"strconv"
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
// symbolic by an enclosing assignment, or arithmetic over those.
type cterm struct {
	kind ctKind
	v    value.Value   // ctConst
	name string        // ctVar
	op   value.ArithOp // ctArith
	l, r *cterm        // ctArith
	key  string
	vars []string // sorted distinct variable names, nil when ground
}

func constTerm(v value.Value) *cterm {
	return &cterm{kind: ctConst, v: v, key: "c" + v.Key()}
}

func varTerm(name string) *cterm {
	return &cterm{kind: ctVar, name: name, key: "v" + name + ";", vars: []string{name}}
}

// arithTerm builds an arithmetic term, folding when both sides are
// constant. Arithmetic over an undefined (Null) constant yields Null,
// implementing "undefined aggregate values propagate" (see package naive).
func arithTerm(op value.ArithOp, l, r *cterm) (*cterm, error) {
	if l.kind == ctConst && r.kind == ctConst {
		if l.v.IsNull() || r.v.IsNull() || divByZero(op, r.v) {
			return constTerm(value.Value{}), nil
		}
		v, err := value.Arith(op, l.v, r.v)
		if err != nil {
			return nil, err
		}
		return constTerm(v), nil
	}
	return &cterm{kind: ctArith, op: op, l: l, r: r,
		key:  "a" + op.String() + "(" + l.key + r.key + ")",
		vars: mergeVars(l.vars, r.vars)}, nil
}

// hasVar reports whether the term mentions any variable.
func (t *cterm) hasVar() bool {
	switch t.kind {
	case ctVar:
		return true
	case ctArith:
		return t.l.hasVar() || t.r.hasVar()
	default:
		return false
	}
}

// subst replaces a variable with a constant value, folding arithmetic.
func (t *cterm) subst(name string, v value.Value) (*cterm, error) {
	switch t.kind {
	case ctConst:
		return t, nil
	case ctVar:
		if t.name == name {
			return constTerm(v), nil
		}
		return t, nil
	case ctArith:
		l, err := t.l.subst(name, v)
		if err != nil {
			return nil, err
		}
		r, err := t.r.subst(name, v)
		if err != nil {
			return nil, err
		}
		if l == t.l && r == t.r {
			return t, nil
		}
		return arithTerm(t.op, l, r)
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
// graph", Section 5). Construction is hash-consed through the process-wide
// intern table (intern.go): structurally equal formulas are one pointer,
// which makes pointer-keyed memoization effective across rules and lets
// and/or keys use compact node ids instead of concatenated subtree keys.
type cnode struct {
	kind  nodeKind
	op    value.CmpOp // nkAtom
	l, r  *cterm      // nkAtom
	elems []*cterm    // nkMember tuple elements
	rel   *cterm      // nkMember relation term
	kids  []*cnode    // nkAnd, nkOr (flattened, deduplicated)
	sub   *cnode      // nkNot
	key   string
	id    uint64   // interner-assigned, unique per live node
	vars  []string // sorted distinct variable names, nil when ground
}

var (
	nodeTrue  = &cnode{kind: nkTrue, key: "T", id: 1}
	nodeFalse = &cnode{kind: nkFalse, key: "F", id: 2}
)

func nodeBool(b bool) *cnode {
	if b {
		return nodeTrue
	}
	return nodeFalse
}

// mkAtom builds a comparison atom, folding to a constant when both sides
// are ground. A Null (undefined) side makes the atom false.
func mkAtom(op value.CmpOp, l, r *cterm) (*cnode, error) {
	if !l.hasVar() && !r.hasVar() {
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
	key := "@" + op.String() + "(" + l.key + r.key + ")"
	return internNode(key, func() *cnode {
		return &cnode{kind: nkAtom, op: op, l: l, r: r,
			vars: mergeVars(l.vars, r.vars)}
	}), nil
}

// mkMember builds a membership atom (elems) in rel. When the relation
// side is a constant it expands into the disjunction over rows of
// element-equality conjunctions — membership is how relation-valued
// bindings (the paper's auxiliary relations R_x) surface as equality
// constraints that bind rule parameters. While the relation is still
// symbolic (bound by an enclosing assignment under a temporal operator)
// the atom is kept as-is and expands upon substitution.
func mkMember(elems []*cterm, rel *cterm) (*cnode, error) {
	if rel.kind == ctConst {
		if rel.v.IsNull() {
			return nodeFalse, nil
		}
		if rel.v.Kind() != value.Relation {
			return nil, fmt.Errorf("core: membership in %s, want relation", rel.v.Kind())
		}
		rows := rel.v.Rows()
		if len(rows)*len(elems) > memberExpandLimit {
			return nil, fmt.Errorf("core: membership expansion of %d rows x %d elements exceeds limit %d",
				len(rows), len(elems), memberExpandLimit)
		}
		disjuncts := make([]*cnode, 0, len(rows))
		for _, row := range rows {
			if len(row) != len(elems) {
				continue // arity mismatch cannot match
			}
			conj := make([]*cnode, len(elems))
			for k := range elems {
				a, err := mkAtom(value.EQ, elems[k], constTerm(row[k]))
				if err != nil {
					return nil, err
				}
				conj[k] = a
			}
			disjuncts = append(disjuncts, mkAnd(conj...))
		}
		return mkOr(disjuncts...), nil
	}
	var sb strings.Builder
	sb.WriteString("m(")
	for _, e := range elems {
		sb.WriteString(e.key)
	}
	sb.WriteString(":")
	sb.WriteString(rel.key)
	sb.WriteString(")")
	return internNode(sb.String(), func() *cnode {
		lists := make([][]string, 0, len(elems)+1)
		for _, e := range elems {
			lists = append(lists, e.vars)
		}
		lists = append(lists, rel.vars)
		return &cnode{kind: nkMember, elems: elems, rel: rel, vars: mergeVars(lists...)}
	}), nil
}

// mkAnd conjoins nodes with flattening, constant folding, deduplication
// and complementary-pair detection.
func mkAnd(kids ...*cnode) *cnode {
	flat := make([]*cnode, 0, len(kids))
	seen := make(map[string]struct{}, len(kids))
	var add func(n *cnode) bool // returns false if the whole AND is false
	add = func(n *cnode) bool {
		switch n.kind {
		case nkTrue:
			return true
		case nkFalse:
			return false
		case nkAnd:
			for _, k := range n.kids {
				if !add(k) {
					return false
				}
			}
			return true
		default:
			if _, dup := seen[n.key]; dup {
				return true
			}
			if _, comp := seen[complementKey(n)]; comp {
				return false
			}
			seen[n.key] = struct{}{}
			flat = append(flat, n)
			return true
		}
	}
	for _, k := range kids {
		if !add(k) {
			return nodeFalse
		}
	}
	switch len(flat) {
	case 0:
		return nodeTrue
	case 1:
		return flat[0]
	}
	return internNode(junctionKey('&', flat), func() *cnode {
		return &cnode{kind: nkAnd, kids: flat, vars: kidVars(flat)}
	})
}

// mkOr disjoins nodes, dual to mkAnd.
func mkOr(kids ...*cnode) *cnode {
	flat := make([]*cnode, 0, len(kids))
	seen := make(map[string]struct{}, len(kids))
	var add func(n *cnode) bool // returns false if the whole OR is true
	add = func(n *cnode) bool {
		switch n.kind {
		case nkFalse:
			return true
		case nkTrue:
			return false
		case nkOr:
			for _, k := range n.kids {
				if !add(k) {
					return false
				}
			}
			return true
		default:
			if _, dup := seen[n.key]; dup {
				return true
			}
			if _, comp := seen[complementKey(n)]; comp {
				return false
			}
			seen[n.key] = struct{}{}
			flat = append(flat, n)
			return true
		}
	}
	for _, k := range kids {
		if !add(k) {
			return nodeTrue
		}
	}
	switch len(flat) {
	case 0:
		return nodeFalse
	case 1:
		return flat[0]
	}
	return internNode(junctionKey('|', flat), func() *cnode {
		return &cnode{kind: nkOr, kids: flat, vars: kidVars(flat)}
	})
}

// mkNot negates a node. Atoms negate into their complementary operator so
// negation never blocks folding.
func mkNot(n *cnode) *cnode {
	switch n.kind {
	case nkTrue:
		return nodeFalse
	case nkFalse:
		return nodeTrue
	case nkNot:
		return n.sub
	case nkAtom:
		neg, err := mkAtom(n.op.Negate(), n.l, n.r)
		if err != nil {
			// Negating an existing atom cannot introduce evaluation errors.
			panic(fmt.Sprintf("core: internal: negate atom: %v", err))
		}
		return neg
	default:
		return internNode(notKey(n), func() *cnode {
			return &cnode{kind: nkNot, sub: n, vars: n.vars}
		})
	}
}

// complementKey returns the key of a node's direct complement, for
// contradiction/tautology detection inside mkAnd/mkOr.
func complementKey(n *cnode) string {
	switch n.kind {
	case nkAtom:
		return "@" + n.op.Negate().String() + "(" + n.l.key + n.r.key + ")"
	case nkNot:
		return n.sub.key
	default:
		return notKey(n)
	}
}

// junctionKey builds an and/or intern key from the children's interner
// ids. Children are interned before parents, so structurally equal child
// lists yield identical keys within an intern epoch, at O(#kids) cost
// instead of the O(subtree) churn of concatenating full child keys.
func junctionKey(tag byte, kids []*cnode) string {
	var sb strings.Builder
	sb.Grow(3 + len(kids)*8)
	sb.WriteByte(tag)
	sb.WriteByte('(')
	for i, k := range kids {
		if i > 0 {
			sb.WriteByte('.')
		}
		sb.WriteString(strconv.FormatUint(k.id, 10))
	}
	sb.WriteByte(')')
	return sb.String()
}

// notKey is the intern key of the negation of n; complementKey relies on
// the two producing the same string.
func notKey(n *cnode) string {
	return "!" + strconv.FormatUint(n.id, 10)
}

// kidVars merges the variable lists of the children.
func kidVars(kids []*cnode) []string {
	lists := make([][]string, len(kids))
	for i, k := range kids {
		lists[i] = k.vars
	}
	return mergeVars(lists...)
}

// substNode substitutes a constant for a variable throughout the node,
// re-simplifying. A memo table keyed by node pointer keeps the cost
// proportional to the DAG size, not the tree size.
func substNode(n *cnode, name string, v value.Value, memo map[*cnode]*cnode) (*cnode, error) {
	if !n.mentions(name) {
		return n, nil
	}
	if cached, ok := memo[n]; ok {
		return cached, nil
	}
	var out *cnode
	var err error
	switch n.kind {
	case nkTrue, nkFalse:
		out = n
	case nkAtom:
		l, lerr := n.l.subst(name, v)
		if lerr != nil {
			return nil, lerr
		}
		r, rerr := n.r.subst(name, v)
		if rerr != nil {
			return nil, rerr
		}
		if l == n.l && r == n.r {
			out = n
		} else {
			out, err = mkAtom(n.op, l, r)
			if err != nil {
				return nil, err
			}
		}
	case nkMember:
		elems := make([]*cterm, len(n.elems))
		changed := false
		for i, e := range n.elems {
			ne, eerr := e.subst(name, v)
			if eerr != nil {
				return nil, eerr
			}
			elems[i] = ne
			if ne != e {
				changed = true
			}
		}
		rel, rerr := n.rel.subst(name, v)
		if rerr != nil {
			return nil, rerr
		}
		if !changed && rel == n.rel {
			out = n
		} else {
			out, err = mkMember(elems, rel)
			if err != nil {
				return nil, err
			}
		}
	case nkAnd, nkOr:
		kids := make([]*cnode, len(n.kids))
		changed := false
		for i, k := range n.kids {
			nk, kerr := substNode(k, name, v, memo)
			if kerr != nil {
				return nil, kerr
			}
			kids[i] = nk
			if nk != k {
				changed = true
			}
		}
		if !changed {
			out = n
		} else if n.kind == nkAnd {
			out = mkAnd(kids...)
		} else {
			out = mkOr(kids...)
		}
	case nkNot:
		s, serr := substNode(n.sub, name, v, memo)
		if serr != nil {
			return nil, serr
		}
		if s == n.sub {
			out = n
		} else {
			out = mkNot(s)
		}
	default:
		return nil, fmt.Errorf("core: unknown node kind %d", n.kind)
	}
	memo[n] = out
	return out, nil
}

// evalNode evaluates the node under a complete assignment. Comparison
// errors (e.g. ordering a string against an int) surface as errors.
func evalNode(n *cnode, env map[string]value.Value) (bool, error) {
	switch n.kind {
	case nkTrue:
		return true, nil
	case nkFalse:
		return false, nil
	case nkAtom:
		l, err := n.l.eval(env)
		if err != nil {
			return false, err
		}
		r, err := n.r.eval(env)
		if err != nil {
			return false, err
		}
		if l.IsNull() || r.IsNull() {
			return false, nil
		}
		return value.Cmp(n.op, l, r)
	case nkMember:
		rel, err := n.rel.eval(env)
		if err != nil {
			return false, err
		}
		if rel.IsNull() {
			return false, nil
		}
		if rel.Kind() != value.Relation {
			return false, fmt.Errorf("core: membership in %s, want relation", rel.Kind())
		}
		elems := make([]value.Value, len(n.elems))
		for i, e := range n.elems {
			v, err := e.eval(env)
			if err != nil {
				return false, err
			}
			elems[i] = v
		}
		want := value.NewTuple(elems...)
		for _, row := range rel.Rows() {
			if value.NewTuple(row...).Equal(want) {
				return true, nil
			}
		}
		return false, nil
	case nkAnd:
		for _, k := range n.kids {
			b, err := evalNode(k, env)
			if err != nil || !b {
				return false, err
			}
		}
		return true, nil
	case nkOr:
		for _, k := range n.kids {
			b, err := evalNode(k, env)
			if err != nil {
				return false, err
			}
			if b {
				return true, nil
			}
		}
		return false, nil
	case nkNot:
		b, err := evalNode(n.sub, env)
		return !b, err
	default:
		return false, fmt.Errorf("core: unknown node kind %d", n.kind)
	}
}

// timeBoundPrune implements the Section-5 optimization: for a variable t
// known to always be substituted with the current time (which is
// nondecreasing), an upper-bound clause like t <= c can never be satisfied
// again once now > c, so it folds to false; dually a lower-bound clause
// t >= c is permanently satisfied once now >= c and folds to true. The
// memo is keyed by node pointer and is valid for one value of now.
func timeBoundPrune(n *cnode, now int64, timeVars map[string]bool, memo map[*cnode]*cnode) *cnode {
	if len(timeVars) == 0 || !n.mentionsAny(timeVars) {
		return n
	}
	if cached, ok := memo[n]; ok {
		return cached
	}
	out := n
	switch n.kind {
	case nkAtom:
		if _, c, op, ok := varConstAtom(n, timeVars); ok {
			// Compared as values, not float64s: on a nanosecond clock now and
			// c are integers float64 cannot tell from their neighbours.
			past, _ := value.NewInt(now).Compare(c)
			switch op {
			case value.LE, value.EQ:
				if past > 0 {
					out = nodeFalse
				}
			case value.LT:
				if past >= 0 {
					out = nodeFalse
				}
			case value.GE:
				if past >= 0 {
					out = nodeTrue
				}
			case value.GT, value.NE:
				if past > 0 {
					out = nodeTrue
				}
			}
		}
	case nkAnd, nkOr:
		kids := make([]*cnode, len(n.kids))
		changed := false
		for i, k := range n.kids {
			nk := timeBoundPrune(k, now, timeVars, memo)
			kids[i] = nk
			if nk != k {
				changed = true
			}
		}
		if changed {
			if n.kind == nkAnd {
				out = mkAnd(kids...)
			} else {
				out = mkOr(kids...)
			}
		}
	case nkNot:
		s := timeBoundPrune(n.sub, now, timeVars, memo)
		if s != n.sub {
			out = mkNot(s)
		}
	}
	memo[n] = out
	return out
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
