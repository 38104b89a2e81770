package core

import (
	"math"
	"slices"

	"ptlactive/internal/value"
)

// Hash-consing for constraint terms and nodes. Each general Evaluator
// builds every term and node through an interner of its own, so equal ones
// it meets are one pointer, and memos and dedup by pointer are exact. The
// key is structural, never a printed string: a constant's value.Value (its
// exact representation, so arithmetic folded over a shared constant sees
// the value the query returned), a variable's name, operator and operands,
// a junction's flattened children, a negation's child. Entries sit at the
// first free key from their structural hash; a hit allocates nothing.
//
// The table holds what the evaluator's registers and Mark record reach,
// plus what it built since it was seeded from them: on its first step after
// New, Clone or RestoreEvaluatorState, and whenever it has grown past
// internGrowth times that plus internFloor, so it stays O(live state).
// Nodes are immutable and shared between evaluators; tables are not, so no
// lock is taken and core keeps no package-level state.
type interner struct {
	terms map[uint64]*cterm
	nodes map[uint64]*cnode
	limit int

	subsume bool // mkOr's subsumption: the evaluator's optimize, off when decoding a snapshot

	// Scratch reused from step to step.
	flat      []*cnode        // mkAnd/mkOr's child list
	seen      map[*cnode]bool // its members and the subsumed, emptied when it is done
	gone      []*cnode        // the subsumed
	fresh     []int           // indices in flat of the ordering disjuncts not from junction's last kid
	stack     []*cnode        // rebuilt children in substNode/timeBoundPrune
	pruneMemo map[*cnode]*cnode
	substMemo map[*cnode]*cnode
	evalMemo  map[*cnode]bool
	env       map[string]value.Value
	names     []string      // fire's top-level assignments
	vals      []value.Value // and the values they bind
	varBuf    []string
	varLists  [][]string // union's merged lists, kept across reseeds
}

const (
	internGrowth = 2
	internFloor  = 64
)

func newInterner() *interner {
	return &interner{terms: map[uint64]*cterm{}, nodes: map[uint64]*cnode{}, seen: map[*cnode]bool{},
		pruneMemo: map[*cnode]*cnode{}, substMemo: map[*cnode]*cnode{}, evalMemo: map[*cnode]bool{},
		env: map[string]value.Value{}}
}

// reseed (re)creates e's table from the nodes reachable from its registers
// and its Mark record, and bounds it by what that is.
func (e *Evaluator) reseed() {
	if e.tab == nil {
		e.tab = newInterner()
	}
	in := e.tab
	in.subsume = e.optimize
	clear(in.terms)
	clear(in.nodes)
	for _, n := range e.sincePrev {
		in.seedNode(n)
	}
	for _, n := range e.lastPrev {
		in.seedNode(n)
	}
	if u := e.undo; u != nil {
		for _, n := range u.since {
			in.seedNode(n)
		}
		for _, n := range u.last {
			in.seedNode(n)
		}
	}
	in.limit = internGrowth*(len(in.terms)+len(in.nodes)) + internFloor
}

// seedNode enters n and what it reaches; a field a kind does not use is nil.
func (in *interner) seedNode(n *cnode) {
	if got, k := in.findNode(n); got == nil && n.kind != nkTrue && n.kind != nkFalse {
		in.nodes[k] = n
		for _, t := range [...]*cterm{n.l, n.r, n.rel} {
			in.seedTerm(t)
		}
		for _, t := range n.elems {
			in.seedTerm(t)
		}
		for _, c := range n.kids {
			in.seedNode(c)
		}
		if n.sub != nil {
			in.seedNode(n.sub)
		}
	}
}

func (in *interner) seedTerm(t *cterm) {
	if t == nil {
		return
	}
	if got, k := in.findTerm(t); got == nil {
		in.terms[k] = t
		in.seedTerm(t.l)
		in.seedTerm(t.r)
	}
}

// findTerm returns the table's term equal to c, or nil and the key a new
// one goes under. c.hash must be set.
func (in *interner) findTerm(c *cterm) (*cterm, uint64) {
	k := c.hash
	for t, ok := in.terms[k]; ok; t, ok = in.terms[k] {
		if t.kind == c.kind && t.v == c.v && t.name == c.name && t.op == c.op && t.l == c.l && t.r == c.r {
			return t, k
		}
		k++
	}
	return nil, k
}

// term returns the canonical term with c's structure, copying c into the
// table on a miss.
func (in *interner) term(c cterm) *cterm {
	c.hash = c.structHash()
	t, k := in.findTerm(&c)
	if t == nil {
		t = new(cterm)
		*t = c
		if t.kind == ctVar {
			t.vars = []string{t.name}
		} else if t.kind == ctArith {
			t.vars = in.union(t.l.vars, t.r.vars)
		}
		in.terms[k] = t
	}
	return t
}

// findNode returns the table's node equal to c, or nil and the key a new
// one goes under. c.hash must be set.
func (in *interner) findNode(c *cnode) (*cnode, uint64) {
	k := c.hash
	for n, ok := in.nodes[k]; ok; n, ok = in.nodes[k] {
		if n.kind == c.kind && n.op == c.op && n.l == c.l && n.r == c.r && n.rel == c.rel && n.sub == c.sub &&
			slices.Equal(n.kids, c.kids) && slices.Equal(n.elems, c.elems) {
			return n, k
		}
		k++
	}
	return nil, k
}

// node returns the canonical node with c's structure, copying c and its
// child lists (which may be scratch) into the table on a miss.
func (in *interner) node(c *cnode) *cnode {
	c.hash = c.structHash()
	n, k := in.findNode(c)
	if n == nil {
		n = new(cnode)
		*n = *c
		n.kids, n.elems = slices.Clone(n.kids), slices.Clone(n.elems)
		for _, t := range [...]*cterm{n.l, n.r, n.rel} {
			if t != nil {
				n.vars = in.union(n.vars, t.vars)
			}
		}
		for _, t := range n.elems {
			n.vars = in.union(n.vars, t.vars)
		}
		for _, c := range n.kids {
			n.vars = in.union(n.vars, c.vars)
		}
		if n.sub != nil {
			n.vars = n.sub.vars
		}
		in.nodes[k] = n
	}
	return n
}

// mix folds x into the hash h.
func mix(h, x uint64) uint64 {
	h = (h ^ x) * 0x100000001b3
	return h ^ h>>29
}

func strHash(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return mix(h, uint64(len(s)))
}

// structHash hashes what findTerm compares. Tuples and relations, which a
// Value compares by payload pointer, hash by kind alone.
func (t *cterm) structHash() uint64 {
	h := mix(mix(uint64(t.kind), uint64(t.op)), uint64(t.v.Kind()))
	switch {
	case t.kind == ctVar:
		h = strHash(h, t.name)
	case t.kind == ctArith:
		h = mix(mix(h, t.l.hash), t.r.hash)
	case t.v.Kind() == value.Bool && t.v.AsBool():
		h = mix(h, 1)
	case t.v.Kind() == value.Int:
		h = mix(h, uint64(t.v.AsInt()))
	case t.v.Kind() == value.Float:
		h = mix(h, math.Float64bits(t.v.AsFloat()))
	case t.v.Kind() == value.String:
		h = strHash(h, t.v.AsString())
	}
	return h
}

// structHash hashes what findNode compares.
func (n *cnode) structHash() uint64 {
	h := mix(uint64(n.kind), uint64(n.op))
	for _, t := range [...]*cterm{n.l, n.r, n.rel} {
		if t != nil {
			h = mix(h, t.hash)
		}
	}
	for _, t := range n.elems {
		h = mix(h, t.hash)
	}
	for _, c := range n.kids {
		h = mix(h, c.hash)
	}
	if n.sub != nil {
		h = mix(h, n.sub.hash)
	}
	return h
}

// union merges two sorted, deduplicated variable-name lists. The result is
// a or b when one holds the other — in the graphs the recurrences build,
// nearly always — or else a list the table handed out before, so a new
// node rarely costs a list of its own.
func (in *interner) union(a, b []string) []string {
	if len(b) == 0 || slices.Equal(a, b) {
		return a
	} else if len(a) == 0 {
		return b
	}
	buf := append(append(in.varBuf[:0], a...), b...)
	slices.Sort(buf)
	in.varBuf = slices.Compact(buf)
	switch {
	case slices.Equal(in.varBuf, a):
		return a
	case slices.Equal(in.varBuf, b):
		return b
	}
	for _, l := range in.varLists {
		if slices.Equal(l, in.varBuf) {
			return l
		}
	}
	l := slices.Clone(in.varBuf)
	in.varLists = append(in.varLists, l)
	return l
}

// subst is substNode with the table's memo, which it leaves empty.
func (in *interner) subst(n *cnode, name string, v value.Value) (*cnode, error) {
	out, err := in.substNode(n, name, v, in.substMemo)
	clear(in.substMemo)
	return out, err
}

// mentions reports whether the node's formula mentions the variable, via
// binary search over the sorted vars list. It lets substNode and
// timeBoundPrune skip whole sub-DAGs without touching their memo tables.
func (n *cnode) mentions(name string) bool {
	_, found := slices.BinarySearch(n.vars, name)
	return found
}

// mentionsAny reports whether any of the node's variables is in set.
func (n *cnode) mentionsAny(set map[string]bool) bool {
	for _, v := range n.vars {
		if set[v] {
			return true
		}
	}
	return false
}
