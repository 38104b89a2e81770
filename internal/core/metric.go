package core

import (
	"cmp"
	"math"
	"slices"

	"ptlactive/internal/ptl"
	"ptlactive/internal/value"
)

// The classes of inner values a frontier keeps apart. Numbers, strings and
// booleans order among themselves, so each class keeps a monotone run;
// tuples and relations are kept as met, and Null, which satisfies no
// comparison, only marks an instant that is live.
const (
	numClass = iota
	strClass
	boolClass
	otherClass
	nullClass
	nClasses
)

func classOf(v value.Value) int {
	switch v.Kind() {
	case value.Null:
		return nullClass
	case value.Int, value.Float:
		return numClass
	case value.String:
		return strClass
	case value.Bool:
		return boolClass
	}
	return otherClass
}

// sample is an instant's time and inner value.
type sample struct {
	t int64
	v value.Value
}

// deque is a run of samples in time order, live from head on.
type deque struct {
	s    []sample
	head int
}

func (d *deque) live() []sample { return d.s[d.head:] }

// metricReg is the register of `g since h` when h holds a Metric
// (ptl.FastShape): S_i, the instants j <= i at which h's other conjuncts
// held with g holding since, is S_{i-1} when g_i holds (else empty) plus i
// when h's other conjuncts hold at i. Under a time bound only the instants
// that pass it at now are live, and time is increasing, so expiry pops the
// front. Without a frontier atom the newest live instant answers: the
// timestamp register. With one, the condition holds when a live instant's
// inner value compares with the outer side's value now, and an instant
// whose value is no better than a later one's can never be the one that
// does: each class keeps the Pareto frontier in (time, value), the newest
// instant at the back and the extreme at the front; without a time bound,
// only those two. So a step is amortised O(1).
//
// These are the clauses the general evaluator retains under the same
// subsumption (DESIGN.md §4.1), and the verdict follows its substitution: a
// clause whose comparison is undefined is false.
type metricReg struct {
	k                 int // the since occurrence's register index
	q                 [nClasses]deque
	op                value.CmpOp // inner op outer
	front             ptl.Formula // the frontier atom, nil for a timestamp register
	bound             value.CmpOp // the time bound's operator, 0 if none
	d                 value.Value // its constant
	innerLeft, bare   bool        // the outer side is a variable: a Null inner value folds the clause away
	conjFront, nAtoms int         // where the frontier atom sits among the metric atoms, and their number
	saved             [nClasses][]sample
	// restamp is 1 + the class the last step entered, 0 if none.
	restamp, undoRestamp int
}

func newMetricReg(m ptl.Metric) *metricReg {
	r := &metricReg{innerLeft: m.InnerLeft}
	for _, f := range m.Conj {
		switch f {
		case m.Front:
			r.front, r.op, r.conjFront = f, m.Front.Op, r.nAtoms
			outer := m.Front.R
			if !r.innerLeft {
				r.op, outer = r.op.Flip(), m.Front.L
			}
			_, r.bare = outer.(*ptl.Var)
		case m.Bound:
			r.bound, r.d = m.Bound.Op, m.Bound.R.(*ptl.Arith).R.(*ptl.Const).V
		default:
			continue
		}
		r.nAtoms++
	}
	return r
}

// step advances S by the instant at now, given g and h's other conjuncts
// there and the inner value. It returns the deadline before which a step
// with the same g, h and value would only re-stamp the instant this one
// entered — pop it (or empty S, when g fails) and enter it again — or
// MinInt64 when it entered the class of tuples and relations, which grows.
func (r *metricReg) step(now int64, g, h bool, v value.Value) int64 {
	if !g {
		for i := range r.q {
			r.q[i] = deque{s: r.q[i].s[:0]}
		}
	}
	c := -1
	if h {
		c = r.push(sample{now, v})
	}
	r.restamp = c + 1
	if r.bound != 0 {
		lim := value.Arith(value.Sub, value.NewInt(now), r.d)
		for i := range r.q {
			d := &r.q[i]
			for d.head < len(d.s) && !value.Cmp(r.bound, value.NewInt(d.s[d.head].t), lim) {
				d.head++
			}
		}
	}
	if g && c == otherClass {
		return math.MinInt64
	}
	return r.deadline()
}

// deadline is the first time at which a live sample but the one a fixed
// step entered fails the time bound as value.Cmp decides it: d after the
// sample under >, one later under >= (ptl admits integer bounds only),
// saturating at MaxInt64, which is never replayed, and MaxInt64 if none.
func (r *metricReg) deadline() int64 {
	until := int64(math.MaxInt64)
	for i := range r.q {
		if live := r.q[i].live(); r.bound != 0 && len(live) > 0 && (i+1 != r.restamp || len(live) > 1) {
			d := r.d.AsInt()
			end := min(live[0].t, math.MaxInt64-d) + d
			if r.bound == value.GE && end < math.MaxInt64 {
				end++
			}
			until = min(until, end)
		}
	}
	return until
}

// push enters a live instant into its class and returns it, -1 if not kept.
func (r *metricReg) push(x sample) int {
	c := nullClass
	if r.front != nil {
		c = classOf(x.v)
	}
	if c == nullClass && r.bare {
		return -1
	}
	d := &r.q[c]
	if 2*d.head > len(d.s) {
		d.s, d.head = append(d.s[:0], d.live()...), 0
	}
	switch c {
	case nullClass:
		d.s, d.head = d.s[:0], 0
	case otherClass:
	default:
		for len(d.s) > d.head && r.rank(d.s[len(d.s)-1].v, x.v) >= 0 {
			d.s = d.s[:len(d.s)-1]
		}
	}
	if d.s = append(d.s, x); r.bound == 0 && c != otherClass && len(d.s)-d.head > 2 {
		d.s = append(d.s[:d.head+1], x)
	}
	return c
}

// rank orders two values of one class by how easily they satisfy the
// frontier atom: negative when a does more easily. A NaN orders equal to
// every number, so it satisfies <= and >= always and < and > never.
func (r *metricReg) rank(a, b value.Value) int {
	nan := func(v value.Value) int {
		if v.Kind() == value.Float && math.IsNaN(v.AsFloat()) {
			return 1
		}
		return 0
	}
	if c := nan(b) - nan(a); c != 0 {
		if r.op == value.LT || r.op == value.GT {
			return -c
		}
		return c
	}
	if nan(a) == 1 {
		return 0
	}
	c, _ := a.Compare(b)
	if r.op == value.GT || r.op == value.GE {
		c = -c
	}
	return c
}

// live reports whether S holds a live instant.
func (r *metricReg) live() bool {
	for i := range r.q {
		if len(r.q[i].live()) > 0 {
			return true
		}
	}
	return false
}

// read decides the frontier atom, inner op outer, against the outer side's
// value b. In a class that orders, the front is the value that satisfies it
// most easily; the others are compared one by one.
func (r *metricReg) read(b value.Value) bool {
	for c := range nullClass {
		live := r.q[c].live()
		if c != otherClass {
			live = live[:min(len(live), 1)]
		}
		for _, x := range live {
			if value.Cmp(r.op, x.v, b) {
				return true
			}
		}
	}
	return false
}

// mark saves the live samples; rollback puts them back.
func (r *metricReg) mark() {
	for i := range r.q {
		r.saved[i] = append(r.saved[i][:0], r.q[i].live()...)
	}
	r.undoRestamp = r.restamp
}

func (r *metricReg) rollback() {
	for i := range r.q {
		r.q[i] = deque{s: append(r.q[i].s[:0], r.saved[i]...)}
	}
	r.restamp = r.undoRestamp
}

// samples lists the live samples in time order.
func (r *metricReg) samples() []sample {
	var out []sample
	for i := range r.q {
		out = append(out, r.q[i].live()...)
	}
	slices.SortFunc(out, func(a, b sample) int { return cmp.Compare(a.t, b.t) })
	return out
}

// adopt takes over the register from the general evaluator's node n for the
// same since, when the node is the or of the clauses it keeps for live
// instants — each the and of the metric atoms, the time bound's holding the
// instant's time and the frontier atom's the inner value — and the register
// is time-bounded, so that those clauses are every frontier sample and the
// newest instant.
func (r *metricReg) adopt(n *cnode) bool {
	if r.bound == 0 && n != nodeFalse {
		return false
	}
	var clauses []*cnode
	switch {
	case n.kind == nkOr:
		clauses = n.kids
	case n != nodeFalse:
		clauses = []*cnode{n}
	}
	var got []sample
	for _, cl := range clauses {
		atoms := []*cnode{cl}
		if cl.kind == nkAnd {
			atoms = cl.kids
		}
		if len(atoms) != r.nAtoms || slices.ContainsFunc(atoms, func(a *cnode) bool { return a.kind != nkAtom }) {
			return false
		}
		var x sample
		for i, a := range atoms {
			front := r.front != nil && i == r.conjFront
			side := a.l
			if front && !r.innerLeft {
				side = a.r
			}
			switch {
			case side.kind != ctConst:
				return false
			case front:
				x.v = side.v
			case side.v.Kind() != value.Int:
				return false
			default:
				x.t = side.v.AsInt()
			}
		}
		got = append(got, x)
	}
	slices.SortFunc(got, func(a, b sample) int { return cmp.Compare(a.t, b.t) })
	for _, x := range got {
		r.push(x)
	}
	return true
}

// metric compiles since occurrence x, whose h holds m, onto a metricReg.
// The step reads g, h's other conjuncts and the inner side, in the order
// the general evaluator builds them; the read, the outer side's value now.
func (c *fastCompiler) metric(x *ptl.Since, m ptl.Metric) fastCond {
	e, r := c.e, newMetricReg(m)
	r.k, e.metrics = c.since[x], append(e.metrics, r)
	var innerT, outerT fastTerm
	if m.Front != nil {
		inner, outer := m.Front.L, m.Front.R
		if !m.InnerLeft {
			inner, outer = outer, inner
		}
		innerT, outerT = c.term(inner), c.term(outer)
	}
	gf := c.cond(x.L)
	conj := make([]fastCond, len(m.Conj))
	for i, f := range m.Conj {
		if f != ptl.Formula(m.Bound) && f != ptl.Formula(m.Front) {
			conj[i] = c.cond(f)
		}
	}
	step := func() error {
		fg, err := gf()
		if err != nil {
			return err
		}
		h, v := true, value.Value{}
		for i, f := range conj {
			var b bool
			switch {
			case f != nil:
				b, err = f()
				h = h && b
			case m.Conj[i] == ptl.Formula(m.Front):
				v, err = innerT()
			}
			if err != nil {
				return err
			}
		}
		e.until = min(e.until, r.step(e.st.TS, fg, h, v))
		return nil
	}
	read := func() (bool, error) {
		if live := r.live(); !live || outerT == nil {
			return live, nil
		}
		b, err := outerT()
		return r.read(b), err
	}
	if e.params == nil {
		return func() (bool, error) {
			if err := step(); err != nil {
				return false, err
			}
			return read()
		}
	}
	e.pre = append(e.pre, step)
	return read
}

// adopt takes over the general evaluator g's state for the same condition
// when the fast registers can hold it: every since and lasttime register a
// constant, but the metric ones, which adopt their clauses, and the
// aggregate machines' formulas alike. It reports whether they could.
func (e *FastEvaluator) adopt(g *Evaluator) bool {
	sinces, lasts := temporalOccurrences(g.info.Normalized)
	if len(sinces) != e.nSince || len(sinces)+len(lasts) != len(e.regs) || len(g.aggOrder) != len(e.aggs) {
		return false
	}
	nodes := append(mapped(sinces, g.sincePrev), mapped(lasts, g.lastPrev)...)
	for _, m := range e.metrics {
		if !m.adopt(nodes[m.k]) {
			return false
		}
		nodes[m.k] = nodeFalse // the boolean register a metric one replaces
	}
	for i, n := range nodes {
		if n != nodeTrue && n != nodeFalse {
			return false
		}
		e.regs[i] = n == nodeTrue
	}
	for i, a := range g.aggOrder {
		ga, fa := g.aggs[a], e.aggs[i]
		if !fa.samp.(*FastEvaluator).adopt(ga.samp.(*Evaluator)) || fa.start != nil && !fa.start.(*FastEvaluator).adopt(ga.start.(*Evaluator)) {
			return false
		}
		samples, times := ga.live()
		fa.started, fa.sum, fa.count = ga.started, ga.sum, ga.count
		fa.samples, fa.times, fa.head = slices.Clone(samples), slices.Clone(times), 0
	}
	return true
}

func mapped[K comparable](keys []K, m map[K]*cnode) []*cnode {
	out := make([]*cnode, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}
