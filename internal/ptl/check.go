package ptl

import (
	"fmt"
	"slices"

	"ptlactive/internal/query"
	"ptlactive/internal/value"
)

// Info is the result of checking a formula: the normalized (renamed-apart,
// desugared) form the evaluators run on, plus the static analyses they
// need.
type Info struct {
	// Source is the formula as given.
	Source Formula
	// Normalized is RenameApart+Desugar of Source; evaluators consume this.
	Normalized Formula
	// Free are the formula's free variables (the rule's parameters).
	Free []string
	// Events are the distinct event symbols referenced (relevance filter).
	Events []string
	// TimeVars are variables assigned from the reserved time query; the
	// time-bound optimization may fold their dead upper-bound clauses.
	TimeVars map[string]bool
	// Temporal reports whether the condition needs history at all.
	Temporal bool
}

// Check validates a formula against a query registry and returns its Info.
// It enforces, statically, everything the Section-5 algorithm assumes:
//
//   - every query call resolves to a registered function with correct arity;
//   - aggregate functions are known and aggregate bodies are checked too;
//   - event/executed/member binding positions hold only variables or ground
//     terms (so matches translate into equality constraints);
//   - every free variable occurs in at least one binding position — an
//     event argument, an executed argument, a member element, or one side
//     of an equality whose other side is variable-free — guaranteeing the
//     evaluator can enumerate candidate parameter values (safety in the
//     sense of [Ullman 88], which the assignment operator preserves for
//     bound variables).
func Check(f Formula, reg *query.Registry) (*Info, error) {
	norm := Desugar(RenameApart(f))
	info := &Info{
		Source:     f,
		Normalized: norm,
		Free:       FreeVars(f),
		Events:     EventNames(f),
		TimeVars:   map[string]bool{},
		Temporal:   HasTemporal(norm),
	}
	c := &checker{reg: reg, info: info, binding: map[string]bool{}}
	if err := c.formula(norm); err != nil {
		return nil, err
	}
	// Free variables of the normalized formula equal those of the source
	// (renaming and desugaring never free or capture variables); verify to
	// catch normalization bugs early.
	nf := FreeVars(norm)
	if len(nf) != len(info.Free) {
		return nil, fmt.Errorf("ptl: internal: normalization changed free variables from %v to %v", info.Free, nf)
	}
	for i := range nf {
		if nf[i] != info.Free[i] {
			return nil, fmt.Errorf("ptl: internal: normalization changed free variables from %v to %v", info.Free, nf)
		}
	}
	for _, v := range info.Free {
		if !c.binding[v] {
			return nil, fmt.Errorf("ptl: free variable %s has no binding position (event/executed/member argument or equality with a ground term); the rule cannot be safely enumerated", v)
		}
	}
	// Collect time-anchored variables: assigned exactly from time.
	Walk(norm, func(g Formula) {
		if a, ok := g.(*Assign); ok {
			if call, ok := a.Q.(*Call); ok && call.Fn == "time" && len(call.Args) == 0 {
				info.TimeVars[a.Var] = true
			}
		}
	})
	return info, nil
}

type checker struct {
	reg  *query.Registry
	info *Info
	// binding records free variables seen in a binding position.
	binding map[string]bool
}

// Ground reports whether the term contains no variables.
func Ground(t Term) bool {
	switch x := t.(type) {
	case *Const:
		return true
	case *Var:
		return false
	case *Call:
		for _, a := range x.Args {
			if !Ground(a) {
				return false
			}
		}
		return true
	case *Arith:
		return Ground(x.L) && Ground(x.R)
	case *Neg:
		return Ground(x.X)
	case *Agg:
		// Aggregates are evaluated per-state like queries; they are ground
		// when their query and formulas mention no free variables.
		if !Ground(x.Q) || len(FreeVars(x.Sample)) != 0 {
			return false
		}
		return x.Start == nil || len(FreeVars(x.Start)) == 0
	default:
		return false
	}
}

func (c *checker) bindPos(t Term) error {
	switch x := t.(type) {
	case *Var:
		c.binding[x.Name] = true
		return nil
	default:
		if !Ground(t) {
			return fmt.Errorf("ptl: binding position %s must be a variable or a ground term", t)
		}
		return nil
	}
}

func (c *checker) term(t Term) error {
	switch x := t.(type) {
	case *Const:
		if x.V.IsNull() {
			return fmt.Errorf("ptl: null constant in formula")
		}
		return nil
	case *Var:
		return nil
	case *Call:
		arity, ok := c.reg.Arity(x.Fn)
		if !ok {
			return fmt.Errorf("ptl: unknown query function %q", x.Fn)
		}
		if arity >= 0 && len(x.Args) != arity {
			return fmt.Errorf("ptl: query %s expects %d arguments, got %d", x.Fn, arity, len(x.Args))
		}
		for _, a := range x.Args {
			if !Ground(a) {
				// The incremental algorithm evaluates queries against the
				// current state while variables may still be symbolic; the
				// paper handles variable-indexed queries like price(x) by
				// the indexed-rule rewriting of Section 6.1.1 instead.
				return fmt.Errorf("ptl: query argument %s of %s mentions variables; bind the query result to a variable instead", a, x.Fn)
			}
			if err := c.term(a); err != nil {
				return err
			}
		}
		return nil
	case *Arith:
		if err := c.term(x.L); err != nil {
			return err
		}
		return c.term(x.R)
	case *Neg:
		return c.term(x.X)
	case *Agg:
		if !ValidAggFn(string(x.Fn)) {
			return fmt.Errorf("ptl: unknown aggregate function %q", x.Fn)
		}
		if (x.Window >= 0) == (x.Start != nil) {
			return fmt.Errorf("ptl: aggregate %s must have exactly one of a window and a starting formula", x.Fn)
		}
		if !Ground(x) {
			return fmt.Errorf("ptl: aggregate %s mentions free variables; rewrite it with indexed rules (internal/agg) as in Section 6.1.1", x.Fn)
		}
		if nestedAgg(x.Q) {
			return fmt.Errorf("ptl: aggregate %s nests an aggregate inside its query term; nest inside the starting or sampling formula instead (Section 6.1)", x.Fn)
		}
		if err := c.term(x.Q); err != nil {
			return err
		}
		if x.Start != nil {
			if err := c.formula(x.Start); err != nil {
				return err
			}
		}
		return c.formula(x.Sample)
	default:
		return fmt.Errorf("ptl: unknown term %T", t)
	}
}

func (c *checker) formula(f Formula) error {
	switch x := f.(type) {
	case *BoolConst:
		return nil
	case *Cmp:
		if err := c.term(x.L); err != nil {
			return err
		}
		if err := c.term(x.R); err != nil {
			return err
		}
		// Equality with a ground side is a binding position for a bare
		// variable on the other side.
		if x.Op == value.EQ {
			if v, ok := x.L.(*Var); ok && Ground(x.R) {
				c.binding[v.Name] = true
			}
			if v, ok := x.R.(*Var); ok && Ground(x.L) {
				c.binding[v.Name] = true
			}
		}
		return nil
	case *EventAtom:
		if x.Name == "" {
			return fmt.Errorf("ptl: event atom with empty name")
		}
		for _, a := range x.Args {
			if err := c.bindPos(a); err != nil {
				return err
			}
			if err := c.term(a); err != nil {
				return err
			}
		}
		return nil
	case *Executed:
		if x.Rule == "" {
			return fmt.Errorf("ptl: executed with empty rule name")
		}
		for _, a := range x.Args {
			if err := c.bindPos(a); err != nil {
				return err
			}
			if err := c.term(a); err != nil {
				return err
			}
		}
		if err := c.bindPos(x.TimeArg); err != nil {
			return err
		}
		return c.term(x.TimeArg)
	case *Member:
		if len(x.Elems) == 0 {
			return fmt.Errorf("ptl: membership with empty tuple")
		}
		for _, e := range x.Elems {
			if err := c.bindPos(e); err != nil {
				return err
			}
			if err := c.term(e); err != nil {
				return err
			}
		}
		switch x.Rel.(type) {
		case *Var, *Call:
			return c.term(x.Rel)
		default:
			return fmt.Errorf("ptl: membership relation must be a variable or a query, got %s", x.Rel)
		}
	case *Not:
		return c.formula(x.F)
	case *And:
		if err := c.formula(x.L); err != nil {
			return err
		}
		return c.formula(x.R)
	case *Or:
		if err := c.formula(x.L); err != nil {
			return err
		}
		return c.formula(x.R)
	case *Since:
		if x.Bound >= 0 {
			return fmt.Errorf("ptl: internal: bounded since survived desugaring")
		}
		if err := c.formula(x.L); err != nil {
			return err
		}
		return c.formula(x.R)
	case *Lasttime:
		return c.formula(x.F)
	case *Previously, *Throughout:
		return fmt.Errorf("ptl: internal: derived operator survived desugaring")
	case *Assign:
		if x.Var == "" {
			return fmt.Errorf("ptl: assignment with empty variable")
		}
		if err := c.term(x.Q); err != nil {
			return err
		}
		if _, isAgg := x.Q.(*Agg); !isAgg {
			if _, isCall := x.Q.(*Call); !isCall {
				if !Ground(x.Q) {
					return fmt.Errorf("ptl: assignment [%s <- %s] must bind a query, aggregate or ground term", x.Var, x.Q)
				}
			}
		}
		return c.formula(x.Body)
	default:
		return fmt.Errorf("ptl: unknown formula %T", f)
	}
}

// Decomposable classifies the subclass of PTL that the paper's Sybase
// prototype implemented ([Deng 94], "decomposable formulas"): the formula
// decomposes into per-state atoms combined by boolean and temporal
// operators such that no variable crosses a temporal operator — i.e. every
// assignment's body contains no temporal operator mentioning the assigned
// variable beneath it. Decomposable conditions never need symbolic
// constraint state: every F_{g,i} folds to a constant.
func Decomposable(f Formula) bool {
	norm := Desugar(RenameApart(f))
	ok := true
	Walk(norm, func(g Formula) {
		a, isAssign := g.(*Assign)
		if !isAssign {
			return
		}
		// Does any temporal operator under the assignment mention a.Var?
		Walk(a.Body, func(h Formula) {
			var inner Formula
			switch t := h.(type) {
			case *Since:
				inner = t
			case *Lasttime:
				inner = t
			default:
				return
			}
			for _, v := range FreeVars(inner) {
				if v == a.Var {
					ok = false
				}
			}
		})
	})
	// Free variables also force symbolic state.
	if len(FreeVars(norm)) > 0 {
		ok = false
	}
	return ok
}

// Metric splits the h of `g since h` when variables assigned just outside
// the since, its captured variables, cross it: Conj are h's conjuncts in
// order, among them at most one time bound, `time >= t - c` or `time > t -
// c` for a captured t assigned from time and an integer c >= 0 (> 0 for >),
// and at most one separable ordering atom, Front, whose inner side reads
// only the state (no aggregate) and whose other side only captured
// variables not assigned from time and numeric constants. Under `[t <- time]` the latest instant
// at which h held dominates the earlier ones, and under `[x <- q]` the
// instants whose inner value is the extreme: core keeps a timestamp
// register or a frontier for them.
type Metric struct {
	Since        *Since
	Conj         []Formula
	Bound, Front *Cmp
	InnerLeft    bool // Front.L is the inner side
}

// splitMetric splits h for the since whose captured variables captured
// reports, timeVar those assigned from time. ok is false when a conjunct
// mentions a captured variable other than in the two atoms.
func splitMetric(h Formula, captured, timeVar func(string) bool) (m Metric, ok bool) {
	var flat func(Formula)
	flat = func(f Formula) {
		if a, isAnd := f.(*And); isAnd {
			flat(a.L)
			flat(a.R)
		} else {
			m.Conj = append(m.Conj, f)
		}
	}
	flat(h)
	uses := func(f Formula) (found bool) { // names are apart, so any occurrence is the captured one
		WalkTerms(f, func(t Term) {
			v, isVar := t.(*Var)
			found = found || isVar && captured(v.Name)
		})
		return found
	}
	// The outer side holds captured variables, one at least, none assigned
	// from time: the general evaluator folds an atom over such a variable
	// as time passes, which a frontier does not model.
	outer := func(t Term) bool {
		only, some := true, false
		var tf func(Term)
		tf = func(t Term) {
			switch x := t.(type) {
			case *Var:
				only, some = only && captured(x.Name) && !timeVar(x.Name), true
			case *Const:
				only = only && x.V.IsNumeric()
			case *Arith, *Neg:
				TermChildren(t, nil, tf)
			default:
				only = false
			}
		}
		tf(t)
		return only && some
	}
	for _, f := range m.Conj {
		c, isCmp := f.(*Cmp)
		switch {
		case !uses(f):
		case !isCmp || c.Op == value.EQ || c.Op == value.NE:
			return m, false
		case m.Bound == nil && isBound(c, timeVar):
			m.Bound = c
		case m.Front == nil && Ground(c.L) && !nestedAgg(c.L) && outer(c.R):
			m.Front, m.InnerLeft = c, true
		case m.Front == nil && Ground(c.R) && !nestedAgg(c.R) && outer(c.L):
			m.Front = c
		default:
			return m, false
		}
	}
	return m, m.Bound != nil || m.Front != nil
}

// isBound reports whether c is `time >= t - k` or `time > t - k` for a
// variable t timeVar accepts and an integer constant k that the instant
// binding t passes itself, the bounded operators' form.
func isBound(c *Cmp, timeVar func(string) bool) bool {
	call, isCall := c.L.(*Call)
	a, isArith := c.R.(*Arith)
	if !isCall || call.Fn != "time" || len(call.Args) != 0 || !isArith || a.Op != value.Sub || c.Op != value.GE && c.Op != value.GT {
		return false
	}
	v, isVar := a.L.(*Var)
	k, isConst := a.R.(*Const)
	return isVar && isConst && k.V.Kind() == value.Int && timeVar(v.Name) && (k.V.AsInt() > 0 || c.Op == value.GE && k.V.AsInt() == 0)
}

// FastShape reports whether core's register evaluator can run the
// normalized condition norm, whose parameters (free variables) are free.
// It can when every parameter either crosses no temporal operator — it is
// then evaluated once per candidate value, like an assigned variable — or
// is the one parameter, class, that does so only as an event argument or as
// a side of an = or ≠ against a constant. Every value such atoms do not
// mention behaves alike, so the class parameter's values share one register
// vector until the history mentions them. A parameter used as a membership
// element must test a query's relation, whose rows are its candidates. And
// every parameter must be bound by an atom that offers its values (binds).
// An assigned variable crosses no temporal operator, but for a since's
// Metric atoms, in a condition with neither a class parameter nor an
// aggregate; metrics lists the Metric of each such since. An aggregate may
// occur in a closed condition whose assigned variables cross nothing, when
// its formulas have that shape too.
func FastShape(norm Formula, free []string) (class string, metrics []Metric, ok bool) {
	ok = true
	at := map[string]int{} // an assigned variable's temporal depth
	timeVars := map[string]bool{}
	depth, aggs := 0, false
	param := func(name string) bool {
		_, assigned := at[name]
		return !assigned && slices.Contains(free, name)
	}
	use := func(name string, plain bool) {
		if d, assigned := at[name]; assigned {
			ok = ok && d == depth
		} else if depth > 0 && slices.Contains(free, name) {
			ok = ok && plain && (class == "" || class == name)
			class = name
		}
	}
	var ff func(Formula)
	var tf func(Term)
	tf = func(t Term) {
		switch x := t.(type) {
		case *Var:
			use(x.Name, false)
		case *Agg:
			aggs = true
			for _, g := range []Formula{x.Start, x.Sample} {
				if g != nil {
					_, m, sub := FastShape(g, nil)
					ok = ok && sub && len(m) == 0 && len(free) == 0
				}
			}
			tf(x.Q)
		default:
			TermChildren(t, ff, tf)
		}
	}
	ff = func(f Formula) {
		switch x := f.(type) {
		case *Since:
			captured := func(v string) bool { d, assigned := at[v]; return assigned && d == depth }
			if len(at) > 0 {
				if m, split := splitMetric(x.R, captured, func(v string) bool { return captured(v) && timeVars[v] }); split {
					m.Since = x
					metrics = append(metrics, m)
				}
			}
			depth++
			Children(f, ff, tf)
			depth--
		case *Lasttime:
			depth++
			Children(f, ff, tf)
			depth--
		case *Assign:
			tf(x.Q)
			at[x.Var] = depth
			if call, isCall := x.Q.(*Call); isCall && call.Fn == "time" && len(call.Args) == 0 {
				timeVars[x.Var] = true
			}
			ff(x.Body)
			delete(at, x.Var)
		case *EventAtom:
			for _, a := range x.Args {
				if v, isVar := a.(*Var); isVar {
					use(v.Name, true)
				} else {
					tf(a)
				}
			}
		case *Cmp:
			if slices.ContainsFunc(metrics, func(m Metric) bool { return m.Bound == x || m.Front == x }) {
				break // a metric atom: its inner side is ground
			}
			l, lv := x.L.(*Var)
			r, rv := x.R.(*Var)
			_, lc := x.L.(*Const)
			_, rc := x.R.(*Const)
			switch {
			case x.Op != value.EQ && x.Op != value.NE:
				Children(f, ff, tf)
			case lv && rc:
				use(l.Name, true)
			case rv && lc:
				use(r.Name, true)
			default:
				Children(f, ff, tf)
			}
		case *Member:
			_, query := x.Rel.(*Call)
			for _, e := range x.Elems {
				if v, isVar := e.(*Var); isVar && param(v.Name) && !query {
					ok = false
				}
			}
			Children(f, ff, tf)
		default:
			Children(f, ff, tf)
		}
	}
	ff(norm)
	for _, p := range free {
		ok = ok && binds(norm, p)
	}
	if len(metrics) > 0 && (class != "" || aggs) {
		return class, nil, false
	}
	return class, metrics, ok
}

// binds reports whether f can hold under a value of parameter p only where
// an atom offers that value, now or at an earlier state: an event or
// executed argument, a membership element or an = against a ground term,
// in a conjunct of f, in both sides of an or, in the h of a since or under
// a lasttime. The general evaluator then finds every value that satisfies
// f among its graph's equalities, and core's register evaluator among its
// candidates and value classes; elsewhere (`@e(U) or item("a") > 3`) the
// first enumerates its equalities and folds a graph that ignores U to a
// binding-free firing, and the second would do neither.
func binds(f Formula, p string) bool {
	isP := func(t Term) bool {
		v, ok := t.(*Var)
		return ok && v.Name == p
	}
	switch x := f.(type) {
	case *EventAtom:
		return slices.ContainsFunc(x.Args, isP)
	case *Executed:
		return slices.ContainsFunc(x.Args, isP) || isP(x.TimeArg)
	case *Member:
		return slices.ContainsFunc(x.Elems, isP)
	case *Cmp:
		return x.Op == value.EQ && (isP(x.L) && Ground(x.R) || isP(x.R) && Ground(x.L))
	case *And:
		return binds(x.L, p) || binds(x.R, p)
	case *Or:
		return binds(x.L, p) && binds(x.R, p)
	case *Since:
		return binds(x.R, p)
	case *Lasttime:
		return binds(x.F, p)
	case *Assign:
		return binds(x.Body, p)
	}
	return false
}

// nestedAgg reports whether a term contains an aggregate.
func nestedAgg(t Term) bool {
	switch x := t.(type) {
	case *Agg:
		return true
	case *Call:
		for _, a := range x.Args {
			if nestedAgg(a) {
				return true
			}
		}
		return false
	case *Arith:
		return nestedAgg(x.L) || nestedAgg(x.R)
	case *Neg:
		return nestedAgg(x.X)
	default:
		return false
	}
}
