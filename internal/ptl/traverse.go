package ptl

// This file is the one statement of which node has which children. The
// structural recursions of the language layer — Walk, WalkTerms, FreeVars,
// RenameApart, Substitute, Desugar, agg's rewriting, core's register
// enumeration — are written over the four functions below and name only
// the kinds they treat specially. The interpreters that give each kind its
// meaning (parser, printer, Equal, check, codec, the evaluators) enumerate
// the kinds themselves; DESIGN.md §4.1 lists them.

// Children calls ff on each immediate subformula of f and tf on each
// immediate term of f, in source order. It allocates nothing, so a
// recursive caller that builds its two callbacks once pays a type switch
// and a call per node.
func Children(f Formula, ff func(Formula), tf func(Term)) {
	switch x := f.(type) {
	case *Cmp:
		tf(x.L)
		tf(x.R)
	case *EventAtom:
		for _, a := range x.Args {
			tf(a)
		}
	case *Executed:
		for _, a := range x.Args {
			tf(a)
		}
		tf(x.TimeArg)
	case *Member:
		for _, e := range x.Elems {
			tf(e)
		}
		tf(x.Rel)
	case *Not:
		ff(x.F)
	case *And:
		ff(x.L)
		ff(x.R)
	case *Or:
		ff(x.L)
		ff(x.R)
	case *Since:
		ff(x.L)
		ff(x.R)
	case *Lasttime:
		ff(x.F)
	case *Previously:
		ff(x.F)
	case *Throughout:
		ff(x.F)
	case *Assign:
		tf(x.Q)
		ff(x.Body)
	}
}

// TermChildren is Children for a term: an aggregate's children are its
// query term, its starting formula when it has one, and its sampling
// formula.
func TermChildren(t Term, ff func(Formula), tf func(Term)) {
	switch x := t.(type) {
	case *Call:
		for _, a := range x.Args {
			tf(a)
		}
	case *Arith:
		tf(x.L)
		tf(x.R)
	case *Neg:
		tf(x.X)
	case *Agg:
		tf(x.Q)
		if x.Start != nil {
			ff(x.Start)
		}
		ff(x.Sample)
	}
}

// MapChildren returns a copy of f whose immediate subformulas and terms are
// ff and tf of the original's; a BoolConst, having none, is returned as it
// is. Children are rewritten in source order.
func MapChildren(f Formula, ff func(Formula) Formula, tf func(Term) Term) Formula {
	switch x := f.(type) {
	case *Cmp:
		return &Cmp{Op: x.Op, L: tf(x.L), R: tf(x.R)}
	case *EventAtom:
		return &EventAtom{Name: x.Name, Args: mapTerms(x.Args, tf)}
	case *Executed:
		return &Executed{Rule: x.Rule, Args: mapTerms(x.Args, tf), TimeArg: tf(x.TimeArg)}
	case *Member:
		return &Member{Elems: mapTerms(x.Elems, tf), Rel: tf(x.Rel)}
	case *Not:
		return &Not{F: ff(x.F)}
	case *And:
		return &And{L: ff(x.L), R: ff(x.R)}
	case *Or:
		return &Or{L: ff(x.L), R: ff(x.R)}
	case *Since:
		return &Since{L: ff(x.L), R: ff(x.R), Bound: x.Bound}
	case *Lasttime:
		return &Lasttime{F: ff(x.F)}
	case *Previously:
		return &Previously{F: ff(x.F), Bound: x.Bound}
	case *Throughout:
		return &Throughout{F: ff(x.F), Bound: x.Bound}
	case *Assign:
		return &Assign{Var: x.Var, Q: tf(x.Q), Body: ff(x.Body)}
	default:
		return f
	}
}

// MapTermChildren is MapChildren for a term; a Const or Var is returned as
// it is.
//
// An aggregate's sampling formula is rewritten before its starting formula,
// the reverse of the order TermChildren visits them in. RenameApart and
// Desugar number the fresh names they introduce in rewriting order, those
// names are in every evaluator snapshot taken so far (a saved constraint
// mentions $b0, x#1), and sample-first is the order those were numbered
// in; testdata/normal.golden pins it.
func MapTermChildren(t Term, ff func(Formula) Formula, tf func(Term) Term) Term {
	switch x := t.(type) {
	case *Call:
		return &Call{Fn: x.Fn, Args: mapTerms(x.Args, tf)}
	case *Arith:
		return &Arith{Op: x.Op, L: tf(x.L), R: tf(x.R)}
	case *Neg:
		return &Neg{X: tf(x.X)}
	case *Agg:
		out := &Agg{Fn: x.Fn, Q: tf(x.Q), Sample: ff(x.Sample), Window: x.Window}
		if x.Start != nil {
			out.Start = ff(x.Start)
		}
		return out
	default:
		return t
	}
}

func mapTerms(ts []Term, tf func(Term) Term) []Term {
	out := make([]Term, len(ts))
	for i, t := range ts {
		out[i] = tf(t)
	}
	return out
}
