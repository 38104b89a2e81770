package ptl

import (
	"fmt"

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

// ground reports whether the term contains no variables.
func ground(t Term) bool {
	switch x := t.(type) {
	case *Const:
		return true
	case *Var:
		return false
	case *Call:
		for _, a := range x.Args {
			if !ground(a) {
				return false
			}
		}
		return true
	case *Arith:
		return ground(x.L) && ground(x.R)
	case *Neg:
		return ground(x.X)
	case *Agg:
		// Aggregates are evaluated per-state like queries; they are ground
		// when their query and formulas mention no free variables.
		if !ground(x.Q) || len(FreeVars(x.Sample)) != 0 {
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
		if !ground(t) {
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
			if !ground(a) {
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
		if !ground(x) {
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
			if v, ok := x.L.(*Var); ok && ground(x.R) {
				c.binding[v.Name] = true
			}
			if v, ok := x.R.(*Var); ok && ground(x.L) {
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
	case *Until, *Nexttime, *Eventually, *Always:
		return fmt.Errorf("ptl: future operator %T: the incremental past engine cannot evaluate it; monitor it with internal/future", x)
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
				if !ground(x.Q) {
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
