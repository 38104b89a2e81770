// Package ptl implements the paper's Past Temporal Logic: the abstract
// syntax (Section 4.1), a concrete text syntax with lexer and parser, the
// derived-operator desugaring, and the well-formedness/safety checks the
// processing algorithm of Section 5 assumes.
//
// Concrete syntax summary (see parser.go for the grammar):
//
//	[t <- time] [x <- price("IBM")]
//	    previously (price("IBM") <= 0.5 * x and time >= t - 10)
//
// Event atoms are written @name(args): @user_logs_in(X). Temporal
// operators: `since`, `lasttime`, `previously`, `throughout`, each of the
// last three also in bounded form `previously <= 10`. Temporal aggregates
// are terms: avg(price("IBM"); time = 540; @update_stocks).
package ptl

import (
	"fmt"
	"strings"

	"ptlactive/internal/value"
)

// Term is a PTL term: variables, constants, query applications, arithmetic
// and temporal aggregates.
type Term interface {
	isTerm()
	// String renders the term in concrete syntax (re-parsable).
	String() string
}

// Const is a literal value.
type Const struct {
	V value.Value
}

// Var is a variable occurrence. Variables are bound by the assignment
// operator [x <- q]; unbound occurrences are the rule's free variables.
type Var struct {
	Name string
}

// Call applies a query function symbol to argument terms, e.g.
// price("IBM") or time.
type Call struct {
	Fn   string
	Args []Term
}

// Arith is binary arithmetic over numeric terms.
type Arith struct {
	Op   value.ArithOp
	L, R Term
}

// Neg is unary numeric negation.
type Neg struct {
	X Term
}

// AggFn names a temporal aggregate function.
type AggFn string

// The aggregate functions of Section 6.
const (
	AggSum   AggFn = "sum"
	AggCount AggFn = "count"
	AggAvg   AggFn = "avg"
	AggMin   AggFn = "min"
	AggMax   AggFn = "max"
)

// ValidAggFn reports whether s names a supported aggregate.
func ValidAggFn(s string) bool {
	switch AggFn(s) {
	case AggSum, AggCount, AggAvg, AggMin, AggMax:
		return true
	}
	return false
}

// Agg is a temporal aggregate term f(q; phi; psi): the aggregate of query
// term q since the latest instant satisfying the starting formula phi,
// sampled at instants satisfying the sampling formula psi (Section 6.1).
// Start and Sample may themselves be temporal and may nest aggregates.
//
// A moving-window aggregate — the paper's "moving hourly average", written
// there with a time-anchored start formula time >= u-60 — is expressed by
// setting Window >= 0 (and Start nil): samples are the instants within the
// last Window time units satisfying Sample. Concrete syntax:
// avg(price("IBM"); window 60; @update_stocks).
type Agg struct {
	Fn     AggFn
	Q      Term
	Start  Formula
	Sample Formula
	// Window, when >= 0, makes this a moving-window aggregate over the
	// last Window time units; Start must then be nil.
	Window int64
}

func (*Const) isTerm() {}
func (*Var) isTerm()   {}
func (*Call) isTerm()  {}
func (*Arith) isTerm() {}
func (*Neg) isTerm()   {}
func (*Agg) isTerm()   {}

// Formula is a PTL formula.
type Formula interface {
	isFormula()
	// String renders the formula in concrete syntax (re-parsable).
	String() string
}

// BoolConst is true or false.
type BoolConst struct {
	V bool
}

// Cmp compares two terms with a comparison operator.
type Cmp struct {
	Op   value.CmpOp
	L, R Term
}

// EventAtom holds iff the current state's event set contains a matching
// occurrence of the symbol. Constant arguments must match the occurrence;
// variable arguments bind to the occurrence's parameters.
type EventAtom struct {
	Name string
	Args []Term
}

// Executed is the special predicate on rule executions (Section 7):
// executed(rule, params..., t) holds when rule was executed with the given
// parameter list at a time t strictly before now. Args and TimeArg may be
// variables, in which case they bind to recorded executions.
type Executed struct {
	Rule    string
	Args    []Term
	TimeArg Term
}

// Member tests tuple membership in a relation-valued term: (t1,...,tk) in
// r. For a unary relation a scalar left side is allowed.
type Member struct {
	Elems []Term
	Rel   Term
}

// Not negates a formula.
type Not struct {
	F Formula
}

// And conjoins two formulas.
type And struct {
	L, R Formula
}

// Or disjoins two formulas.
type Or struct {
	L, R Formula
}

// Since is the basic past operator: L Since R holds now iff R held at some
// past-or-present instant j and L held at every instant after j up to and
// including now. Bound >= 0 restricts j to the last Bound time units
// (time_j >= now - Bound); Bound < 0 means unbounded.
type Since struct {
	L, R  Formula
	Bound int64
}

// Lasttime holds iff F held at the previous state; false at the first
// state.
type Lasttime struct {
	F Formula
}

// Previously is the derived operator true Since F: F held at some
// past-or-present instant. Bound as in Since.
type Previously struct {
	F     Formula
	Bound int64
}

// Throughout is the derived operator not Previously not F: F held at every
// past-or-present instant. Bound as in Since.
type Throughout struct {
	F     Formula
	Bound int64
}

// Assign is the assignment operator [x <- q] F: evaluate F with x bound to
// the value of query term q at the instant where the assignment is
// evaluated. It is PTL's safety-preserving form of quantification
// (Section 10).
type Assign struct {
	Var  string
	Q    Term
	Body Formula
}

// Until is the basic *future* operator of the paper's companion logic
// ([Sistla & Wolfson 93], listed as future work in Section 11): L Until R
// holds at instant i iff R holds at some instant j >= i and L holds at
// every instant in [i, j). Bound >= 0 restricts j to within Bound time
// units of i. Future operators are interpreted over finite traces (the
// trace end resolves pending Untils to false) and are monitored by
// internal/future; the incremental past engine rejects them.
type Until struct {
	L, R  Formula
	Bound int64
}

// Nexttime holds at i iff instant i+1 exists and F holds there (strong
// next: false at the final state of a finite trace).
type Nexttime struct {
	F Formula
}

// Eventually is the derived operator true Until F. Bound as in Until.
type Eventually struct {
	F     Formula
	Bound int64
}

// Always is the derived operator not Eventually not F: F holds at every
// remaining instant (within Bound, when bounded).
type Always struct {
	F     Formula
	Bound int64
}

func (*BoolConst) isFormula()  {}
func (*Cmp) isFormula()        {}
func (*EventAtom) isFormula()  {}
func (*Executed) isFormula()   {}
func (*Member) isFormula()     {}
func (*Not) isFormula()        {}
func (*And) isFormula()        {}
func (*Or) isFormula()         {}
func (*Since) isFormula()      {}
func (*Lasttime) isFormula()   {}
func (*Previously) isFormula() {}
func (*Throughout) isFormula() {}
func (*Assign) isFormula()     {}
func (*Until) isFormula()      {}
func (*Nexttime) isFormula()   {}
func (*Eventually) isFormula() {}
func (*Always) isFormula()     {}

// Unbounded is the Bound value of an unbounded temporal operator.
const Unbounded = int64(-1)

// ---- Constructors (concise helpers used across the repo) ----

// C wraps a value into a constant term.
func C(v value.Value) *Const { return &Const{V: v} }

// CInt is a constant integer term.
func CInt(i int64) *Const { return &Const{V: value.NewInt(i)} }

// CFloat is a constant float term.
func CFloat(f float64) *Const { return &Const{V: value.NewFloat(f)} }

// CStr is a constant string term.
func CStr(s string) *Const { return &Const{V: value.NewString(s)} }

// V is a variable term.
func V(name string) *Var { return &Var{Name: name} }

// Q applies a query function.
func Q(fn string, args ...Term) *Call { return &Call{Fn: fn, Args: args} }

// Time is the reserved query reading the current timestamp.
func Time() *Call { return &Call{Fn: "time"} }

// TTrue and TFalse are the boolean constants.
var (
	TTrue  Formula = &BoolConst{V: true}
	TFalse Formula = &BoolConst{V: false}
)

// Compare builds a comparison formula.
func Compare(op value.CmpOp, l, r Term) *Cmp { return &Cmp{Op: op, L: l, R: r} }

// Ev builds an event atom.
func Ev(name string, args ...Term) *EventAtom { return &EventAtom{Name: name, Args: args} }

// AndF folds a conjunction (true when empty).
func AndF(fs ...Formula) Formula {
	if len(fs) == 0 {
		return TTrue
	}
	out := fs[0]
	for _, f := range fs[1:] {
		out = &And{L: out, R: f}
	}
	return out
}

// OrF folds a disjunction (false when empty).
func OrF(fs ...Formula) Formula {
	if len(fs) == 0 {
		return TFalse
	}
	out := fs[0]
	for _, f := range fs[1:] {
		out = &Or{L: out, R: f}
	}
	return out
}

// Let builds the assignment [x <- q] body.
func Let(x string, q Term, body Formula) *Assign { return &Assign{Var: x, Q: q, Body: body} }

// NewAgg builds a starting-formula aggregate f(q; start; sample).
func NewAgg(fn AggFn, q Term, start, sample Formula) *Agg {
	return &Agg{Fn: fn, Q: q, Start: start, Sample: sample, Window: Unbounded}
}

// NewWindowAgg builds a moving-window aggregate f(q; window w; sample).
func NewWindowAgg(fn AggFn, q Term, window int64, sample Formula) *Agg {
	return &Agg{Fn: fn, Q: q, Sample: sample, Window: window}
}

// ---- Printing ----

func (t *Const) String() string { return t.V.String() }
func (t *Var) String() string   { return t.Name }

func (t *Call) String() string {
	if t.Fn == "time" && len(t.Args) == 0 {
		return "time"
	}
	parts := make([]string, len(t.Args))
	for i, a := range t.Args {
		parts[i] = a.String()
	}
	return t.Fn + "(" + strings.Join(parts, ", ") + ")"
}

func (t *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", t.L, t.Op, t.R)
}

func (t *Neg) String() string { return fmt.Sprintf("(- %s)", t.X) }

func (t *Agg) String() string {
	if t.Window >= 0 {
		return fmt.Sprintf("%s(%s; window %d; %s)", t.Fn, t.Q, t.Window, t.Sample)
	}
	return fmt.Sprintf("%s(%s; %s; %s)", t.Fn, t.Q, t.Start, t.Sample)
}

func (f *BoolConst) String() string {
	if f.V {
		return "true"
	}
	return "false"
}

func (f *Cmp) String() string {
	return fmt.Sprintf("%s %s %s", f.L, f.Op, f.R)
}

func (f *EventAtom) String() string {
	if len(f.Args) == 0 {
		return "@" + f.Name
	}
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return "@" + f.Name + "(" + strings.Join(parts, ", ") + ")"
}

func (f *Executed) String() string {
	parts := make([]string, 0, len(f.Args)+2)
	parts = append(parts, f.Rule)
	for _, a := range f.Args {
		parts = append(parts, a.String())
	}
	parts = append(parts, f.TimeArg.String())
	return "executed(" + strings.Join(parts, ", ") + ")"
}

func (f *Member) String() string {
	if len(f.Elems) == 1 {
		return fmt.Sprintf("%s in %s", f.Elems[0], f.Rel)
	}
	parts := make([]string, len(f.Elems))
	for i, e := range f.Elems {
		parts[i] = e.String()
	}
	return fmt.Sprintf("(%s) in %s", strings.Join(parts, ", "), f.Rel)
}

func (f *Not) String() string { return fmt.Sprintf("not (%s)", f.F) }
func (f *And) String() string { return fmt.Sprintf("(%s and %s)", f.L, f.R) }
func (f *Or) String() string  { return fmt.Sprintf("(%s or %s)", f.L, f.R) }

func bound(b int64) string {
	if b < 0 {
		return ""
	}
	return fmt.Sprintf(" <= %d", b)
}

func (f *Since) String() string {
	return fmt.Sprintf("(%s since%s %s)", f.L, bound(f.Bound), f.R)
}

func (f *Lasttime) String() string { return fmt.Sprintf("lasttime (%s)", f.F) }

func (f *Previously) String() string {
	return fmt.Sprintf("previously%s (%s)", bound(f.Bound), f.F)
}

func (f *Throughout) String() string {
	return fmt.Sprintf("throughout%s (%s)", bound(f.Bound), f.F)
}

func (f *Assign) String() string {
	return fmt.Sprintf("[%s <- %s] %s", f.Var, f.Q, f.Body)
}

func (f *Until) String() string {
	return fmt.Sprintf("(%s until%s %s)", f.L, bound(f.Bound), f.R)
}

func (f *Nexttime) String() string { return fmt.Sprintf("nexttime (%s)", f.F) }

func (f *Eventually) String() string {
	return fmt.Sprintf("eventually%s (%s)", bound(f.Bound), f.F)
}

func (f *Always) String() string {
	return fmt.Sprintf("always%s (%s)", bound(f.Bound), f.F)
}

// ---- Structural equality ----

// EqualTerms reports structural equality of two terms.
func EqualTerms(a, b Term) bool {
	switch x := a.(type) {
	case *Const:
		y, ok := b.(*Const)
		return ok && x.V.Equal(y.V) && x.V.Kind() == y.V.Kind()
	case *Var:
		y, ok := b.(*Var)
		return ok && x.Name == y.Name
	case *Call:
		y, ok := b.(*Call)
		if !ok || x.Fn != y.Fn || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !EqualTerms(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *Arith:
		y, ok := b.(*Arith)
		return ok && x.Op == y.Op && EqualTerms(x.L, y.L) && EqualTerms(x.R, y.R)
	case *Neg:
		y, ok := b.(*Neg)
		return ok && EqualTerms(x.X, y.X)
	case *Agg:
		y, ok := b.(*Agg)
		if !ok || x.Fn != y.Fn || x.Window != y.Window || !EqualTerms(x.Q, y.Q) || !Equal(x.Sample, y.Sample) {
			return false
		}
		if x.Start == nil || y.Start == nil {
			return x.Start == nil && y.Start == nil
		}
		return Equal(x.Start, y.Start)
	default:
		return false
	}
}

// Equal reports structural equality of two formulas.
func Equal(a, b Formula) bool {
	switch x := a.(type) {
	case *BoolConst:
		y, ok := b.(*BoolConst)
		return ok && x.V == y.V
	case *Cmp:
		y, ok := b.(*Cmp)
		return ok && x.Op == y.Op && EqualTerms(x.L, y.L) && EqualTerms(x.R, y.R)
	case *EventAtom:
		y, ok := b.(*EventAtom)
		if !ok || x.Name != y.Name || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !EqualTerms(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *Executed:
		y, ok := b.(*Executed)
		if !ok || x.Rule != y.Rule || len(x.Args) != len(y.Args) || !EqualTerms(x.TimeArg, y.TimeArg) {
			return false
		}
		for i := range x.Args {
			if !EqualTerms(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *Member:
		y, ok := b.(*Member)
		if !ok || len(x.Elems) != len(y.Elems) || !EqualTerms(x.Rel, y.Rel) {
			return false
		}
		for i := range x.Elems {
			if !EqualTerms(x.Elems[i], y.Elems[i]) {
				return false
			}
		}
		return true
	case *Not:
		y, ok := b.(*Not)
		return ok && Equal(x.F, y.F)
	case *And:
		y, ok := b.(*And)
		return ok && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Or:
		y, ok := b.(*Or)
		return ok && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Since:
		y, ok := b.(*Since)
		return ok && x.Bound == y.Bound && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Lasttime:
		y, ok := b.(*Lasttime)
		return ok && Equal(x.F, y.F)
	case *Previously:
		y, ok := b.(*Previously)
		return ok && x.Bound == y.Bound && Equal(x.F, y.F)
	case *Throughout:
		y, ok := b.(*Throughout)
		return ok && x.Bound == y.Bound && Equal(x.F, y.F)
	case *Assign:
		y, ok := b.(*Assign)
		return ok && x.Var == y.Var && EqualTerms(x.Q, y.Q) && Equal(x.Body, y.Body)
	case *Until:
		y, ok := b.(*Until)
		return ok && x.Bound == y.Bound && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Nexttime:
		y, ok := b.(*Nexttime)
		return ok && Equal(x.F, y.F)
	case *Eventually:
		y, ok := b.(*Eventually)
		return ok && x.Bound == y.Bound && Equal(x.F, y.F)
	case *Always:
		y, ok := b.(*Always)
		return ok && x.Bound == y.Bound && Equal(x.F, y.F)
	default:
		return false
	}
}

// ---- Traversal helpers ----

// WalkTerms calls fn for every term in the formula, including terms nested
// in aggregate start/sample formulas, each once, a term before its
// subterms.
func WalkTerms(f Formula, fn func(Term)) {
	var ff func(Formula)
	var tf func(Term)
	ff = func(g Formula) { Children(g, ff, tf) }
	tf = func(t Term) {
		fn(t)
		TermChildren(t, ff, tf)
	}
	ff(f)
}

// Walk calls fn for every subformula of f exactly once, in preorder: a
// formula before its children, children in source order, and the starting
// and sampling formulas of an aggregate — with everything below them —
// where the aggregate term stands.
func Walk(f Formula, fn func(Formula)) {
	var ff func(Formula)
	var tf func(Term)
	ff = func(g Formula) {
		fn(g)
		Children(g, ff, tf)
	}
	tf = func(t Term) { TermChildren(t, ff, tf) }
	ff(f)
}

// EventNames returns the sorted distinct event symbols referenced by the
// formula (event atoms anywhere, including aggregate subformulas). The
// execution model's relevance filter (Section 8) uses this.
func EventNames(f Formula) []string {
	seen := map[string]struct{}{}
	Walk(f, func(g Formula) {
		if e, ok := g.(*EventAtom); ok {
			seen[e.Name] = struct{}{}
		}
	})
	return sortedNames(seen)
}

// HasFuture reports whether the formula contains a future operator
// (until, nexttime, eventually, always).
func HasFuture(f Formula) bool {
	found := false
	Walk(f, func(g Formula) {
		switch g.(type) {
		case *Until, *Nexttime, *Eventually, *Always:
			found = true
		}
	})
	return found
}

// HasTemporal reports whether the formula contains a temporal operator or
// aggregate; non-temporal conditions only need the current state.
func HasTemporal(f Formula) bool {
	found := false
	Walk(f, func(g Formula) {
		switch g.(type) {
		case *Since, *Lasttime, *Previously, *Throughout, *Executed,
			*Until, *Nexttime, *Eventually, *Always:
			found = true
		}
	})
	WalkTerms(f, func(t Term) {
		if _, ok := t.(*Agg); ok {
			found = true
		}
	})
	return found
}
