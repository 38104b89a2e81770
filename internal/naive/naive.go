// Package naive implements the direct (whole-history) semantics of PTL
// from Section 4.2. It is deliberately simple and unoptimized: every
// evaluation recurses over the entire stored history. It serves two
// roles — the oracle that property tests compare the incremental
// algorithm against (Theorem 1), and the baseline the E1/E3 benchmarks
// measure the incremental algorithm's advantage over.
package naive

import (
	"fmt"
	"slices"

	"ptlactive/internal/history"
	"ptlactive/internal/ptl"
	"ptlactive/internal/query"
	"ptlactive/internal/value"
)

// Evaluator evaluates PTL formulas directly over a history.
type Evaluator struct {
	reg  *query.Registry
	log  ptl.ExecLog
	hist *history.History
}

// New creates a naive evaluator over a history. The history may keep
// growing; evaluations always see its current states. A nil log means no
// recorded executions.
func New(reg *query.Registry, hist *history.History, log ptl.ExecLog) *Evaluator {
	if log == nil {
		log = ptl.NoExecutions{}
	}
	return &Evaluator{reg: reg, log: log, hist: hist}
}

// Env maps variable names to values.
type Env map[string]value.Value

// clone extends an environment without mutating the parent.
func (e Env) with(name string, v value.Value) Env {
	out := make(Env, len(e)+1)
	for k, w := range e {
		out[k] = w
	}
	out[name] = v
	return out
}

// Sat reports whether the formula holds at state index i of the history,
// under the given environment for its free variables. The formula may use
// the surface operators (previously, throughout, bounds) directly; this
// gives an implementation of the semantics that is independent of the
// Desugar rewriting, so tests can validate Desugar itself.
func (ev *Evaluator) Sat(i int, f ptl.Formula, env Env) (bool, error) {
	if i < 0 || i >= ev.hist.Len() {
		return false, fmt.Errorf("naive: state index %d out of range 0..%d", i, ev.hist.Len()-1)
	}
	return ev.sat(i, f, env)
}

// SatLast evaluates the formula at the most recent state.
func (ev *Evaluator) SatLast(f ptl.Formula, env Env) (bool, error) {
	return ev.Sat(ev.hist.Len()-1, f, env)
}

func (ev *Evaluator) sat(i int, f ptl.Formula, env Env) (bool, error) {
	st := ev.hist.At(i)
	switch x := f.(type) {
	case *ptl.BoolConst:
		return x.V, nil
	case *ptl.Cmp:
		l, err := ev.Term(i, x.L, env)
		if err != nil {
			return false, err
		}
		r, err := ev.Term(i, x.R, env)
		if err != nil {
			return false, err
		}
		// Undefined (Null) values — e.g. an aggregate before its first
		// start point — make their atom false rather than erroring.
		if l.IsNull() || r.IsNull() {
			return false, nil
		}
		return value.Cmp(x.Op, l, r)
	case *ptl.EventAtom:
		args := make([]value.Value, len(x.Args))
		for k, a := range x.Args {
			v, err := ev.Term(i, a, env)
			if err != nil {
				return false, err
			}
			args[k] = v
		}
		for _, e := range st.Events.ByName(x.Name) {
			if len(e.Args) != len(args) {
				continue
			}
			match := true
			for k := range args {
				if !e.Args[k].Equal(args[k]) {
					match = false
					break
				}
			}
			if match {
				return true, nil
			}
		}
		return false, nil
	case *ptl.Executed:
		args := make([]value.Value, len(x.Args))
		for k, a := range x.Args {
			v, err := ev.Term(i, a, env)
			if err != nil {
				return false, err
			}
			args[k] = v
		}
		tv, err := ev.Term(i, x.TimeArg, env)
		if err != nil {
			return false, err
		}
		if !tv.IsNumeric() {
			return false, fmt.Errorf("naive: executed time argument is %s, want numeric", tv.Kind())
		}
		for _, ex := range ev.log.Executions(x.Rule, st.TS) {
			if !value.NewInt(ex.Time).Equal(tv) || len(ex.Params) != len(args) {
				continue
			}
			match := true
			for k := range args {
				if !ex.Params[k].Equal(args[k]) {
					match = false
					break
				}
			}
			if match {
				return true, nil
			}
		}
		return false, nil
	case *ptl.Member:
		// Like a comparison, a membership with a Null relation or a Null
		// element is false: Null matches no row, not even one holding Null.
		rel, err := ev.Term(i, x.Rel, env)
		if err != nil || rel.IsNull() {
			return false, err
		}
		if rel.Kind() != value.Relation {
			return false, fmt.Errorf("naive: membership in %s, want relation", rel.Kind())
		}
		elems := make([]value.Value, len(x.Elems))
		for k, e := range x.Elems {
			v, err := ev.Term(i, e, env)
			if err != nil {
				return false, err
			}
			elems[k] = v
		}
		if slices.ContainsFunc(elems, value.Value.IsNull) {
			return false, nil
		}
		want := value.NewTuple(elems...)
		for _, row := range rel.Rows() {
			if value.NewTuple(row...).Equal(want) {
				return true, nil
			}
		}
		return false, nil
	case *ptl.Not:
		b, err := ev.sat(i, x.F, env)
		return !b, err
	case *ptl.And:
		l, err := ev.sat(i, x.L, env)
		if err != nil || !l {
			return false, err
		}
		return ev.sat(i, x.R, env)
	case *ptl.Or:
		l, err := ev.sat(i, x.L, env)
		if err != nil || l {
			return l, err
		}
		return ev.sat(i, x.R, env)
	case *ptl.Since:
		// ∃ j <= i: R at j (within bound) and L at every k in (j, i].
		for j := i; j >= 0; j-- {
			if x.Bound >= 0 && ev.hist.At(j).TS < st.TS-x.Bound {
				break
			}
			r, err := ev.sat(j, x.R, env)
			if err != nil {
				return false, err
			}
			if r {
				ok := true
				for k := j + 1; k <= i; k++ {
					l, err := ev.sat(k, x.L, env)
					if err != nil {
						return false, err
					}
					if !l {
						ok = false
						break
					}
				}
				if ok {
					return true, nil
				}
			}
			// Even if R fails at j, a witness may exist earlier provided L
			// holds from there on; keep scanning.
		}
		return false, nil
	case *ptl.Lasttime:
		if i == 0 {
			return false, nil
		}
		return ev.sat(i-1, x.F, env)
	case *ptl.Previously:
		for j := i; j >= 0; j-- {
			if x.Bound >= 0 && ev.hist.At(j).TS < st.TS-x.Bound {
				break
			}
			b, err := ev.sat(j, x.F, env)
			if err != nil {
				return false, err
			}
			if b {
				return true, nil
			}
		}
		return false, nil
	case *ptl.Throughout:
		for j := i; j >= 0; j-- {
			if x.Bound >= 0 && ev.hist.At(j).TS < st.TS-x.Bound {
				break
			}
			b, err := ev.sat(j, x.F, env)
			if err != nil {
				return false, err
			}
			if !b {
				return false, nil
			}
		}
		return true, nil
	case *ptl.Assign:
		v, err := ev.Term(i, x.Q, env)
		if err != nil {
			return false, err
		}
		return ev.sat(i, x.Body, env.with(x.Var, v))
	default:
		return false, fmt.Errorf("naive: unknown formula %T", f)
	}
}

// Term evaluates a term at state index i under env.
func (ev *Evaluator) Term(i int, t ptl.Term, env Env) (value.Value, error) {
	st := ev.hist.At(i)
	switch x := t.(type) {
	case *ptl.Const:
		return x.V, nil
	case *ptl.Var:
		v, ok := env[x.Name]
		if !ok {
			return value.Value{}, fmt.Errorf("naive: unbound variable %s", x.Name)
		}
		return v, nil
	case *ptl.Call:
		args := make([]value.Value, len(x.Args))
		for k, a := range x.Args {
			v, err := ev.Term(i, a, env)
			if err != nil {
				return value.Value{}, err
			}
			args[k] = v
		}
		return ev.reg.Eval(x.Fn, st, args)
	case *ptl.Arith:
		l, err := ev.Term(i, x.L, env)
		if err != nil {
			return value.Value{}, err
		}
		r, err := ev.Term(i, x.R, env)
		if err != nil {
			return value.Value{}, err
		}
		if l.IsNull() || r.IsNull() || divByZero(x.Op, r) {
			return value.Value{}, nil
		}
		return value.Arith(x.Op, l, r)
	case *ptl.Neg:
		v, err := ev.Term(i, x.X, env)
		if err != nil {
			return value.Value{}, err
		}
		if v.IsNull() {
			return value.Value{}, nil
		}
		return value.Arith(value.Sub, value.NewInt(0), v)
	case *ptl.Agg:
		return ev.aggregate(i, x, env)
	default:
		return value.Value{}, fmt.Errorf("naive: unknown term %T", t)
	}
}

// aggregate implements the Section-6.1 semantics directly: j is the
// highest index <= i whose prefix satisfies the starting formula; samples
// are the indices k in [j, i] whose prefixes satisfy the sampling formula;
// the result aggregates q over the sample states.
func (ev *Evaluator) aggregate(i int, a *ptl.Agg, env Env) (value.Value, error) {
	start := -1
	if a.Window >= 0 {
		// Moving-window form: samples are the instants within the last
		// Window time units.
		cutoff := ev.hist.At(i).TS - a.Window
		for j := 0; j <= i; j++ {
			if ev.hist.At(j).TS >= cutoff {
				start = j
				break
			}
		}
	} else {
		for j := i; j >= 0; j-- {
			b, err := ev.sat(j, a.Start, env)
			if err != nil {
				return value.Value{}, err
			}
			if b {
				start = j
				break
			}
		}
	}
	if start < 0 {
		// No start point exists: the aggregate is undefined (Null), which
		// makes any atom comparing it false. This matches the incremental
		// evaluator's "not started" state.
		return value.Value{}, nil
	}
	var samples []value.Value
	if start >= 0 {
		for k := start; k <= i; k++ {
			b, err := ev.sat(k, a.Sample, env)
			if err != nil {
				return value.Value{}, err
			}
			if !b {
				continue
			}
			v, err := ev.Term(k, a.Q, env)
			if err != nil {
				return value.Value{}, err
			}
			if !v.IsNumeric() {
				return value.Value{}, fmt.Errorf("naive: aggregate %s over non-numeric value %s", a.Fn, v)
			}
			samples = append(samples, v)
		}
	}
	return Aggregate(a.Fn, samples)
}

// Aggregate folds samples with the named aggregate function. Sum and count
// of zero samples are 0; avg, min and max of zero samples are undefined
// and yield the Null value, which makes any atom comparing them false
// (Section 6.1 leaves the empty aggregate undefined).
func Aggregate(fn ptl.AggFn, samples []value.Value) (value.Value, error) {
	switch fn {
	case ptl.AggCount:
		return value.NewInt(int64(len(samples))), nil
	case ptl.AggSum:
		acc := value.Value(value.NewInt(0))
		for _, s := range samples {
			var err error
			acc, err = value.Arith(value.Add, acc, s)
			if err != nil {
				return value.Value{}, err
			}
		}
		return acc, nil
	case ptl.AggAvg:
		if len(samples) == 0 {
			return value.Value{}, nil
		}
		acc := value.Value(value.NewFloat(0))
		for _, s := range samples {
			var err error
			acc, err = value.Arith(value.Add, acc, s)
			if err != nil {
				return value.Value{}, err
			}
		}
		return value.Arith(value.Div, acc, value.NewFloat(float64(len(samples))))
	case ptl.AggMin, ptl.AggMax:
		if len(samples) == 0 {
			return value.Value{}, nil
		}
		best := samples[0]
		for _, s := range samples[1:] {
			c, err := s.Compare(best)
			if err != nil {
				return value.Value{}, err
			}
			if (fn == ptl.AggMin && c < 0) || (fn == ptl.AggMax && c > 0) {
				best = s
			}
		}
		return best, nil
	default:
		return value.Value{}, fmt.Errorf("naive: unknown aggregate %q", fn)
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
