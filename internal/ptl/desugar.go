package ptl

import (
	"fmt"

	"ptlactive/internal/value"
)

// Desugar rewrites derived operators into the basic ones (Section 4.1:
// "other temporal operators ... can be expressed in terms of the basic
// operators"):
//
//	previously f            == true since f
//	throughout f            == not previously not f
//	g since<=d h            == [t <- time] (g since (h and time >= t - d))
//	previously<=d f         == [t <- time] previously (f and time >= t - d)
//	throughout<=d f         == not previously<=d not f
//
// The bounded forms introduce fresh time-anchored variables ($b0, $b1, ...)
// exactly as in the paper's worked IBM example, which is what enables the
// time-bound optimization to discard dead clauses. The result contains only
// BoolConst, Cmp, EventAtom, Executed, Member, Not, And, Or, unbounded
// Since, Lasttime, Assign and Agg terms.
func Desugar(f Formula) Formula {
	d := &desugarer{used: map[string]struct{}{}}
	for _, v := range BoundVars(f) {
		d.used[v] = struct{}{}
	}
	for _, v := range FreeVars(f) {
		d.used[v] = struct{}{}
	}
	d.ff, d.tf = d.formula, d.term
	return d.formula(f)
}

type desugarer struct {
	used map[string]struct{}
	n    int
	// ff and tf are the formula and term methods, bound once.
	ff func(Formula) Formula
	tf func(Term) Term
}

func (d *desugarer) fresh() string {
	for {
		cand := fmt.Sprintf("$b%d", d.n)
		d.n++
		if _, clash := d.used[cand]; !clash {
			d.used[cand] = struct{}{}
			return cand
		}
	}
}

// within builds `time >= t - bound` for the fresh anchor variable t.
func within(t string, bnd int64) Formula {
	return &Cmp{Op: value.GE, L: Time(), R: &Arith{Op: value.Sub, L: V(t), R: CInt(bnd)}}
}

func (d *desugarer) formula(f Formula) Formula {
	switch x := f.(type) {
	case *Since:
		l, r := d.formula(x.L), d.formula(x.R)
		if x.Bound < 0 {
			return &Since{L: l, R: r, Bound: Unbounded}
		}
		t := d.fresh()
		return &Assign{Var: t, Q: Time(),
			Body: &Since{L: l, R: &And{L: r, R: within(t, x.Bound)}, Bound: Unbounded}}
	case *Previously:
		return d.formula(&Since{L: TTrue, R: x.F, Bound: x.Bound})
	case *Throughout:
		return &Not{F: d.formula(&Previously{F: &Not{F: x.F}, Bound: x.Bound})}
	case *Eventually:
		return &Until{L: TTrue, R: d.formula(x.F), Bound: x.Bound}
	case *Always:
		return &Not{F: &Until{L: TTrue, R: d.formula(&Not{F: x.F}), Bound: x.Bound}}
	default:
		return MapChildren(f, d.ff, d.tf)
	}
}

func (d *desugarer) term(t Term) Term { return MapTermChildren(t, d.ff, d.tf) }
