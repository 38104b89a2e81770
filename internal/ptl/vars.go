package ptl

import (
	"fmt"
	"sort"
)

// FreeVars returns the sorted free variables of a formula: variable
// occurrences not bound by an enclosing assignment. The paper calls rules
// with free condition variables "parameterized": any satisfying assignment
// fires the rule and the values pass to the action part.
func FreeVars(f Formula) []string {
	seen := map[string]struct{}{}
	collectFree(f, map[string]int{}, seen)
	return sortedNames(seen)
}

// collectFree adds to out the variables occurring in f outside the scope
// of an assignment to them; bound counts the enclosing assignments per
// name (an assignment's query term is outside its own scope).
func collectFree(f Formula, bound map[string]int, out map[string]struct{}) {
	var ff func(Formula)
	var tf func(Term)
	ff = func(g Formula) {
		switch x := g.(type) {
		case *Assign:
			tf(x.Q)
			bound[x.Var]++
			ff(x.Body)
			bound[x.Var]--
		default:
			Children(g, ff, tf)
		}
	}
	tf = func(t Term) {
		switch x := t.(type) {
		case *Var:
			if bound[x.Name] == 0 {
				out[x.Name] = struct{}{}
			}
		default:
			TermChildren(t, ff, tf)
		}
	}
	ff(f)
}

func sortedNames(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// BoundVars returns the sorted variables bound by assignments anywhere in
// the formula.
func BoundVars(f Formula) []string {
	seen := map[string]struct{}{}
	Walk(f, func(g Formula) {
		if a, ok := g.(*Assign); ok {
			seen[a.Var] = struct{}{}
		}
	})
	return sortedNames(seen)
}

// RenameApart returns a formula in which every assignment binds a distinct
// variable, renaming inner re-bindings (and their occurrences) to fresh
// names. This implements the paper's normalization: "we assume that each
// bound variable x is assigned a query value at most once in the formula;
// if this condition is not satisfied, we can simply rename some of the
// occurrences" (Section 5). Free variables are never renamed.
func RenameApart(f Formula) Formula {
	used := map[string]struct{}{}
	for _, v := range BoundVars(f) {
		used[v] = struct{}{}
	}
	for _, v := range FreeVars(f) {
		used[v] = struct{}{}
	}
	taken := map[string]bool{} // bound names already used by an assignment
	fresh := func(base string) string {
		for i := 1; ; i++ {
			cand := fmt.Sprintf("%s#%d", base, i)
			if _, clash := used[cand]; !clash {
				used[cand] = struct{}{}
				return cand
			}
		}
	}
	env := map[string]string{} // renamings of the assignments in scope
	var rf func(Formula) Formula
	var rt func(Term) Term
	rt = func(t Term) Term {
		switch x := t.(type) {
		case *Var:
			if n, ok := env[x.Name]; ok {
				return &Var{Name: n}
			}
			return x
		default:
			return MapTermChildren(t, rf, rt)
		}
	}
	rf = func(f Formula) Formula {
		switch x := f.(type) {
		case *Assign:
			name := x.Var
			if taken[name] {
				name = fresh(x.Var)
			}
			taken[name] = true
			q := rt(x.Q)
			if name == x.Var {
				return &Assign{Var: name, Q: q, Body: rf(x.Body)}
			}
			outer, shadows := env[x.Var]
			env[x.Var] = name
			body := rf(x.Body)
			if shadows {
				env[x.Var] = outer
			} else {
				delete(env, x.Var)
			}
			return &Assign{Var: name, Q: q, Body: body}
		default:
			return MapChildren(f, rf, rt)
		}
	}
	return rf(f)
}

// Substitute replaces free occurrences of the named variables in f by the
// given terms. Assignments shadow as usual.
func Substitute(f Formula, env map[string]Term) Formula {
	if len(env) == 0 {
		return f
	}
	var rf func(Formula) Formula
	var rt func(Term) Term
	rt = func(t Term) Term {
		switch x := t.(type) {
		case *Var:
			if r, ok := env[x.Name]; ok {
				return r
			}
			return x
		default:
			return MapTermChildren(t, rf, rt)
		}
	}
	rf = func(f Formula) Formula {
		if x, ok := f.(*Assign); ok {
			if _, shadowed := env[x.Var]; shadowed {
				inner := make(map[string]Term, len(env))
				for k, v := range env {
					if k != x.Var {
						inner[k] = v
					}
				}
				return &Assign{Var: x.Var, Q: rt(x.Q), Body: Substitute(x.Body, inner)}
			}
		}
		return MapChildren(f, rf, rt)
	}
	return rf(f)
}
