// Package ee implements the event-expression formalism the paper compares
// against (Section 10; Gehani, Jagadish & Shmueli): regular expressions
// over the event alphabet, including negation, processed by compiling to a
// finite automaton. Because event expressions use all regular operators
// plus negation, "the size of the automaton can be super-exponential in
// the length of the event-expression" [Stockmeyer 74]: every negation
// forces a subset-construction determinization before complementing. The
// E7 benchmark measures that blowup against the PTL evaluator's state
// size on equivalent conditions.
package ee

import (
	"sort"
	"strings"
)

// Expr is an event expression over an event alphabet.
type Expr interface {
	isExpr()
	String() string
}

// Sym matches one occurrence of a named event.
type Sym struct{ Name string }

// Epsilon matches the empty sequence.
type Epsilon struct{}

// Any matches any single event of the alphabet.
type Any struct{}

// Concat matches L followed by R.
type Concat struct{ L, R Expr }

// Alt matches L or R.
type Alt struct{ L, R Expr }

// Star matches zero or more repetitions of X.
type Star struct{ X Expr }

// Not matches exactly the sequences X does not match (complement relative
// to the alphabet). This is the operator that forces determinization.
type Not struct{ X Expr }

func (*Sym) isExpr()     {}
func (*Epsilon) isExpr() {}
func (*Any) isExpr()     {}
func (*Concat) isExpr()  {}
func (*Alt) isExpr()     {}
func (*Star) isExpr()    {}
func (*Not) isExpr()     {}

func (e *Sym) String() string     { return e.Name }
func (e *Epsilon) String() string { return "()" }
func (e *Any) String() string     { return "." }
func (e *Concat) String() string  { return "(" + e.L.String() + " ; " + e.R.String() + ")" }
func (e *Alt) String() string     { return "(" + e.L.String() + " | " + e.R.String() + ")" }
func (e *Star) String() string    { return e.X.String() + "*" }
func (e *Not) String() string     { return "!(" + e.X.String() + ")" }

// Seq builds a concatenation chain.
func Seq(es ...Expr) Expr {
	if len(es) == 0 {
		return &Epsilon{}
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &Concat{L: out, R: e}
	}
	return out
}

// Symbols returns the sorted event symbols mentioned by the expression.
func Symbols(e Expr) []string {
	seen := map[string]struct{}{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *Sym:
			seen[x.Name] = struct{}{}
		case *Concat:
			walk(x.L)
			walk(x.R)
		case *Alt:
			walk(x.L)
			walk(x.R)
		case *Star:
			walk(x.X)
		case *Not:
			walk(x.X)
		}
	}
	walk(e)
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Alphabet is the finite event alphabet an automaton runs over.
type Alphabet struct {
	names []string
	index map[string]int
}

// NewAlphabet builds an alphabet from symbol names (deduplicated, sorted).
func NewAlphabet(names ...string) *Alphabet {
	seen := map[string]struct{}{}
	var out []string
	for _, n := range names {
		if _, dup := seen[n]; !dup && n != "" {
			seen[n] = struct{}{}
			out = append(out, n)
		}
	}
	sort.Strings(out)
	a := &Alphabet{names: out, index: make(map[string]int, len(out))}
	for i, n := range out {
		a.index[n] = i
	}
	return a
}

// Size returns the number of symbols.
func (a *Alphabet) Size() int { return len(a.names) }

// Names returns the symbols in order.
func (a *Alphabet) Names() []string { return a.names }

// Index returns a symbol's index, or -1.
func (a *Alphabet) Index(name string) int {
	if i, ok := a.index[name]; ok {
		return i
	}
	return -1
}

// String renders the alphabet.
func (a *Alphabet) String() string { return "{" + strings.Join(a.names, ",") + "}" }
