package ee

import (
	"fmt"
	"sort"
	"strings"
)

// NFA is a nondeterministic finite automaton over an alphabet, with
// epsilon transitions. State 0 is the start state.
type NFA struct {
	alpha *Alphabet
	// eps[s] lists epsilon successors; trans[s][sym] lists successors.
	eps    [][]int
	trans  []map[int][]int
	accept map[int]bool
}

// newNFA allocates an NFA with n states.
func newNFA(alpha *Alphabet, n int) *NFA {
	nfa := &NFA{alpha: alpha, eps: make([][]int, n), trans: make([]map[int][]int, n), accept: map[int]bool{}}
	for i := range nfa.trans {
		nfa.trans[i] = map[int][]int{}
	}
	return nfa
}

// States returns the number of states.
func (n *NFA) States() int { return len(n.eps) }

// addState appends a fresh state and returns its id.
func (n *NFA) addState() int {
	n.eps = append(n.eps, nil)
	n.trans = append(n.trans, map[int][]int{})
	return len(n.eps) - 1
}

// CompileNFA builds an NFA for the expression over the given alphabet via
// Thompson's construction. Negation subterms are determinized and
// complemented (this is where the blowup originates), then re-embedded as
// sub-NFAs. Every symbol of the expression must be in the alphabet.
func CompileNFA(e Expr, alpha *Alphabet) (*NFA, error) {
	for _, s := range Symbols(e) {
		if alpha.Index(s) < 0 {
			return nil, fmt.Errorf("ee: symbol %q not in alphabet %s", s, alpha)
		}
	}
	n := newNFA(alpha, 1) // state 0 = start
	start, end, err := n.build(e)
	if err != nil {
		return nil, err
	}
	n.eps[0] = append(n.eps[0], start)
	n.accept[end] = true
	return n, nil
}

// build constructs the fragment for e and returns its (start, end) states.
func (n *NFA) build(e Expr) (int, int, error) {
	switch x := e.(type) {
	case *Epsilon:
		s := n.addState()
		t := n.addState()
		n.eps[s] = append(n.eps[s], t)
		return s, t, nil
	case *Sym:
		s := n.addState()
		t := n.addState()
		i := n.alpha.Index(x.Name)
		n.trans[s][i] = append(n.trans[s][i], t)
		return s, t, nil
	case *Any:
		s := n.addState()
		t := n.addState()
		for i := 0; i < n.alpha.Size(); i++ {
			n.trans[s][i] = append(n.trans[s][i], t)
		}
		return s, t, nil
	case *Concat:
		ls, le, err := n.build(x.L)
		if err != nil {
			return 0, 0, err
		}
		rs, re, err := n.build(x.R)
		if err != nil {
			return 0, 0, err
		}
		n.eps[le] = append(n.eps[le], rs)
		return ls, re, nil
	case *Alt:
		s := n.addState()
		t := n.addState()
		ls, le, err := n.build(x.L)
		if err != nil {
			return 0, 0, err
		}
		rs, re, err := n.build(x.R)
		if err != nil {
			return 0, 0, err
		}
		n.eps[s] = append(n.eps[s], ls, rs)
		n.eps[le] = append(n.eps[le], t)
		n.eps[re] = append(n.eps[re], t)
		return s, t, nil
	case *Star:
		s := n.addState()
		t := n.addState()
		is, ie, err := n.build(x.X)
		if err != nil {
			return 0, 0, err
		}
		n.eps[s] = append(n.eps[s], is, t)
		n.eps[ie] = append(n.eps[ie], is, t)
		return s, t, nil
	case *Not:
		// Compile the subexpression, determinize, complement, re-embed.
		sub, err := CompileNFA(x.X, n.alpha)
		if err != nil {
			return 0, 0, err
		}
		dfa := sub.Determinize()
		comp := dfa.Complement()
		return n.embedDFA(comp)
	default:
		return 0, 0, fmt.Errorf("ee: unknown expression %T", e)
	}
}

// embedDFA copies a DFA into this NFA as a fragment with a single accept
// end state (epsilon edges from every accepting DFA state).
func (n *NFA) embedDFA(d *DFA) (int, int, error) {
	base := make([]int, d.States())
	for i := range base {
		base[i] = n.addState()
	}
	end := n.addState()
	for s := 0; s < d.States(); s++ {
		for sym, t := range d.trans[s] {
			if t >= 0 {
				n.trans[base[s]][sym] = append(n.trans[base[s]][sym], base[t])
			}
		}
		if d.accept[s] {
			n.eps[base[s]] = append(n.eps[base[s]], end)
		}
	}
	return base[d.start], end, nil
}

// closure expands a state set by epsilon transitions.
func (n *NFA) closure(set map[int]bool) {
	var stack []int
	for s := range set {
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range n.eps[s] {
			if !set[t] {
				set[t] = true
				stack = append(stack, t)
			}
		}
	}
}

// Determinize performs the subset construction.
func (n *NFA) Determinize() *DFA {
	key := func(set map[int]bool) string {
		ids := make([]int, 0, len(set))
		for s := range set {
			ids = append(ids, s)
		}
		sort.Ints(ids)
		var sb strings.Builder
		for _, id := range ids {
			fmt.Fprintf(&sb, "%d,", id)
		}
		return sb.String()
	}
	d := &DFA{alpha: n.alpha}
	start := map[int]bool{0: true}
	n.closure(start)
	index := map[string]int{}
	var sets []map[int]bool
	addSet := func(set map[int]bool) int {
		k := key(set)
		if i, ok := index[k]; ok {
			return i
		}
		i := len(sets)
		index[k] = i
		sets = append(sets, set)
		d.trans = append(d.trans, make([]int, n.alpha.Size()))
		acc := false
		for s := range set {
			if n.accept[s] {
				acc = true
				break
			}
		}
		d.accept = append(d.accept, acc)
		return i
	}
	d.start = addSet(start)
	for i := 0; i < len(sets); i++ {
		for sym := 0; sym < n.alpha.Size(); sym++ {
			next := map[int]bool{}
			for s := range sets[i] {
				for _, t := range n.trans[s][sym] {
					next[t] = true
				}
			}
			n.closure(next)
			d.trans[i][sym] = addSet(next)
		}
	}
	return d
}

// DFA is a complete deterministic automaton (every state has a transition
// for every symbol; the subset construction's empty set is the sink).
type DFA struct {
	alpha  *Alphabet
	start  int
	trans  [][]int
	accept []bool
}

// States returns the number of states.
func (d *DFA) States() int { return len(d.trans) }

// Start returns the start state.
func (d *DFA) Start() int { return d.start }

// Accepting reports whether a state accepts.
func (d *DFA) Accepting(state int) bool { return d.accept[state] }

// Step advances from a state on an event symbol; unknown symbols return
// -1.
func (d *DFA) Step(state int, symbol string) int {
	i := d.alpha.Index(symbol)
	if i < 0 {
		return -1
	}
	return d.trans[state][i]
}

// Complement flips acceptance (the DFA is complete, so this recognizes
// exactly the complement language).
func (d *DFA) Complement() *DFA {
	out := &DFA{alpha: d.alpha, start: d.start, trans: d.trans, accept: make([]bool, len(d.accept))}
	for i, a := range d.accept {
		out.accept[i] = !a
	}
	return out
}

// Minimize returns an equivalent minimal DFA (Hopcroft-style partition
// refinement, simple quadratic implementation). The E7 benchmark reports
// both raw and minimized sizes, since even the minimal automata blow up.
func (d *DFA) Minimize() *DFA {
	n := d.States()
	if n == 0 {
		return d
	}
	// Initial partition: accepting vs non-accepting.
	part := make([]int, n)
	for i, a := range d.accept {
		if a {
			part[i] = 1
		}
	}
	numParts := 2
	for {
		// Signature of a state: its partition plus the partitions of its
		// successors.
		sig := make([]string, n)
		for s := 0; s < n; s++ {
			var sb strings.Builder
			fmt.Fprintf(&sb, "%d:", part[s])
			for _, t := range d.trans[s] {
				fmt.Fprintf(&sb, "%d,", part[t])
			}
			sig[s] = sb.String()
		}
		index := map[string]int{}
		next := make([]int, n)
		count := 0
		for s := 0; s < n; s++ {
			if i, ok := index[sig[s]]; ok {
				next[s] = i
			} else {
				index[sig[s]] = count
				next[s] = count
				count++
			}
		}
		if count == numParts {
			break
		}
		part = next
		numParts = count
	}
	out := &DFA{alpha: d.alpha, start: part[d.start],
		trans: make([][]int, numParts), accept: make([]bool, numParts)}
	for s := 0; s < n; s++ {
		p := part[s]
		if out.trans[p] == nil {
			out.trans[p] = make([]int, d.alpha.Size())
			for sym, t := range d.trans[s] {
				out.trans[p][sym] = part[t]
			}
			out.accept[p] = d.accept[s]
		}
	}
	return out
}

// Matcher runs a DFA over an event stream.
type Matcher struct {
	dfa   *DFA
	state int
	dead  bool
}

// NewMatcher starts a matcher at the DFA's start state.
func NewMatcher(d *DFA) *Matcher { return &Matcher{dfa: d, state: d.start} }

// Step consumes one event occurrence.
func (m *Matcher) Step(symbol string) {
	if m.dead {
		return
	}
	next := m.dfa.Step(m.state, symbol)
	if next < 0 {
		m.dead = true
		return
	}
	m.state = next
}

// Accepting reports whether the consumed prefix is in the language.
func (m *Matcher) Accepting() bool { return !m.dead && m.dfa.Accepting(m.state) }

// Reset returns the matcher to the start state.
func (m *Matcher) Reset() { m.state = m.dfa.start; m.dead = false }
