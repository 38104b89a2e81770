// Evaluator state (de)serialization for the durability subsystem. A
// snapshot must capture, per rule, exactly the Section-5 incremental
// state — the stored constraint formulas F_{g,i-1} (an and-or DAG of
// cnodes) and the aggregate machines — so a recovered engine resumes with
// the same bounded state instead of replaying the whole history
// (Theorem 1 is what makes this snapshot small).
//
// Registers are addressed positionally: the k-th pointer-distinct
// Since/Lasttime occurrence in walkRegisters order of the normalized
// formula maps to the k-th saved register, and aggregates map in aggOrder
// (WalkTerms order). Normalization is deterministic and never shares
// temporal subformula pointers, so recompiling the decoded source formula
// yields the same occurrence sequence.
//
// The cnode DAG is stored as a post-order arena (children precede
// parents) and decoded back through the real constructors; stored graphs
// are constructor fixpoints (ground atoms folded, and/or flattened and
// deduplicated), so reconstruction is exact, including node sharing and
// the nodeTrue/nodeFalse singletons.
package core

import (
	"encoding/json"
	"fmt"

	"ptlactive/internal/ptl"
	"ptlactive/internal/value"
)

// evalState is the wire form of one evaluator's mutable state.
type evalState struct {
	Kind  string `json:"kind"` // "general" | "fast"
	Steps int    `json:"steps"`

	// General evaluator: term/node arenas plus per-occurrence node ids.
	Terms []termRec `json:"terms,omitempty"`
	Nodes []nodeRec `json:"nodes,omitempty"`
	Since []int     `json:"since,omitempty"`
	Last  []int     `json:"last,omitempty"`
	Aggs  []*aggRec `json:"aggs,omitempty"`

	// Fast evaluator: one boolean per occurrence.
	SinceB []bool `json:"sinceb,omitempty"`
	LastB  []bool `json:"lastb,omitempty"`
}

// termRec is one constraint term; child ids always precede the record.
type termRec struct {
	Kind int             `json:"k"`
	V    json.RawMessage `json:"v,omitempty"`    // ctConst
	Name string          `json:"name,omitempty"` // ctVar
	Op   int             `json:"op,omitempty"`   // ctArith
	L    int             `json:"l,omitempty"`
	R    int             `json:"r,omitempty"`
}

// nodeRec is one constraint-formula node; child ids precede the record.
type nodeRec struct {
	Kind  int   `json:"k"`
	Op    int   `json:"op,omitempty"`    // nkAtom
	L     int   `json:"l,omitempty"`     // nkAtom term ids
	R     int   `json:"r,omitempty"`     // nkAtom
	Elems []int `json:"elems,omitempty"` // nkMember term ids
	Rel   int   `json:"rel,omitempty"`   // nkMember term id
	Kids  []int `json:"kids,omitempty"`  // nkAnd/nkOr node ids
	Sub   int   `json:"sub,omitempty"`   // nkNot node id
}

// aggRec is one aggregate machine's state, its live samples only.
type aggRec struct {
	Started bool              `json:"started"`
	Samples []json.RawMessage `json:"samples,omitempty"`
	Times   []int64           `json:"times,omitempty"`
	Sum     json.RawMessage   `json:"sum"`
	Count   int64             `json:"count"`
	StartEv *evalState        `json:"startev,omitempty"`
	SampEv  *evalState        `json:"sampev"`
}

// EncodeEvaluatorState serializes the mutable state of a compiled
// evaluator (general or fast). The static parts — formula, registry,
// execution log — are not included; RestoreEvaluatorState overlays the
// saved state onto a freshly compiled evaluator for the same condition.
func EncodeEvaluatorState(ev ConditionEvaluator) ([]byte, error) {
	var st *evalState
	var err error
	switch x := ev.(type) {
	case *Evaluator:
		st, err = encodeGeneral(x)
	case *FastEvaluator:
		st, err = encodeFast(x)
	default:
		return nil, fmt.Errorf("core: cannot serialize evaluator %T", ev)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(st)
}

// RestoreEvaluatorState overlays state written by EncodeEvaluatorState
// onto a freshly compiled evaluator of the same condition and the same
// implementation (general vs fast).
func RestoreEvaluatorState(ev ConditionEvaluator, data []byte) error {
	var st evalState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("core: evaluator state: %w", err)
	}
	switch x := ev.(type) {
	case *Evaluator:
		return restoreGeneral(x, &st)
	case *FastEvaluator:
		return restoreFast(x, &st)
	default:
		return fmt.Errorf("core: cannot restore evaluator %T", ev)
	}
}

// walkRegisters calls fn on every formula that owns a register of an
// evaluator for f when it is a Since or a Lasttime, in the order snapshots
// list the registers. Both are this package's decision and part of the
// on-disk format (restoreGeneral refuses a count mismatch), which is why
// they are spelled out here rather than borrowed from ptl.Walk:
//
//   - f's own operators in preorder, formula children only;
//   - after a node's formula children, for each aggregate among the node's
//     own terms (at any depth, aggregates inside aggregates included, a
//     term before its subterms): its starting formula, then its sampling
//     formula — each by itself. What lies below them belongs to the
//     aggregate's sub-evaluators, which save their own registers; the slot
//     the outer evaluator holds for a start/sampling formula is never
//     stepped, but snapshots written so far count it.
//
// So [x <- agg(..; lasttime g)] lasttime h lists the body's register before
// the aggregate's. testdata/evalstate_*.json were written under this order.
func walkRegisters(f ptl.Formula, fn func(ptl.Formula)) {
	var own, below func(ptl.Formula)
	var aggs func(ptl.Term)
	noTerm, noFormula := func(ptl.Term) {}, func(ptl.Formula) {}
	own = func(g ptl.Formula) {
		fn(g)
		ptl.Children(g, own, noTerm)
		ptl.Children(g, noFormula, aggs)
	}
	aggs = func(t ptl.Term) {
		if a, ok := t.(*ptl.Agg); ok {
			if a.Start != nil {
				fn(a.Start)
			}
			fn(a.Sample)
		}
		ptl.TermChildren(t, below, aggs)
	}
	below = func(g ptl.Formula) { ptl.Children(g, below, aggs) }
	own(f)
}

// temporalOccurrences lists the Since and Lasttime occurrences of f in
// walkRegisters order — the canonical register order shared by the encoder
// and the decoder. walkRegisters offers each node once and normalization
// shares no temporal node, so the lists hold no pointer twice.
func temporalOccurrences(f ptl.Formula) ([]*ptl.Since, []*ptl.Lasttime) {
	var sinces []*ptl.Since
	var lasts []*ptl.Lasttime
	walkRegisters(f, func(g ptl.Formula) {
		switch x := g.(type) {
		case *ptl.Since:
			sinces = append(sinces, x)
		case *ptl.Lasttime:
			lasts = append(lasts, x)
		}
	})
	return sinces, lasts
}

// stateArena accumulates terms and nodes in post order. Nodes are
// deduplicated by pointer, so the stored DAG keeps its sharing; terms are
// written out in full under every atom that holds them, so which terms
// the interner happens to share does not show in the bytes.
type stateArena struct {
	terms   []termRec
	nodes   []nodeRec
	nodeIDs map[*cnode]int
	err     error
}

func newStateArena() *stateArena {
	return &stateArena{nodeIDs: map[*cnode]int{}}
}

func (a *stateArena) term(t *cterm) int {
	rec := termRec{Kind: int(t.kind)}
	switch t.kind {
	case ctConst:
		raw, err := value.EncodeJSON(t.v)
		if err != nil && a.err == nil {
			a.err = err
		}
		rec.V = raw
	case ctVar:
		rec.Name = t.name
	case ctArith:
		rec.Op = int(t.op)
		rec.L = a.term(t.l)
		rec.R = a.term(t.r)
	default:
		if a.err == nil {
			a.err = fmt.Errorf("core: unknown cterm kind %d", t.kind)
		}
	}
	a.terms = append(a.terms, rec)
	return len(a.terms) - 1
}

func (a *stateArena) node(n *cnode) int {
	if id, ok := a.nodeIDs[n]; ok {
		return id
	}
	rec := nodeRec{Kind: int(n.kind)}
	switch n.kind {
	case nkTrue, nkFalse:
	case nkAtom:
		rec.Op = int(n.op)
		rec.L = a.term(n.l)
		rec.R = a.term(n.r)
	case nkMember:
		rec.Elems = make([]int, len(n.elems))
		for i, e := range n.elems {
			rec.Elems[i] = a.term(e)
		}
		rec.Rel = a.term(n.rel)
	case nkAnd, nkOr:
		rec.Kids = make([]int, len(n.kids))
		for i, k := range n.kids {
			rec.Kids[i] = a.node(k)
		}
	case nkNot:
		rec.Sub = a.node(n.sub)
	default:
		if a.err == nil {
			a.err = fmt.Errorf("core: unknown cnode kind %d", n.kind)
		}
	}
	id := len(a.nodes)
	a.nodes = append(a.nodes, rec)
	a.nodeIDs[n] = id
	return id
}

// decodeArena rebuilds the term and node arenas through the real
// constructors of in. Post order guarantees every child id is below its
// parent, which is also the validity check against corrupted input.
func decodeArena(in *interner, st *evalState) ([]*cterm, []*cnode, error) {
	terms := make([]*cterm, len(st.Terms))
	termAt := func(id, limit int) (*cterm, error) {
		if id < 0 || id >= limit {
			return nil, fmt.Errorf("core: evaluator state: term id %d out of range", id)
		}
		return terms[id], nil
	}
	for i, rec := range st.Terms {
		switch ctKind(rec.Kind) {
		case ctConst:
			v, err := value.DecodeJSON(rec.V)
			if err != nil {
				return nil, nil, fmt.Errorf("core: evaluator state: term %d: %w", i, err)
			}
			terms[i] = in.constTerm(v)
		case ctVar:
			terms[i] = in.varTerm(rec.Name)
		case ctArith:
			l, err := termAt(rec.L, i)
			if err != nil {
				return nil, nil, err
			}
			r, err := termAt(rec.R, i)
			if err != nil {
				return nil, nil, err
			}
			t, err := in.arithTerm(value.ArithOp(rec.Op), l, r)
			if err != nil {
				return nil, nil, fmt.Errorf("core: evaluator state: term %d: %w", i, err)
			}
			terms[i] = t
		default:
			return nil, nil, fmt.Errorf("core: evaluator state: unknown term kind %d", rec.Kind)
		}
	}
	nodes := make([]*cnode, len(st.Nodes))
	nodeAt := func(id, limit int) (*cnode, error) {
		if id < 0 || id >= limit {
			return nil, fmt.Errorf("core: evaluator state: node id %d out of range", id)
		}
		return nodes[id], nil
	}
	for i, rec := range st.Nodes {
		switch nodeKind(rec.Kind) {
		case nkTrue:
			nodes[i] = nodeTrue
		case nkFalse:
			nodes[i] = nodeFalse
		case nkAtom:
			l, err := termAt(rec.L, len(terms))
			if err != nil {
				return nil, nil, err
			}
			r, err := termAt(rec.R, len(terms))
			if err != nil {
				return nil, nil, err
			}
			n, err := in.mkAtom(value.CmpOp(rec.Op), l, r)
			if err != nil {
				return nil, nil, fmt.Errorf("core: evaluator state: node %d: %w", i, err)
			}
			nodes[i] = n
		case nkMember:
			elems := make([]*cterm, len(rec.Elems))
			for j, id := range rec.Elems {
				e, err := termAt(id, len(terms))
				if err != nil {
					return nil, nil, err
				}
				elems[j] = e
			}
			rel, err := termAt(rec.Rel, len(terms))
			if err != nil {
				return nil, nil, err
			}
			n, err := in.mkMember(elems, rel)
			if err != nil {
				return nil, nil, fmt.Errorf("core: evaluator state: node %d: %w", i, err)
			}
			nodes[i] = n
		case nkAnd, nkOr:
			kids := make([]*cnode, len(rec.Kids))
			for j, id := range rec.Kids {
				k, err := nodeAt(id, i)
				if err != nil {
					return nil, nil, err
				}
				kids[j] = k
			}
			if nodeKind(rec.Kind) == nkAnd {
				nodes[i] = in.mkAnd(kids...)
			} else {
				nodes[i] = in.mkOr(kids...)
			}
		case nkNot:
			s, err := nodeAt(rec.Sub, i)
			if err != nil {
				return nil, nil, err
			}
			nodes[i] = in.mkNot(s)
		default:
			return nil, nil, fmt.Errorf("core: evaluator state: unknown node kind %d", rec.Kind)
		}
	}
	return terms, nodes, nil
}

func encodeGeneral(e *Evaluator) (*evalState, error) {
	st := &evalState{Kind: "general", Steps: e.steps}
	ar := newStateArena()
	sinces, lasts := temporalOccurrences(e.info.Normalized)
	if len(sinces) != len(e.sincePrev) || len(lasts) != len(e.lastPrev) {
		return nil, fmt.Errorf("core: internal: occurrence walk found %d/%d registers, evaluator has %d/%d",
			len(sinces), len(lasts), len(e.sincePrev), len(e.lastPrev))
	}
	for _, s := range sinces {
		st.Since = append(st.Since, ar.node(e.sincePrev[s]))
	}
	for _, l := range lasts {
		st.Last = append(st.Last, ar.node(e.lastPrev[l]))
	}
	if ar.err != nil {
		return nil, ar.err
	}
	st.Terms, st.Nodes = ar.terms, ar.nodes
	for _, a := range e.aggOrder {
		rec, err := encodeAggState(e.aggs[a])
		if err != nil {
			return nil, err
		}
		st.Aggs = append(st.Aggs, rec)
	}
	return st, nil
}

func restoreGeneral(e *Evaluator, st *evalState) error {
	if st.Kind != "general" {
		return fmt.Errorf("core: evaluator state kind %q, want general", st.Kind)
	}
	_, nodes, err := decodeArena(newInterner(), st)
	if err != nil {
		return err
	}
	sinces, lasts := temporalOccurrences(e.info.Normalized)
	if len(st.Since) != len(sinces) || len(st.Last) != len(lasts) {
		return fmt.Errorf("core: evaluator state has %d/%d registers, condition needs %d/%d",
			len(st.Since), len(st.Last), len(sinces), len(lasts))
	}
	nodeAt := func(id int) (*cnode, error) {
		if id < 0 || id >= len(nodes) {
			return nil, fmt.Errorf("core: evaluator state: register node id %d out of range", id)
		}
		return nodes[id], nil
	}
	for i, s := range sinces {
		n, err := nodeAt(st.Since[i])
		if err != nil {
			return err
		}
		e.sincePrev[s] = n
	}
	for i, l := range lasts {
		n, err := nodeAt(st.Last[i])
		if err != nil {
			return err
		}
		e.lastPrev[l] = n
	}
	if len(st.Aggs) != len(e.aggOrder) {
		return fmt.Errorf("core: evaluator state has %d aggregates, condition has %d", len(st.Aggs), len(e.aggOrder))
	}
	for i, a := range e.aggOrder {
		if err := restoreAggState(e.aggs[a], st.Aggs[i]); err != nil {
			return err
		}
	}
	e.steps = st.Steps
	e.tab = nil // the next step seeds a table from the restored registers
	return nil
}

func encodeAggState(s *aggState) (*aggRec, error) {
	samples, times := s.live()
	rec := &aggRec{
		Started: s.started,
		Times:   append([]int64(nil), times...),
		Count:   s.count,
	}
	var err error
	if rec.Sum, err = value.EncodeJSON(s.sum); err != nil {
		return nil, err
	}
	for _, v := range samples {
		raw, err := value.EncodeJSON(v)
		if err != nil {
			return nil, err
		}
		rec.Samples = append(rec.Samples, raw)
	}
	if s.startEv != nil {
		if rec.StartEv, err = encodeGeneral(s.startEv); err != nil {
			return nil, err
		}
	}
	if rec.SampEv, err = encodeGeneral(s.sampEv); err != nil {
		return nil, err
	}
	return rec, nil
}

func restoreAggState(s *aggState, rec *aggRec) error {
	if rec == nil {
		return fmt.Errorf("core: evaluator state: missing aggregate record")
	}
	if len(rec.Samples) != len(rec.Times) {
		return fmt.Errorf("core: evaluator state: aggregate has %d samples but %d times", len(rec.Samples), len(rec.Times))
	}
	sum, err := value.DecodeJSON(rec.Sum)
	if err != nil {
		return err
	}
	samples := make([]value.Value, 0, len(rec.Samples))
	for _, raw := range rec.Samples {
		v, err := value.DecodeJSON(raw)
		if err != nil {
			return err
		}
		samples = append(samples, v)
	}
	if (s.startEv == nil) != (rec.StartEv == nil) {
		return fmt.Errorf("core: evaluator state: aggregate start-evaluator presence mismatch")
	}
	if rec.StartEv != nil {
		if err := restoreGeneral(s.startEv, rec.StartEv); err != nil {
			return err
		}
	}
	if rec.SampEv == nil {
		return fmt.Errorf("core: evaluator state: aggregate missing sampling evaluator")
	}
	if err := restoreGeneral(s.sampEv, rec.SampEv); err != nil {
		return err
	}
	s.started = rec.Started
	s.samples, s.head = samples, 0
	s.times = append([]int64(nil), rec.Times...)
	s.sum = sum
	s.count = rec.Count
	return nil
}

func encodeFast(e *FastEvaluator) (*evalState, error) {
	ns := e.nSince
	return &evalState{
		Kind:   "fast",
		Steps:  e.steps,
		SinceB: append([]bool(nil), e.regs[:ns]...),
		LastB:  append([]bool(nil), e.regs[ns:]...),
	}, nil
}

func restoreFast(e *FastEvaluator, st *evalState) error {
	if st.Kind != "fast" {
		return fmt.Errorf("core: evaluator state kind %q, want fast", st.Kind)
	}
	ns, nl := e.nSince, len(e.regs)-e.nSince
	if len(st.SinceB) != ns || len(st.LastB) != nl {
		return fmt.Errorf("core: evaluator state has %d/%d registers, condition needs %d/%d",
			len(st.SinceB), len(st.LastB), ns, nl)
	}
	copy(e.regs, st.SinceB)
	copy(e.regs[ns:], st.LastB)
	e.steps = st.Steps
	return nil
}
