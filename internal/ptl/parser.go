package ptl

import (
	"fmt"
	"strconv"

	"ptlactive/internal/value"
)

// Parse parses a formula in concrete syntax. The grammar, lowest to
// highest precedence:
//
//	formula   := orExpr { "since" [ "<=" INT ] orExpr }         (left assoc)
//	orExpr    := andExpr { "or" andExpr }
//	andExpr   := unary { "and" unary }
//	unary     := "not" unary
//	           | "previously" [ "<=" INT ] unary
//	           | "lasttime" unary
//	           | "throughout" [ "<=" INT ] unary
//	           | "[" IDENT "<-" term "]" unary
//	           | primary
//	primary   := "true" | "false"
//	           | "@" IDENT [ "(" term { "," term } ")" ]
//	           | "executed" "(" IDENT { "," term } ")"
//	           | termAtom
//	           | "(" formula ")"
//	termAtom  := term ( CMPOP term | "in" term )
//	term      := mul { ("+"|"-") mul }
//	mul       := factor { ("*"|"/"|"mod") factor }
//	factor    := INT | FLOAT | STRING | "-" factor
//	           | AGGFN "(" term ";" formula ";" formula ")"
//	           | IDENT [ "(" [ term { "," term } ] ")" ]
//	           | "(" term { "," term } ")"                      (tuple if >1)
//	CMPOP     := "=" | "!=" | "<" | "<=" | ">" | ">="
//
// `time` parses as the reserved zero-ary query. A bare identifier that is
// not followed by "(" is a variable. Comments run from '#' to end of line;
// note '#' inside an identifier is reserved for generated names.
func Parse(src string) (Formula, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	f, err := p.formula()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %s after formula", p.peek().kind)
	}
	return f, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token   { return p.toks[p.i] }
func (p *parser) next() token   { t := p.toks[p.i]; p.i++; return t }
func (p *parser) save() int     { return p.i }
func (p *parser) restore(m int) { p.i = m }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("ptl: offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

// accept consumes the next token if it is an identifier with the given
// lowercase text.
func (p *parser) acceptKw(kw string) bool {
	if p.peek().kind == tokIdent && p.peek().text == kw {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(k tokKind) (token, error) {
	if p.peek().kind != k {
		return token{}, p.errf("expected %s, got %s", k, p.peek().kind)
	}
	return p.next(), nil
}

// optBound parses an optional "<= INT" bound after a temporal keyword.
func (p *parser) optBound() (int64, error) {
	if p.peek().kind != tokLE {
		return Unbounded, nil
	}
	p.next()
	t, err := p.expect(tokInt)
	if err != nil {
		return 0, err
	}
	b, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, p.errf("bad bound %q: %v", t.text, err)
	}
	if b < 0 {
		return 0, p.errf("negative bound %d", b)
	}
	return b, nil
}

func (p *parser) formula() (Formula, error) {
	l, err := p.orExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("since") {
		b, err := p.optBound()
		if err != nil {
			return nil, err
		}
		r, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		l = &Since{L: l, R: r, Bound: b}
	}
	return l, nil
}

func (p *parser) orExpr() (Formula, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("or") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Formula, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("and") {
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = &And{L: l, R: r}
	}
	return l, nil
}

func (p *parser) unary() (Formula, error) {
	switch {
	case p.acceptKw("not"):
		f, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &Not{F: f}, nil
	case p.acceptKw("previously"):
		b, err := p.optBound()
		if err != nil {
			return nil, err
		}
		f, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &Previously{F: f, Bound: b}, nil
	case p.acceptKw("lasttime"):
		f, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &Lasttime{F: f}, nil
	case p.acceptKw("throughout"):
		b, err := p.optBound()
		if err != nil {
			return nil, err
		}
		f, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &Throughout{F: f, Bound: b}, nil
	case p.peek().kind == tokLBracket:
		p.next()
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if isKeyword(name.text) {
			return nil, p.errf("keyword %q cannot be a variable", name.text)
		}
		if _, err := p.expect(tokArrow); err != nil {
			return nil, err
		}
		q, err := p.term()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return nil, err
		}
		body, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &Assign{Var: name.text, Q: q, Body: body}, nil
	default:
		return p.primary()
	}
}

// keywords that can never be variable or event names. The future
// operators until, nexttime, eventually and always (Section 11's future
// work) stay reserved although no production uses them: a condition that
// writes one is refused, and no variable or event may take those names.
func isKeyword(s string) bool {
	switch s {
	case "and", "or", "not", "since", "lasttime", "previously", "throughout",
		"until", "nexttime", "eventually", "always",
		"in", "mod", "true", "false", "executed":
		return true
	}
	return false
}

func (p *parser) primary() (Formula, error) {
	switch {
	case p.acceptKw("true"):
		return TTrue, nil
	case p.acceptKw("false"):
		return TFalse, nil
	case p.peek().kind == tokAt:
		p.next()
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if isKeyword(name.text) {
			return nil, p.errf("keyword %q cannot be an event name", name.text)
		}
		atom := &EventAtom{Name: name.text}
		if p.peek().kind == tokLParen {
			p.next()
			for {
				a, err := p.term()
				if err != nil {
					return nil, err
				}
				atom.Args = append(atom.Args, a)
				if p.peek().kind == tokComma {
					p.next()
					continue
				}
				break
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
		}
		return atom, nil
	case p.acceptKw("executed"):
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		rule, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		var args []Term
		for p.peek().kind == tokComma {
			p.next()
			a, err := p.term()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		if len(args) == 0 {
			return nil, p.errf("executed(%s) needs at least a time argument", rule.text)
		}
		return &Executed{Rule: rule.text, Args: args[:len(args)-1], TimeArg: args[len(args)-1]}, nil
	default:
		// Try a term-based atom first (comparison or membership); fall back
		// to a parenthesized formula. See package doc in ast.go for why the
		// two cannot be distinguished by one-token lookahead.
		mark := p.save()
		if f, err := p.termAtom(); err == nil {
			return f, nil
		}
		p.restore(mark)
		if p.peek().kind == tokLParen {
			p.next()
			f, err := p.formula()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return f, nil
		}
		return nil, p.errf("expected a formula, got %s", p.peek().kind)
	}
}

func (p *parser) termAtom() (Formula, error) {
	// Tuple membership needs special handling: "(" term "," ... ")" "in" r.
	if p.peek().kind == tokLParen {
		mark := p.save()
		p.next()
		var elems []Term
		for {
			t, err := p.term()
			if err != nil {
				p.restore(mark)
				return p.scalarAtom()
			}
			elems = append(elems, t)
			if p.peek().kind == tokComma {
				p.next()
				continue
			}
			break
		}
		if p.peek().kind == tokRParen {
			p.next()
			if p.acceptKw("in") {
				rel, err := p.term()
				if err != nil {
					return nil, err
				}
				return &Member{Elems: elems, Rel: rel}, nil
			}
			if len(elems) > 1 {
				return nil, p.errf("expected 'in' after tuple")
			}
			// Single parenthesized term: resume term parsing from the
			// factor level so "(1 + 2) * 3 = 9" consumes its tail, then
			// finish as a scalar comparison.
			l, err := p.mulTail(elems[0])
			if err != nil {
				return nil, err
			}
			l, err = p.addTail(l)
			if err != nil {
				return nil, err
			}
			return p.finishScalarAtom(l)
		}
		p.restore(mark)
	}
	return p.scalarAtom()
}

func (p *parser) scalarAtom() (Formula, error) {
	l, err := p.term()
	if err != nil {
		return nil, err
	}
	return p.finishScalarAtom(l)
}

func (p *parser) finishScalarAtom(l Term) (Formula, error) {
	if p.acceptKw("in") {
		rel, err := p.term()
		if err != nil {
			return nil, err
		}
		return &Member{Elems: []Term{l}, Rel: rel}, nil
	}
	var op value.CmpOp
	switch p.peek().kind {
	case tokEQ:
		op = value.EQ
	case tokNE:
		op = value.NE
	case tokLT:
		op = value.LT
	case tokLE:
		op = value.LE
	case tokGT:
		op = value.GT
	case tokGE:
		op = value.GE
	default:
		return nil, p.errf("expected a comparison operator, got %s", p.peek().kind)
	}
	p.next()
	r, err := p.term()
	if err != nil {
		return nil, err
	}
	return &Cmp{Op: op, L: l, R: r}, nil
}

func (p *parser) term() (Term, error) {
	l, err := p.mul()
	if err != nil {
		return nil, err
	}
	return p.addTail(l)
}

// addTail consumes +/- continuations after an already-parsed operand.
func (p *parser) addTail(l Term) (Term, error) {
	for {
		switch p.peek().kind {
		case tokPlus:
			p.next()
			r, err := p.mul()
			if err != nil {
				return nil, err
			}
			l = &Arith{Op: value.Add, L: l, R: r}
		case tokMinus:
			p.next()
			r, err := p.mul()
			if err != nil {
				return nil, err
			}
			l = &Arith{Op: value.Sub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) mul() (Term, error) {
	l, err := p.factor()
	if err != nil {
		return nil, err
	}
	return p.mulTail(l)
}

// mulTail consumes */ /mod continuations after an already-parsed factor.
func (p *parser) mulTail(l Term) (Term, error) {
	for {
		switch {
		case p.peek().kind == tokStar:
			p.next()
			r, err := p.factor()
			if err != nil {
				return nil, err
			}
			l = &Arith{Op: value.Mul, L: l, R: r}
		case p.peek().kind == tokSlash:
			p.next()
			r, err := p.factor()
			if err != nil {
				return nil, err
			}
			l = &Arith{Op: value.Div, L: l, R: r}
		case p.acceptKw("mod"):
			r, err := p.factor()
			if err != nil {
				return nil, err
			}
			l = &Arith{Op: value.Mod, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) factor() (Term, error) {
	switch tk := p.peek(); tk.kind {
	case tokInt:
		p.next()
		v, err := strconv.ParseInt(tk.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q: %v", tk.text, err)
		}
		return CInt(v), nil
	case tokFloat:
		p.next()
		v, err := strconv.ParseFloat(tk.text, 64)
		if err != nil {
			return nil, p.errf("bad float %q: %v", tk.text, err)
		}
		return CFloat(v), nil
	case tokString:
		p.next()
		return CStr(tk.text), nil
	case tokMinus:
		p.next()
		x, err := p.factor()
		if err != nil {
			return nil, err
		}
		// Fold negation of numeric literals.
		if c, ok := x.(*Const); ok {
			switch c.V.Kind() {
			case value.Int:
				return CInt(-c.V.AsInt()), nil
			case value.Float:
				return CFloat(-c.V.AsFloat()), nil
			}
		}
		return &Neg{X: x}, nil
	case tokLParen:
		p.next()
		t, err := p.term()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return t, nil
	case tokIdent:
		if isKeyword(tk.text) && tk.text != "true" && tk.text != "false" {
			return nil, p.errf("keyword %q cannot start a term", tk.text)
		}
		p.next()
		if tk.text == "true" {
			return C(value.True), nil
		}
		if tk.text == "false" {
			return C(value.False), nil
		}
		if p.peek().kind != tokLParen {
			if tk.text == "time" {
				return Time(), nil
			}
			return V(tk.text), nil
		}
		p.next() // consume '('
		// Aggregate form: fn(q; start; sample).
		if ValidAggFn(tk.text) {
			mark := p.save()
			q, err := p.term()
			if err == nil && p.peek().kind == tokSemi {
				p.next()
				// Moving-window form: fn(q; window INT; sample).
				if p.acceptKw("window") {
					wt, err := p.expect(tokInt)
					if err != nil {
						return nil, err
					}
					w, err := strconv.ParseInt(wt.text, 10, 64)
					if err != nil || w < 0 {
						return nil, p.errf("bad window %q", wt.text)
					}
					if _, err := p.expect(tokSemi); err != nil {
						return nil, err
					}
					sample, err := p.formula()
					if err != nil {
						return nil, err
					}
					if _, err := p.expect(tokRParen); err != nil {
						return nil, err
					}
					return NewWindowAgg(AggFn(tk.text), q, w, sample), nil
				}
				start, err := p.formula()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tokSemi); err != nil {
					return nil, err
				}
				sample, err := p.formula()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tokRParen); err != nil {
					return nil, err
				}
				return NewAgg(AggFn(tk.text), q, start, sample), nil
			}
			p.restore(mark)
		}
		call := &Call{Fn: tk.text}
		if p.peek().kind == tokRParen {
			p.next()
			return call, nil
		}
		for {
			a, err := p.term()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, a)
			if p.peek().kind == tokComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return call, nil
	default:
		return nil, p.errf("expected a term, got %s", tk.kind)
	}
}
