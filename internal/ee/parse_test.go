package ee

import (
	"fmt"
	"testing"
	"unicode"
)

// The concrete syntax below exists for the tests: the experiments build
// expressions directly.

// Parse parses the concrete syntax:
//
//	expr   := alt
//	alt    := concat { "|" concat }
//	concat := postfix { ";" postfix }
//	postfix:= primary { "*" }
//	primary:= NAME | "." | "(" expr ")" | "()" | "!" primary
func Parse(src string) (Expr, error) {
	p := &eparser{src: src}
	p.skip()
	e, err := p.alt()
	if err != nil {
		return nil, err
	}
	p.skip()
	if p.i < len(p.src) {
		return nil, fmt.Errorf("ee: offset %d: trailing input", p.i)
	}
	return e, nil
}

type eparser struct {
	src string
	i   int
}

func (p *eparser) skip() {
	for p.i < len(p.src) && (p.src[p.i] == ' ' || p.src[p.i] == '\t' || p.src[p.i] == '\n') {
		p.i++
	}
}

func (p *eparser) peek() byte {
	if p.i < len(p.src) {
		return p.src[p.i]
	}
	return 0
}

func (p *eparser) alt() (Expr, error) {
	l, err := p.concat()
	if err != nil {
		return nil, err
	}
	for {
		p.skip()
		if p.peek() != '|' {
			return l, nil
		}
		p.i++
		r, err := p.concat()
		if err != nil {
			return nil, err
		}
		l = &Alt{L: l, R: r}
	}
}

func (p *eparser) concat() (Expr, error) {
	l, err := p.postfix()
	if err != nil {
		return nil, err
	}
	for {
		p.skip()
		if p.peek() != ';' {
			return l, nil
		}
		p.i++
		r, err := p.postfix()
		if err != nil {
			return nil, err
		}
		l = &Concat{L: l, R: r}
	}
}

func (p *eparser) postfix() (Expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		p.skip()
		if p.peek() != '*' {
			return e, nil
		}
		p.i++
		e = &Star{X: e}
	}
}

func (p *eparser) primary() (Expr, error) {
	p.skip()
	switch c := p.peek(); {
	case c == '.':
		p.i++
		return &Any{}, nil
	case c == '!':
		p.i++
		inner, err := p.primary()
		if err != nil {
			return nil, err
		}
		return &Not{X: inner}, nil
	case c == '(':
		p.i++
		p.skip()
		if p.peek() == ')' {
			p.i++
			return &Epsilon{}, nil
		}
		e, err := p.alt()
		if err != nil {
			return nil, err
		}
		p.skip()
		if p.peek() != ')' {
			return nil, fmt.Errorf("ee: offset %d: expected ')'", p.i)
		}
		p.i++
		return e, nil
	case c == '_' || unicode.IsLetter(rune(c)):
		start := p.i
		for p.i < len(p.src) {
			r := rune(p.src[p.i])
			if r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) {
				p.i++
				continue
			}
			break
		}
		return &Sym{Name: p.src[start:p.i]}, nil
	default:
		return nil, fmt.Errorf("ee: offset %d: unexpected %q", p.i, string(c))
	}
}

// FuzzEEParse: the event-expression parser never panics; parses
// round-trip.
func FuzzEEParse(f *testing.F) {
	for _, s := range []string{`a ; b`, `(a | b)* ; !(c)`, `.* ; a ; .*`, `()`, `!!a`} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		back, err := Parse(e.String())
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", e, err)
		}
		if e.String() != back.String() {
			t.Fatalf("round trip changed %q -> %q", e, back)
		}
	})
}
