package query

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"ptlactive/internal/history"
	"ptlactive/internal/relation"
	"ptlactive/internal/value"
)

// RegisterRetrieve installs a query written in the paper's RETRIEVE
// syntax (Section 4.1's OVERPRICED example):
//
//	RETRIEVE (STOCK_FOR_SALE.name)
//	    WHERE STOCK_FOR_SALE.price >= 300 AND STOCK_FOR_SALE.category = "tech"
//
// The query reads one relation-valued database item (the relation named in
// the column references), filters rows by the WHERE condition — boolean
// combinations (AND, OR, NOT) of comparisons between columns and literals
// or other columns — and projects the listed columns. Keywords are
// case-insensitive. The item is read as relation.Admit reads it: an absent
// item or a non-relation holds no rows, and a row the supplied schema does
// not admit is skipped. The query registers under fnName with arity 0.
func (r *Registry) RegisterRetrieve(fnName, src string, schema *relation.Schema) error {
	q, err := parseRetrieve(src, schema)
	if err != nil {
		return err
	}
	return r.Register(fnName, 0, func(st history.SystemState, args []value.Value) (value.Value, error) {
		iv, _ := st.GetItem(q.item)
		proj, err := relation.Admit(schema, iv).Select(q.where.eval).Project(q.project...)
		if err != nil {
			return value.Value{}, fmt.Errorf("query: %s: %v", fnName, err)
		}
		return proj.Value(), nil
	})
}

// retrieveQuery is a compiled RETRIEVE statement.
type retrieveQuery struct {
	item    string
	project []string
	where   rexpr
}

// rexpr is a compiled WHERE expression evaluated per row. A comparison
// over a Null column or across kinds that do not order is false, as in a
// rule's condition (value.Cmp).
type rexpr interface {
	eval(row []value.Value) bool
}

type rtrue struct{}

func (rtrue) eval([]value.Value) bool { return true }

type rnot struct{ x rexpr }

func (n rnot) eval(row []value.Value) bool { return !n.x.eval(row) }

type rbin struct {
	and  bool
	l, r rexpr
}

func (b rbin) eval(row []value.Value) bool {
	if l := b.l.eval(row); l != b.and {
		return l
	}
	return b.r.eval(row)
}

// roperand is a column index or a literal.
type roperand struct {
	col int // -1 for literal
	lit value.Value
}

func (o roperand) value(row []value.Value) value.Value {
	if o.col >= 0 {
		return row[o.col]
	}
	return o.lit
}

type rcmp struct {
	op   value.CmpOp
	l, r roperand
}

func (c rcmp) eval(row []value.Value) bool {
	return value.Cmp(c.op, c.l.value(row), c.r.value(row))
}

// parseRetrieve compiles the statement against the schema.
func parseRetrieve(src string, schema *relation.Schema) (*retrieveQuery, error) {
	p := &rparser{toks: rlex(src), schema: schema}
	if !p.acceptKw("retrieve") {
		return nil, p.errf("expected RETRIEVE")
	}
	if !p.accept("(") {
		return nil, p.errf("expected '(' after RETRIEVE")
	}
	q := &retrieveQuery{where: rtrue{}}
	for {
		item, col, err := p.columnRef()
		if err != nil {
			return nil, err
		}
		if q.item == "" {
			q.item = item
		} else if q.item != item {
			return nil, fmt.Errorf("query: retrieve: joins are not supported; projection mixes %q and %q", q.item, item)
		}
		q.project = append(q.project, col)
		if p.accept(",") {
			continue
		}
		break
	}
	if !p.accept(")") {
		return nil, p.errf("expected ')' after projection")
	}
	if p.acceptKw("where") {
		w, item, err := p.orExpr(q.item)
		if err != nil {
			return nil, err
		}
		if item != "" && q.item != item {
			return nil, fmt.Errorf("query: retrieve: WHERE references %q but projection reads %q", item, q.item)
		}
		q.where = w
	}
	if p.pos < len(p.toks) {
		return nil, p.errf("trailing input")
	}
	// Projecting the empty relation checks that the columns exist and are
	// distinct, so no evaluation fails on them.
	if _, err := relation.New(schema).Project(q.project...); err != nil {
		return nil, fmt.Errorf("query: retrieve: %v", err)
	}
	return q, nil
}

// rlex tokenizes: identifiers (with dots split off), numbers, strings,
// punctuation and comparison operators.
func rlex(src string) []string {
	var toks []string
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case strings.ContainsRune("(),.", rune(c)):
			toks = append(toks, string(c))
			i++
		case c == '<' || c == '>':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, src[i:i+2])
				i += 2
			} else {
				toks = append(toks, string(c))
				i++
			}
		case c == '=':
			toks = append(toks, "=")
			i++
		case c == '!':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, "!=")
				i += 2
			} else {
				toks = append(toks, "!")
				i++
			}
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			if j < len(src) {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		case c >= '0' && c <= '9' || c == '-':
			j := i + 1
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		case c == '_' || unicode.IsLetter(rune(c)):
			j := i
			for j < len(src) && (src[j] == '_' || src[j] == '-' ||
				unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j]))) {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		default:
			toks = append(toks, string(c))
			i++
		}
	}
	return toks
}

type rparser struct {
	toks   []string
	pos    int
	schema *relation.Schema
}

func (p *rparser) errf(format string, args ...any) error {
	where := "end of input"
	if p.pos < len(p.toks) {
		where = fmt.Sprintf("%q", p.toks[p.pos])
	}
	return fmt.Errorf("query: retrieve: %s at %s", fmt.Sprintf(format, args...), where)
}

func (p *rparser) accept(tok string) bool {
	if p.pos < len(p.toks) && p.toks[p.pos] == tok {
		p.pos++
		return true
	}
	return false
}

func (p *rparser) acceptKw(kw string) bool {
	if p.pos < len(p.toks) && strings.EqualFold(p.toks[p.pos], kw) {
		p.pos++
		return true
	}
	return false
}

// columnRef parses item.column; item names are case-preserved, the dot
// separates tokens.
func (p *rparser) columnRef() (item, col string, err error) {
	if p.pos+2 >= len(p.toks)+1 && p.pos >= len(p.toks) {
		return "", "", p.errf("expected a column reference")
	}
	if p.pos >= len(p.toks) {
		return "", "", p.errf("expected a column reference")
	}
	item = p.toks[p.pos]
	p.pos++
	if !p.accept(".") {
		return "", "", p.errf("expected '.' in column reference")
	}
	if p.pos >= len(p.toks) {
		return "", "", p.errf("expected a column name")
	}
	col = p.toks[p.pos]
	p.pos++
	if p.schema.ColumnIndex(col) < 0 {
		return "", "", fmt.Errorf("query: retrieve: column %q not in schema %s", col, p.schema)
	}
	return item, col, nil
}

func (p *rparser) orExpr(item string) (rexpr, string, error) {
	l, item, err := p.andExpr(item)
	if err != nil {
		return nil, "", err
	}
	for p.acceptKw("or") {
		r, it2, err := p.andExpr(item)
		if err != nil {
			return nil, "", err
		}
		item = it2
		l = rbin{and: false, l: l, r: r}
	}
	return l, item, nil
}

func (p *rparser) andExpr(item string) (rexpr, string, error) {
	l, item, err := p.unary(item)
	if err != nil {
		return nil, "", err
	}
	for p.acceptKw("and") {
		r, it2, err := p.unary(item)
		if err != nil {
			return nil, "", err
		}
		item = it2
		l = rbin{and: true, l: l, r: r}
	}
	return l, item, nil
}

func (p *rparser) unary(item string) (rexpr, string, error) {
	if p.acceptKw("not") {
		x, item, err := p.unary(item)
		if err != nil {
			return nil, "", err
		}
		return rnot{x: x}, item, nil
	}
	if p.accept("(") {
		x, item, err := p.orExpr(item)
		if err != nil {
			return nil, "", err
		}
		if !p.accept(")") {
			return nil, "", p.errf("expected ')'")
		}
		return x, item, nil
	}
	// Bare boolean literal as a whole condition (unless it is the left
	// operand of a comparison).
	if p.pos < len(p.toks) && !p.cmpFollows(p.pos+1) {
		if strings.EqualFold(p.toks[p.pos], "true") {
			p.pos++
			return rtrue{}, item, nil
		}
		if strings.EqualFold(p.toks[p.pos], "false") {
			p.pos++
			return rnot{x: rtrue{}}, item, nil
		}
	}
	return p.comparison(item)
}

// cmpFollows reports whether the token at position i is a comparison
// operator.
func (p *rparser) cmpFollows(i int) bool {
	if i >= len(p.toks) {
		return false
	}
	switch p.toks[i] {
	case "=", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *rparser) comparison(item string) (rexpr, string, error) {
	l, item, err := p.operand(item)
	if err != nil {
		return nil, "", err
	}
	var op value.CmpOp
	switch {
	case p.accept("="):
		op = value.EQ
	case p.accept("!="):
		op = value.NE
	case p.accept("<="):
		op = value.LE
	case p.accept("<"):
		op = value.LT
	case p.accept(">="):
		op = value.GE
	case p.accept(">"):
		op = value.GT
	default:
		return nil, "", p.errf("expected a comparison operator")
	}
	r, item, err := p.operand(item)
	if err != nil {
		return nil, "", err
	}
	return rcmp{op: op, l: l, r: r}, item, nil
}

func (p *rparser) operand(item string) (roperand, string, error) {
	if p.pos >= len(p.toks) {
		return roperand{}, "", p.errf("expected an operand")
	}
	tok := p.toks[p.pos]
	switch {
	case strings.HasPrefix(tok, `"`):
		p.pos++
		s, err := strconv.Unquote(tok)
		if err != nil {
			return roperand{}, "", p.errf("bad string literal %s", tok)
		}
		return roperand{col: -1, lit: value.NewString(s)}, item, nil
	case tok != "" && (tok[0] >= '0' && tok[0] <= '9' || tok[0] == '-'):
		p.pos++
		if strings.Contains(tok, ".") {
			f, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return roperand{}, "", p.errf("bad number %s", tok)
			}
			return roperand{col: -1, lit: value.NewFloat(f)}, item, nil
		}
		n, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return roperand{}, "", p.errf("bad number %s", tok)
		}
		return roperand{col: -1, lit: value.NewInt(n)}, item, nil
	case strings.EqualFold(tok, "true"):
		p.pos++
		return roperand{col: -1, lit: value.True}, item, nil
	case strings.EqualFold(tok, "false"):
		p.pos++
		return roperand{col: -1, lit: value.False}, item, nil
	default:
		it, col, err := p.columnRef()
		if err != nil {
			return roperand{}, "", err
		}
		if item == "" {
			item = it
		} else if it != item {
			return roperand{}, "", fmt.Errorf("query: retrieve: joins are not supported; WHERE mixes %q and %q", item, it)
		}
		return roperand{col: p.schema.ColumnIndex(col)}, item, nil
	}
}
