package xyquery

import (
	"xymon/internal/lex"
)

// Parse parses a complete query. The input must start with `select` and
// consume the whole string.
func Parse(src string) (*Query, error) { //xyvet:ignore testonly parses a bare query for the trigger and reporter tests
	p := &parser{lx: lex.New(src)}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if t := p.lx.Peek(); t.Kind != lex.EOF {
		return nil, lex.Errorf(t, "unexpected %s after query", t)
	}
	if err := p.lx.Err(); err != nil {
		return nil, err
	}
	return q, nil
}

// ParsePrefix parses a query from a lexer positioned at its `select`
// keyword and stops at the first token that cannot continue the query,
// leaving it unconsumed. The subscription parser uses this to embed
// queries inside subscription bodies.
func ParsePrefix(lx *lex.Lexer) (*Query, error) {
	p := &parser{lx: lx}
	return p.parseQuery()
}

type parser struct {
	lx *lex.Lexer
}

func (p *parser) parseQuery() (*Query, error) {
	t := p.lx.Next()
	if !t.Is("select") {
		return nil, lex.Errorf(t, "expected 'select', got %s", t)
	}
	q := &Query{}
	if p.lx.Peek().Is("distinct") {
		p.lx.Next()
		q.Distinct = true
	}
	sel, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	q.Select = sel
	if p.lx.Peek().Is("from") {
		p.lx.Next()
		for {
			item, err := p.parseFromItem()
			if err != nil {
				return nil, err
			}
			q.From = append(q.From, item)
			if !p.lx.Peek().IsSymbol(",") {
				break
			}
			p.lx.Next()
		}
	}
	if p.lx.Peek().Is("where") {
		p.lx.Next()
		for {
			pred, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, pred)
			if !p.lx.Peek().Is("and") {
				break
			}
			p.lx.Next()
		}
	}
	return q, nil
}

func (p *parser) parseFromItem() (FromItem, error) {
	path, err := p.parsePath()
	if err != nil {
		return FromItem{}, err
	}
	t := p.lx.Next()
	if t.Kind != lex.Ident {
		return FromItem{}, lex.Errorf(t, "expected variable name after path, got %s", t)
	}
	return FromItem{Path: path, Var: t.Text}, nil
}

// ParsePath parses one path expression — a root name, then steps
// written /name, //name, /* or /@attr, an attribute step last — from a
// lexer positioned at its root, leaving the next token unconsumed. The
// subscription parser reads its from clauses with it.
func ParsePath(lx *lex.Lexer) (Path, error) {
	p := &parser{lx: lx}
	return p.parsePath()
}

func (p *parser) parsePath() (Path, error) {
	t := p.lx.Next()
	if t.Kind != lex.Ident {
		return Path{}, lex.Errorf(t, "expected path, got %s", t)
	}
	path := Path{Root: t.Text}
	for p.lx.Peek().IsSymbol("/") {
		if len(path.Steps) > 0 && path.Steps[len(path.Steps)-1].Attr {
			return Path{}, lex.Errorf(p.lx.Peek(), "attribute step must be last in a path")
		}
		p.lx.Next()
		axis := Child
		if p.lx.Peek().IsSymbol("/") {
			p.lx.Next()
			axis = Descendant
		}
		t := p.lx.Next()
		var name string
		attr := false
		if t.IsSymbol("@") {
			attr = true
			t = p.lx.Next()
		}
		switch {
		case t.Kind == lex.Ident:
			name = t.Text
		case t.IsSymbol("*") && !attr:
			name = "*"
		default:
			return Path{}, lex.Errorf(t, "expected step name after '/', got %s", t)
		}
		path.Steps = append(path.Steps, Step{Axis: axis, Name: name, Attr: attr})
	}
	return path, nil
}

func (p *parser) parsePredicate() (Predicate, error) {
	path, err := p.parsePath()
	if err != nil {
		return Predicate{}, err
	}
	t := p.lx.Next()
	var op PredOp
	switch {
	case t.Is("contains"):
		op = OpContains
	case t.Is("strict"):
		t2 := p.lx.Next()
		if !t2.Is("contains") {
			return Predicate{}, lex.Errorf(t2, "expected 'contains' after 'strict', got %s", t2)
		}
		op = OpStrictContains
	case t.IsSymbol("="):
		op = OpEq
	case t.IsSymbol("!"):
		t2 := p.lx.Next()
		if !t2.IsSymbol("=") {
			return Predicate{}, lex.Errorf(t2, "expected '=' after '!', got %s", t2)
		}
		op = OpNeq
	case t.IsSymbol("<"):
		op = OpLt
	case t.IsSymbol(">"):
		op = OpGt
	default:
		return Predicate{}, lex.Errorf(t, "expected predicate operator, got %s", t)
	}
	v := p.lx.Next()
	if v.Kind != lex.String && v.Kind != lex.Number && v.Kind != lex.Ident {
		return Predicate{}, lex.Errorf(v, "expected value, got %s", v)
	}
	return Predicate{Path: path, Op: op, Value: v.Text}, nil
}
