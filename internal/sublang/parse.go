package sublang

import (
	"strconv"
	"time"

	"xymon/internal/lex"
	"xymon/internal/xyquery"
)

// Parse parses one subscription. The input must consume the whole string.
func Parse(src string) (*Subscription, error) {
	p := &parser{lx: lex.New(src)}
	sub, err := p.parseSubscription()
	if err != nil {
		return nil, err
	}
	if t := p.lx.Peek(); t.Kind != lex.EOF {
		return nil, lex.Errorf(t, "unexpected %s after subscription", t)
	}
	if err := p.lx.Err(); err != nil {
		return nil, err
	}
	if err := Validate(sub); err != nil {
		return nil, err
	}
	return sub, nil
}

type parser struct {
	lx *lex.Lexer
}

func (p *parser) expectIdent(what string) (lex.Token, error) {
	t := p.lx.Next()
	if t.Kind != lex.Ident {
		return t, lex.Errorf(t, "expected %s, got %s", what, t)
	}
	return t, nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.lx.Next()
	if !t.Is(kw) {
		return lex.Errorf(t, "expected %q, got %s", kw, t)
	}
	return nil
}

func (p *parser) expectSymbol(s string) error {
	t := p.lx.Next()
	if !t.IsSymbol(s) {
		return lex.Errorf(t, "expected %q, got %s", s, t)
	}
	return nil
}

func (p *parser) parseSubscription() (*Subscription, error) {
	if err := p.expectKeyword("subscription"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent("subscription name")
	if err != nil {
		return nil, err
	}
	sub := &Subscription{Name: name.Text}
	for {
		t := p.lx.Peek()
		switch {
		case t.Is("monitoring"):
			p.lx.Next()
			ms, err := p.parseMonitoring()
			if err != nil {
				return nil, err
			}
			sub.Monitoring = append(sub.Monitoring, ms...)
		case t.Is("continuous"):
			p.lx.Next()
			c, err := p.parseContinuous()
			if err != nil {
				return nil, err
			}
			sub.Continuous = append(sub.Continuous, c)
		case t.Is("report"):
			if sub.Report != nil {
				return nil, lex.Errorf(t, "duplicate report section")
			}
			p.lx.Next()
			r, err := p.parseReport()
			if err != nil {
				return nil, err
			}
			sub.Report = r
		case t.Is("refresh"):
			p.lx.Next()
			r, err := p.parseRefresh()
			if err != nil {
				return nil, err
			}
			sub.Refresh = append(sub.Refresh, r)
		case t.Is("virtual"):
			p.lx.Next()
			v, err := p.parseVirtual()
			if err != nil {
				return nil, err
			}
			sub.Virtual = append(sub.Virtual, v)
		default:
			return sub, nil
		}
	}
}

// parseMonitoring parses `select … (from …)? where …`. The where clause
// is a disjunction of conjunctions of atomic conditions; the Monitoring
// Query Processor matches pure conjunctions (complex events), so each
// disjunct is desugared into its own MonitoringQuery sharing the select
// and from clauses — the disjunction extension Section 7 lists as future
// work, realised by DNF compilation.
func (p *parser) parseMonitoring() ([]*MonitoringQuery, error) {
	var sel *SelectSpec
	var from []FromBinding
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	sel, err := p.parseSelectSpec()
	if err != nil {
		return nil, err
	}
	if p.lx.Peek().Is("from") {
		p.lx.Next()
		for {
			b, err := p.parseFromBinding()
			if err != nil {
				return nil, err
			}
			from = append(from, b)
			if !p.lx.Peek().IsSymbol(",") {
				break
			}
			p.lx.Next()
		}
	}
	if err := p.expectKeyword("where"); err != nil {
		return nil, err
	}
	var queries []*MonitoringQuery
	for {
		m := &MonitoringQuery{Select: sel, From: from}
		for {
			c, err := p.parseCondition()
			if err != nil {
				return nil, err
			}
			m.Where = append(m.Where, c)
			if !p.lx.Peek().Is("and") {
				break
			}
			p.lx.Next()
		}
		queries = append(queries, m)
		if !p.lx.Peek().Is("or") {
			break
		}
		p.lx.Next()
	}
	return queries, nil
}

func (p *parser) parseSelectSpec() (*SelectSpec, error) {
	t := p.lx.Peek()
	if t.IsSymbol("<") {
		lit, err := p.parseLiteralElem()
		if err != nil {
			return nil, err
		}
		return &SelectSpec{Literal: lit}, nil
	}
	v, err := p.expectIdent("select variable or XML literal")
	if err != nil {
		return nil, err
	}
	return &SelectSpec{Var: v.Text}, nil
}

// parseLiteralElem parses `<Tag attr=VALUE … />` or, with content,
// `<Tag attr=VALUE …> (VAR | "text")* </Tag>`.
func (p *parser) parseLiteralElem() (*LiteralElem, error) {
	if err := p.expectSymbol("<"); err != nil {
		return nil, err
	}
	tag, err := p.expectIdent("element tag")
	if err != nil {
		return nil, err
	}
	lit := &LiteralElem{Tag: tag.Text}
	for {
		t := p.lx.Next()
		switch {
		case t.IsSymbol("/"):
			if err := p.expectSymbol(">"); err != nil {
				return nil, err
			}
			return lit, nil
		case t.IsSymbol(">"):
			return lit, p.parseLiteralContent(lit)
		case t.Kind == lex.Ident:
			if err := p.expectSymbol("="); err != nil {
				return nil, err
			}
			v := p.lx.Next()
			switch v.Kind {
			case lex.String, lex.Number:
				lit.Attrs = append(lit.Attrs, LiteralAttr{Name: t.Text, Value: v.Text})
			case lex.Ident:
				lit.Attrs = append(lit.Attrs, LiteralAttr{Name: t.Text, Value: v.Text, IsVar: true})
			default:
				return nil, lex.Errorf(v, "expected attribute value, got %s", v)
			}
		default:
			return nil, lex.Errorf(t, "expected attribute, '/>' or '>', got %s", t)
		}
	}
}

// parseLiteralContent parses the children of an open literal element up to
// the matching close tag.
func (p *parser) parseLiteralContent(lit *LiteralElem) error {
	for {
		t := p.lx.Next()
		switch {
		case t.IsSymbol("<"):
			if err := p.expectSymbol("/"); err != nil {
				return err
			}
			close, err := p.expectIdent("closing tag")
			if err != nil {
				return err
			}
			if close.Text != lit.Tag {
				return lex.Errorf(close, "closing tag %q does not match <%s>", close.Text, lit.Tag)
			}
			return p.expectSymbol(">")
		case t.Kind == lex.Ident:
			lit.Children = append(lit.Children, LiteralChild{Var: t.Text, IsVar: true})
		case t.Kind == lex.String || t.Kind == lex.Number:
			lit.Children = append(lit.Children, LiteralChild{Text: t.Text})
		default:
			return lex.Errorf(t, "expected content or closing tag, got %s", t)
		}
	}
}

func (p *parser) parseFromBinding() (FromBinding, error) {
	at := p.lx.Peek()
	path, err := xyquery.ParsePath(p.lx)
	if err != nil {
		return FromBinding{}, err
	}
	for _, s := range path.Steps {
		if s.Attr {
			return FromBinding{}, lex.Errorf(at, "attribute step @%s in from path %s: a from path binds elements", s.Name, path)
		}
	}
	v, err := p.expectIdent("variable name")
	if err != nil {
		return FromBinding{}, err
	}
	return FromBinding{Path: path, Var: v.Text}, nil
}

// changeOpOf maps a keyword token to a change pattern; "modified" is the
// paper's synonym for "updated".
func changeOpOf(t lex.Token) (ChangeOp, bool) {
	switch {
	case t.Is("new"):
		return OpNew, true
	case t.Is("updated"), t.Is("modified"):
		return OpUpdated, true
	case t.Is("unchanged"):
		return OpUnchanged, true
	case t.Is("deleted"):
		return OpDeleted, true
	}
	return NoChange, false
}

func (p *parser) parseCondition() (Condition, error) {
	t := p.lx.Next()
	if t.Kind != lex.Ident {
		return Condition{}, lex.Errorf(t, "expected condition, got %s", t)
	}
	switch {
	case t.Is("URL"):
		op := p.lx.Next()
		switch {
		case op.Is("extends"):
			s, err := p.expectString()
			if err != nil {
				return Condition{}, err
			}
			return Condition{Kind: CondURLExtends, Str: s}, nil
		case op.IsSymbol("="):
			s, err := p.expectString()
			if err != nil {
				return Condition{}, err
			}
			return Condition{Kind: CondURLEquals, Str: s}, nil
		default:
			return Condition{}, lex.Errorf(op, "expected 'extends' or '=' after URL, got %s", op)
		}
	case t.Is("filename"):
		if err := p.expectSymbol("="); err != nil {
			return Condition{}, err
		}
		s, err := p.expectString()
		if err != nil {
			return Condition{}, err
		}
		return Condition{Kind: CondFilename, Str: s}, nil
	case t.Is("DTD"):
		if err := p.expectSymbol("="); err != nil {
			return Condition{}, err
		}
		s, err := p.expectString()
		if err != nil {
			return Condition{}, err
		}
		return Condition{Kind: CondDTD, Str: s}, nil
	case t.Is("domain"):
		if err := p.expectSymbol("="); err != nil {
			return Condition{}, err
		}
		s, err := p.expectString()
		if err != nil {
			return Condition{}, err
		}
		return Condition{Kind: CondDomain, Str: s}, nil
	case t.Is("DTDID"), t.Is("DOCID"):
		kind := CondDTDID
		if t.Is("DOCID") {
			kind = CondDOCID
		}
		if err := p.expectSymbol("="); err != nil {
			return Condition{}, err
		}
		n := p.lx.Next()
		if n.Kind != lex.Number {
			return Condition{}, lex.Errorf(n, "expected integer, got %s", n)
		}
		v, err := strconv.ParseUint(n.Text, 10, 64)
		if err != nil {
			return Condition{}, lex.Errorf(n, "bad integer %s: %v", n, err)
		}
		return Condition{Kind: kind, Num: v}, nil
	case t.Is("LastAccessed"), t.Is("LastUpdate"):
		kind := CondLastAccessed
		if t.Is("LastUpdate") {
			kind = CondLastUpdate
		}
		cmp, err := p.parseComparator()
		if err != nil {
			return Condition{}, err
		}
		s, err := p.expectString()
		if err != nil {
			return Condition{}, err
		}
		date, err := time.Parse("2006-01-02", s)
		if err != nil {
			return Condition{}, lex.Errorf(t, "bad date %q (want YYYY-MM-DD): %v", s, err)
		}
		return Condition{Kind: kind, Cmp: cmp, Date: date}, nil
	case t.Is("self"):
		strict := false
		if p.lx.Peek().Is("strict") {
			p.lx.Next()
			strict = true
		}
		if err := p.expectKeyword("contains"); err != nil {
			return Condition{}, err
		}
		s, err := p.expectString()
		if err != nil {
			return Condition{}, err
		}
		return Condition{Kind: CondSelfContains, Str: s, Strict: strict}, nil
	default:
		if op, ok := changeOpOf(t); ok {
			target := p.lx.Next()
			if target.Is("self") {
				return Condition{Kind: CondSelfChange, Change: op}, nil
			}
			if target.Kind != lex.Ident {
				return Condition{}, lex.Errorf(target, "expected element tag or variable after %q, got %s", t.Text, target)
			}
			cond := Condition{Kind: CondElement, Change: op, Tag: target.Text}
			return p.parseElementTail(cond)
		}
		// Bare element condition: `Category contains "electronic"`.
		cond := Condition{Kind: CondElement, Tag: t.Text}
		if !p.lx.Peek().Is("contains") && !p.lx.Peek().Is("strict") {
			return Condition{}, lex.Errorf(t, "condition %q needs 'contains' or a change pattern", t.Text)
		}
		return p.parseElementTail(cond)
	}
}

// parseElementTail parses the optional `(strict)? contains "word"` suffix
// of an element condition.
func (p *parser) parseElementTail(cond Condition) (Condition, error) {
	if p.lx.Peek().Is("strict") {
		p.lx.Next()
		cond.Strict = true
		if !p.lx.Peek().Is("contains") {
			return Condition{}, lex.Errorf(p.lx.Peek(), "expected 'contains' after 'strict'")
		}
	}
	if p.lx.Peek().Is("contains") {
		p.lx.Next()
		s, err := p.expectString()
		if err != nil {
			return Condition{}, err
		}
		cond.Str = s
	}
	return cond, nil
}

func (p *parser) parseComparator() (Comparator, error) {
	t := p.lx.Next()
	switch {
	case t.IsSymbol("="):
		return CmpEq, nil
	case t.IsSymbol("<"):
		if p.lx.Peek().IsSymbol("=") {
			p.lx.Next()
			return CmpLe, nil
		}
		return CmpLt, nil
	case t.IsSymbol(">"):
		if p.lx.Peek().IsSymbol("=") {
			p.lx.Next()
			return CmpGe, nil
		}
		return CmpGt, nil
	}
	return CmpEq, lex.Errorf(t, "expected comparator, got %s", t)
}

func (p *parser) expectString() (string, error) {
	t := p.lx.Next()
	if t.Kind != lex.String {
		return "", lex.Errorf(t, "expected quoted string, got %s", t)
	}
	return t.Text, nil
}

// parseContinuous parses `continuous (delta)? Name (query)? (when|try) trigger`.
func (p *parser) parseContinuous() (*ContinuousQuery, error) {
	c := &ContinuousQuery{}
	if p.lx.Peek().Is("delta") {
		p.lx.Next()
		c.Delta = true
	}
	name, err := p.expectIdent("continuous query name")
	if err != nil {
		return nil, err
	}
	c.Name = name.Text
	if p.lx.Peek().Is("select") {
		q, err := xyquery.ParsePrefix(p.lx)
		if err != nil {
			return nil, err
		}
		c.Query = q
	}
	t := p.lx.Next()
	if !t.Is("when") && !t.Is("try") {
		return nil, lex.Errorf(t, "expected 'when' or 'try', got %s", t)
	}
	trigger, err := p.parseTrigger()
	if err != nil {
		return nil, err
	}
	c.When = trigger
	return c, nil
}

func (p *parser) parseTrigger() (TriggerSpec, error) {
	t, err := p.expectIdent("frequency or notification reference")
	if err != nil {
		return TriggerSpec{}, err
	}
	if f, ok := ParseFrequency(t.Text); ok {
		return TriggerSpec{Freq: f}, nil
	}
	if err := p.expectSymbol("."); err != nil {
		return TriggerSpec{}, err
	}
	q, err := p.expectIdent("monitoring query label")
	if err != nil {
		return TriggerSpec{}, err
	}
	return TriggerSpec{NotifSub: t.Text, NotifQuery: q.Text}, nil
}

// parseReport parses `report (query)? when term (or term)* (atmost …)* (archive …)?`.
func (p *parser) parseReport() (*ReportSpec, error) {
	r := &ReportSpec{}
	if p.lx.Peek().Is("select") {
		q, err := xyquery.ParsePrefix(p.lx)
		if err != nil {
			return nil, err
		}
		r.Query = q
	}
	if err := p.expectKeyword("when"); err != nil {
		return nil, err
	}
	for {
		term, err := p.parseReportTerm()
		if err != nil {
			return nil, err
		}
		r.When = append(r.When, term)
		if !p.lx.Peek().Is("or") {
			break
		}
		p.lx.Next()
	}
	for p.lx.Peek().Is("atmost") {
		p.lx.Next()
		t := p.lx.Next()
		switch {
		case t.Kind == lex.Number:
			n, err := strconv.Atoi(t.Text)
			if err != nil || n <= 0 {
				return nil, lex.Errorf(t, "bad atmost count %s", t)
			}
			r.AtMostCount = n
		case t.Kind == lex.Ident:
			f, ok := ParseFrequency(t.Text)
			if !ok {
				return nil, lex.Errorf(t, "bad atmost frequency %s", t)
			}
			r.AtMostFreq = f
		default:
			return nil, lex.Errorf(t, "expected count or frequency after 'atmost', got %s", t)
		}
	}
	if p.lx.Peek().Is("archive") {
		p.lx.Next()
		t, err := p.expectIdent("archive frequency")
		if err != nil {
			return nil, err
		}
		f, ok := ParseFrequency(t.Text)
		if !ok {
			return nil, lex.Errorf(t, "bad archive frequency %s", t)
		}
		r.Archive = f
	}
	return r, nil
}

func (p *parser) parseReportTerm() (ReportTerm, error) {
	t, err := p.expectIdent("report condition")
	if err != nil {
		return ReportTerm{}, err
	}
	if t.Is("immediate") {
		return ReportTerm{Kind: TermImmediate}, nil
	}
	if f, ok := ParseFrequency(t.Text); ok {
		return ReportTerm{Kind: TermPeriodic, Freq: f}, nil
	}
	// notifications.count > N  or  <Label>.count > N
	if err := p.expectSymbol("."); err != nil {
		return ReportTerm{}, err
	}
	if err := p.expectKeyword("count"); err != nil {
		return ReportTerm{}, err
	}
	if err := p.expectSymbol(">"); err != nil {
		return ReportTerm{}, err
	}
	n := p.lx.Next()
	if n.Kind != lex.Number {
		return ReportTerm{}, lex.Errorf(n, "expected count, got %s", n)
	}
	count, err := strconv.Atoi(n.Text)
	if err != nil || count < 0 {
		return ReportTerm{}, lex.Errorf(n, "bad count %s", n)
	}
	if t.Is("notifications") {
		return ReportTerm{Kind: TermCount, Count: count}, nil
	}
	return ReportTerm{Kind: TermTagCount, Tag: t.Text, Count: count}, nil
}

func (p *parser) parseRefresh() (RefreshStatement, error) {
	url, err := p.expectString()
	if err != nil {
		return RefreshStatement{}, err
	}
	t, err := p.expectIdent("refresh frequency")
	if err != nil {
		return RefreshStatement{}, err
	}
	f, ok := ParseFrequency(t.Text)
	if !ok {
		return RefreshStatement{}, lex.Errorf(t, "bad refresh frequency %s", t)
	}
	return RefreshStatement{URL: url, Freq: f}, nil
}

func (p *parser) parseVirtual() (VirtualRef, error) {
	sub, err := p.expectIdent("subscription name")
	if err != nil {
		return VirtualRef{}, err
	}
	if err := p.expectSymbol("."); err != nil {
		return VirtualRef{}, err
	}
	q, err := p.expectIdent("query label")
	if err != nil {
		return VirtualRef{}, err
	}
	return VirtualRef{Subscription: sub.Text, Query: q.Text}, nil
}
