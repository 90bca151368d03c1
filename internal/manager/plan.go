package manager

import (
	"encoding/binary"
	"strconv"
	"time"

	"xymon/internal/alerter"
	"xymon/internal/sublang"
	"xymon/internal/warehouse"
	"xymon/internal/xmldom"
	"xymon/internal/xydiff"
	"xymon/internal/xyquery"
)

// builtinValue resolves a built-in notification variable of select
// literals against the triggering document; empty for a name that is no
// built-in.
func builtinValue(name string, d *alerter.Doc) string {
	switch name {
	case "URL":
		return d.Meta.URL
	case "DATE":
		return d.Meta.LastAccessed.Format(time.RFC3339)
	case "DOCID":
		return strconv.FormatUint(uint64(d.Meta.DocID), 10)
	case "DTD":
		return d.Meta.DTD
	case "DOMAIN":
		return d.Meta.Domain
	case "STATUS":
		return d.Status.String()
	}
	return ""
}

// selectPlan is a monitoring query's select clause compiled at
// registration against its from and where clauses, so notifications walk
// flat slices and the manager keeps no parse tree. Two shapes: an element
// to instantiate (tag set), or `select X` (tag empty, v the variable).
// Queries whose clauses compile alike share one plan (internPlanLocked).
type selectPlan struct {
	tag, label string
	v          *varPlan
	attrs      []planAttr
	kids       []planKid
	key        string
	refs       int // queries holding the plan; guarded by m.mu
}

// planAttr is one attribute of the element: a constant value, or, when
// isVar, the built-in variable value names ("" if it names none).
type planAttr struct {
	name, value string
	isVar       bool
}

// planKid is one content item of the element: fixed text when v is nil;
// else the variable text names — its built-in value as text when it names
// a built-in with a value in the document, else the elements bound to it.
type planKid struct {
	text string
	v    *varPlan
}

// varPlan is a select variable compiled against its query: its from path,
// and the first change pattern and contains condition the where clause
// puts on it. An unbound variable selects nothing.
type varPlan struct {
	bound, contains, strict bool
	path                    xyquery.Path
	lastTag                 string // the path's last step; "" for "*"
	change                  sublang.ChangeOp
	word                    string // normalised; no text holds an empty word
}

// compileSelect flattens the select clause of mq. A missing clause compiles
// to the default payload, <notification url=URL status=STATUS/>.
func compileSelect(mq *sublang.MonitoringQuery) *selectPlan {
	p, sel := &selectPlan{label: mq.Label()}, mq.Select
	switch {
	case sel != nil && sel.Literal != nil:
		p.tag = sel.Literal.Tag
		for _, a := range sel.Literal.Attrs {
			p.attrs = append(p.attrs, planAttr{name: a.Name, value: a.Value, isVar: a.IsVar})
		}
		for _, c := range sel.Literal.Children {
			k := planKid{text: c.Text}
			if c.IsVar {
				k = planKid{text: c.Var, v: compileVar(mq, c.Var)}
			}
			p.kids = append(p.kids, k)
		}
	case sel != nil && sel.Var != "":
		p.v = compileVar(mq, sel.Var)
	default:
		p.tag = "notification"
		p.attrs = []planAttr{{name: "url", value: "URL", isVar: true}, {name: "status", value: "STATUS", isVar: true}}
	}
	return p
}

func compileVar(mq *sublang.MonitoringQuery, v string) *varPlan {
	p := &varPlan{}
	for _, b := range mq.From {
		if b.Var == v && !p.bound {
			p.bound, p.path = true, b.Path
		}
	}
	if n := len(p.path.Steps); n > 0 && p.path.Steps[n-1].Name != "*" {
		p.lastTag = p.path.Steps[n-1].Name
	}
	for _, c := range mq.Where {
		if c.Kind != sublang.CondElement || c.Var != v {
			continue
		}
		if c.Change != sublang.NoChange && p.change == sublang.NoChange {
			p.change = c.Change
		}
		if c.Str != "" && !p.contains {
			p.contains, p.strict, p.word = true, c.Strict, xmldom.NormalizeWord(c.Str)
		}
	}
	return p
}

// appendKey appends the plan's intern key to b: every field that decides a
// payload or its label, strings length-prefixed, so two plans with one key
// build the same notifications.
func (p *selectPlan) appendKey(b []byte) []byte {
	b = p.v.appendKey(appendString(appendString(b, p.tag), p.label))
	for _, a := range p.attrs {
		b = strconv.AppendBool(appendString(appendString(append(b, 'a'), a.name), a.value), a.isVar)
	}
	for _, k := range p.kids {
		b = k.v.appendKey(appendString(append(b, 'k'), k.text))
	}
	return b
}

func (v *varPlan) appendKey(b []byte) []byte {
	switch {
	case v == nil:
		return append(b, 0)
	case !v.bound:
		return append(b, 1)
	}
	b = strconv.AppendBool(strconv.AppendBool(append(b, 2, byte(v.change)), v.contains), v.strict)
	return appendString(appendString(b, v.word), v.path.String())
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendPayloads materialises the plan against the triggering document of
// a matched query and appends the payloads to dst.
func (p *selectPlan) appendPayloads(dst []*xmldom.Node, d *alerter.Doc) []*xmldom.Node {
	if p.tag == "" {
		return append(dst, p.v.elements(d)...)
	}
	e := xmldom.Element(p.tag)
	if len(p.attrs) > 0 {
		e.Attrs = make([]xmldom.Attr, len(p.attrs))
		for i, a := range p.attrs {
			if a.isVar {
				a.value = builtinValue(a.value, d)
			}
			e.Attrs[i] = xmldom.Attr{Name: a.name, Value: a.value}
		}
	}
	for _, k := range p.kids {
		if k.v == nil {
			e.AppendChild(xmldom.Text(k.text))
		} else if v := builtinValue(k.text, d); v != "" {
			e.AppendChild(xmldom.Text(v))
		} else {
			for _, n := range k.v.elements(d) {
				e.AppendChild(n)
			}
		}
	}
	return append(dst, e)
}

// elements resolves `select X` payloads: the elements bound to X in the
// current document that hold X's word, filtered by X's change pattern (so
// `new X` returns only the new elements), each cloned for the Reporter.
func (p *varPlan) elements(d *alerter.Doc) []*xmldom.Node {
	if d.Doc == nil || d.Doc.Root == nil || !p.bound {
		return nil
	}
	// Every element of a brand-new document is new. Any other change
	// pattern needs the delta's classification, computed once per document
	// (on the Doc, shared with the XML alerter and every matched query).
	var cl *xydiff.Classification
	if p.change != sublang.NoChange && (p.change != sublang.OpNew || d.Status != warehouse.StatusNew) {
		if d.Status != warehouse.StatusUpdated || d.Delta == nil {
			return nil
		}
		if cl = d.Classification(); cl == nil {
			return nil
		}
	}
	var out []*xmldom.Node
	if p.change == sublang.OpDeleted {
		// Deleted elements are in the old version; match by tag among the
		// deleted subtrees.
		for _, sub := range cl.DeletedSubtrees {
			sub.PreOrder(func(n *xmldom.Node) bool {
				if n.Type == xmldom.ElementNode && (p.lastTag == "" || n.Tag == p.lastTag) {
					out = append(out, n.Clone())
				}
				return true
			})
		}
		return out
	}
	for _, n := range xyquery.Resolve(p.path, []*xmldom.Node{d.Doc.Root}) {
		if (!p.contains || p.holdsWord(n)) && (cl == nil ||
			p.change == sublang.OpNew && cl.IsNew(n) || p.change == sublang.OpUpdated && cl.IsUpdated(n)) {
			out = append(out, n.Clone())
		}
	}
	return out
}

// holdsWord reports whether n holds the variable's word: in its own text
// children under strict contains, anywhere in its text otherwise.
func (p *varPlan) holdsWord(n *xmldom.Node) bool {
	if !p.strict {
		return xmldom.ContainsWord(n.TextContent(), p.word)
	}
	for _, c := range n.Children {
		if c.Type == xmldom.TextNode && xmldom.ContainsWord(c.Text, p.word) {
			return true
		}
	}
	return false
}
