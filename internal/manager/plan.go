package manager

import (
	"fmt"
	"time"

	"xymon/internal/alerter"
	"xymon/internal/sublang"
)

// builtin is one of the built-in notification variables usable in select
// literals; the zero value means "not a built-in".
type builtin uint8

const (
	noBuiltin builtin = iota
	builtinURL
	builtinDATE
	builtinDOCID
	builtinDTD
	builtinDOMAIN
	builtinSTATUS
)

var builtins = map[string]builtin{
	"URL": builtinURL, "DATE": builtinDATE, "DOCID": builtinDOCID,
	"DTD": builtinDTD, "DOMAIN": builtinDOMAIN, "STATUS": builtinSTATUS,
}

// value resolves the built-in against the triggering document; empty for
// noBuiltin.
func (b builtin) value(d *alerter.Doc) string {
	switch b {
	case builtinURL:
		return d.Meta.URL
	case builtinDATE:
		return d.Meta.LastAccessed.Format(time.RFC3339)
	case builtinDOCID:
		return fmt.Sprintf("%d", d.Meta.DocID)
	case builtinDTD:
		return d.Meta.DTD
	case builtinDOMAIN:
		return d.Meta.Domain
	case builtinSTATUS:
		return d.Status.String()
	}
	return ""
}

// selectPlan is a monitoring query's select clause compiled at
// registration, so the per-notification path walks flat slices instead of
// the sublang parse tree. Two shapes: an element to instantiate (tag set),
// or `select X` (tag empty, v the variable).
type selectPlan struct {
	tag   string
	v     string
	attrs []planAttr
	kids  []planKid
}

// planAttr is one attribute of the element: the constant value, or the
// built-in that supplies it when slot is set.
type planAttr struct {
	name, value string
	slot        builtin
}

// planKid is one content item of the element: fixed text when v is empty;
// else the variable v — its built-in value as text when it names a built-in
// with a value in the document, else the elements bound to it.
type planKid struct {
	text, v string
	slot    builtin
}

// compileSelect flattens a select clause. A missing clause compiles to the
// default payload, <notification url=URL status=STATUS/>.
func compileSelect(sel *sublang.SelectSpec) selectPlan {
	switch {
	case sel != nil && sel.Literal != nil:
		p := selectPlan{tag: sel.Literal.Tag}
		for _, a := range sel.Literal.Attrs {
			if a.IsVar {
				// A variable that is no built-in has no value in an attribute.
				p.attrs = append(p.attrs, planAttr{name: a.Name, slot: builtins[a.Value]})
			} else {
				p.attrs = append(p.attrs, planAttr{name: a.Name, value: a.Value})
			}
		}
		for _, c := range sel.Literal.Children {
			if c.IsVar {
				p.kids = append(p.kids, planKid{v: c.Var, slot: builtins[c.Var]})
			} else {
				p.kids = append(p.kids, planKid{text: c.Text})
			}
		}
		return p
	case sel != nil && sel.Var != "":
		return selectPlan{v: sel.Var}
	}
	return selectPlan{tag: "notification", attrs: []planAttr{
		{name: "url", slot: builtinURL}, {name: "status", slot: builtinSTATUS},
	}}
}
