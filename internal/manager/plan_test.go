package manager

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"xymon/internal/alerter"
	"xymon/internal/sublang"
	"xymon/internal/webgen"
	"xymon/internal/xmldom"
)

// oracleNotifications is the select-clause interpreter the compiled plan
// replaced: it walks the sublang parse tree per notification. Kept as the
// reference the plan is held to, byte for byte.
func (m *Manager) oracleNotifications(rq *registeredQuery, d *alerter.Doc) []*xmldom.Node {
	sel := rq.mq.Select
	switch {
	case sel != nil && sel.Literal != nil:
		e := xmldom.Element(sel.Literal.Tag)
		for _, a := range sel.Literal.Attrs {
			if !a.IsVar {
				e.WithAttr(a.Name, a.Value)
				continue
			}
			e.WithAttr(a.Name, oracleBuiltin(a.Value, d))
		}
		for _, c := range sel.Literal.Children {
			switch {
			case !c.IsVar:
				e.AppendChild(xmldom.Text(c.Text))
			case oracleBuiltin(c.Var, d) != "":
				e.AppendChild(xmldom.Text(oracleBuiltin(c.Var, d)))
			default:
				for _, n := range m.varElements(rq, c.Var, d) {
					e.AppendChild(n)
				}
			}
		}
		return []*xmldom.Node{e}
	case sel != nil && sel.Var != "":
		return m.varElements(rq, sel.Var, d)
	default:
		e := xmldom.Element("notification")
		e.WithAttr("url", d.Meta.URL)
		e.WithAttr("status", d.Status.String())
		return []*xmldom.Node{e}
	}
}

func oracleBuiltin(name string, d *alerter.Doc) string {
	switch name {
	case "URL":
		return d.Meta.URL
	case "DATE":
		return d.Meta.LastAccessed.Format(time.RFC3339)
	case "DOCID":
		return fmt.Sprintf("%d", d.Meta.DocID)
	case "DTD":
		return d.Meta.DTD
	case "DOMAIN":
		return d.Meta.Domain
	case "STATUS":
		return d.Status.String()
	}
	return ""
}

// randomSelect draws a select clause over the variable X (bound by the
// caller's from clause): nil, a bare variable, or a literal mixing constant,
// built-in and plain-variable attributes with text, built-in and variable
// children. It goes beyond what the text grammar validates (a non-built-in
// variable in an attribute, a missing clause) because SubscribeParsed
// accepts those.
func randomSelect(rng *rand.Rand) *sublang.SelectSpec {
	builtins := []string{"URL", "DATE", "DOCID", "DTD", "DOMAIN", "STATUS"}
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return &sublang.SelectSpec{Var: "X"}
	}
	lit := &sublang.LiteralElem{Tag: fmt.Sprintf("T%d", rng.Intn(4))}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		a := sublang.LiteralAttr{Name: fmt.Sprintf("a%d", i)}
		switch rng.Intn(3) {
		case 0:
			a.Value = fmt.Sprintf("v<%d>&\"", rng.Intn(100))
		case 1:
			a.Value, a.IsVar = builtins[rng.Intn(len(builtins))], true
		default:
			a.Value, a.IsVar = "X", true
		}
		lit.Attrs = append(lit.Attrs, a)
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			lit.Children = append(lit.Children, sublang.LiteralChild{Text: fmt.Sprintf("text %d <&>", i)})
		case 1:
			lit.Children = append(lit.Children, sublang.LiteralChild{Var: builtins[rng.Intn(len(builtins))], IsVar: true})
		case 2:
			lit.Children = append(lit.Children, sublang.LiteralChild{Var: "X", IsVar: true})
		default:
			lit.Children = append(lit.Children, sublang.LiteralChild{Var: "Unbound", IsVar: true})
		}
	}
	return &sublang.SelectSpec{Literal: lit}
}

// TestPlanMatchesASTWalk registers generated select clauses and, for every
// version of a set of webgen pages (new, then updated), compares the
// payloads the compiled plan builds with the oracle's.
func TestPlanMatchesASTWalk(t *testing.T) {
	r := newRig(t, nil)
	rng := rand.New(rand.NewSource(20010521))
	tmpl, err := sublang.Parse("subscription T\nmonitoring\nselect X\nfrom self//product X\nwhere new X\nreport when immediate")
	if err != nil {
		t.Fatal(err)
	}
	path := tmpl.Monitoring[0].From[0].Path
	changes := []sublang.ChangeOp{sublang.NoChange, sublang.OpNew, sublang.OpUpdated, sublang.OpDeleted}
	const subs = 120
	for i := 0; i < subs; i++ {
		where := []sublang.Condition{{Kind: sublang.CondURLExtends, Str: "http://d.example/"}}
		if c := changes[rng.Intn(len(changes))]; c != sublang.NoChange || rng.Intn(2) == 0 {
			cond := sublang.Condition{Kind: sublang.CondElement, Var: "X", Tag: "product", Change: c}
			if rng.Intn(3) == 0 {
				cond.Str = webgen.Vocabulary()[rng.Intn(8)]
			}
			where = append(where, cond)
		}
		sub := &sublang.Subscription{
			Name: fmt.Sprintf("D%d", i),
			Monitoring: []*sublang.MonitoringQuery{{
				Select: randomSelect(rng),
				From:   []sublang.FromBinding{{Path: path, Var: "X"}},
				Where:  where,
			}},
		}
		if err := r.mgr.SubscribeParsed(sub); err != nil {
			t.Fatalf("SubscribeParsed: %v", err)
		}
	}

	site := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://d.example/c/", Pages: 3, Products: 6, Seed: 42})
	compared, nonEmpty := 0, 0
	for p, u := range site.XMLURLs() {
		// The first page has no DTD and no domain: a built-in without a
		// value in content falls through to the variable lookup.
		dtd, domain := site.Spec().DTD, "shopping"
		if p == 0 {
			dtd, domain = "", ""
		}
		for v := 1; v <= 4; v++ {
			res, err := r.store.CommitXMLBytes(u, dtd, domain, site.FetchXMLBytes(u, v))
			if err != nil {
				t.Fatalf("commit %s v%d: %v", u, v, err)
			}
			d := &alerter.Doc{Meta: res.Meta, Status: res.Status, Doc: res.Doc, Delta: res.Delta}
			for _, rs := range r.mgr.subs {
				for _, rq := range rs.queries {
					got := r.mgr.appendNotifications(nil, rq, d)
					want := r.mgr.oracleNotifications(rq, d)
					if len(got) != len(want) {
						t.Fatalf("%s on %s v%d: %d payloads, oracle %d", rq.sub, u, v, len(got), len(want))
					}
					for i := range got {
						if g, w := got[i].XML(), want[i].XML(); g != w {
							t.Fatalf("%s on %s v%d payload %d:\n plan   %s\n oracle %s", rq.sub, u, v, i, g, w)
						}
						if got[i].Hash64(rq.seed) != want[i].Hash64(
							xmldom.HashFold(xmldom.HashFold(xmldom.HashSeed(), rq.sub), rq.mq.Label())) {
							t.Fatalf("%s: dedup key differs from the per-notification fold", rq.sub)
						}
						compared++
						if len(got[i].Children) > 0 {
							nonEmpty++
						}
					}
				}
			}
		}
	}
	if compared < subs || nonEmpty == 0 {
		t.Fatalf("compared %d payloads (%d with content): the generator is not exercising the plan", compared, nonEmpty)
	}
}

// TestPlanShapes pins the three shapes a select clause compiles to.
func TestPlanShapes(t *testing.T) {
	sub, err := sublang.Parse(`subscription P
monitoring
select <Offer url=URL kind="x" n=3>"seen " DATE X</Offer>
from self//product X
where URL extends "http://p.example/" and new X
monitoring
select X
from self//product X
where URL extends "http://p.example/" and new X
report when immediate`)
	if err != nil {
		t.Fatal(err)
	}
	lit := compileSelect(sub.Monitoring[0].Select)
	if lit.tag != "Offer" || len(lit.attrs) != 3 || len(lit.kids) != 3 {
		t.Fatalf("literal plan = %+v", lit)
	}
	if lit.attrs[0].slot != builtinURL || lit.attrs[1].value != "x" || lit.attrs[1].slot != noBuiltin || lit.attrs[2].value != "3" {
		t.Errorf("attrs = %+v", lit.attrs)
	}
	if lit.kids[0].text != "seen " || lit.kids[1].slot != builtinDATE || lit.kids[2].v != "X" || lit.kids[2].slot != noBuiltin {
		t.Errorf("kids = %+v", lit.kids)
	}
	if v := compileSelect(sub.Monitoring[1].Select); v.tag != "" || v.v != "X" {
		t.Errorf("variable plan = %+v", v)
	}
	def := compileSelect(nil)
	if def.tag != "notification" || len(def.attrs) != 2 || !strings.HasPrefix(def.attrs[0].name, "url") {
		t.Errorf("default plan = %+v", def)
	}
}
