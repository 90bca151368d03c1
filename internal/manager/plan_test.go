package manager

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"xymon/internal/alerter"
	"xymon/internal/core"
	"xymon/internal/sublang"
	"xymon/internal/warehouse"
	"xymon/internal/webgen"
	"xymon/internal/xmldom"
	"xymon/internal/xyquery"
)

// oracleNotifications is the select-clause interpreter the compiled plan
// replaced: it walks the sublang parse tree per notification, and resolves
// a variable by walking the from and where clauses (oracleVarElements).
// Kept as the reference the plan is held to, byte for byte. It reads the
// query the test registered, never anything the manager kept.
func oracleNotifications(mq *sublang.MonitoringQuery, d *alerter.Doc) []*xmldom.Node {
	sel := mq.Select
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
				for _, n := range oracleVarElements(mq, c.Var, d) {
					e.AppendChild(n)
				}
			}
		}
		return []*xmldom.Node{e}
	case sel != nil && sel.Var != "":
		return oracleVarElements(mq, sel.Var, d)
	default:
		e := xmldom.Element("notification")
		e.WithAttr("url", d.Meta.URL)
		e.WithAttr("status", d.Status.String())
		return []*xmldom.Node{e}
	}
}

// oracleVarElements resolves `select X` payloads as the manager did before
// it compiled them: find X's from binding, then the first change pattern
// and the first contains condition the where clause puts on X, and filter
// the elements bound to X in the current document by them.
func oracleVarElements(mq *sublang.MonitoringQuery, v string, d *alerter.Doc) []*xmldom.Node {
	if d.Doc == nil || d.Doc.Root == nil {
		return nil
	}
	var binding *sublang.FromBinding
	for i := range mq.From {
		if mq.From[i].Var == v {
			binding = &mq.From[i]
			break
		}
	}
	if binding == nil {
		return nil
	}
	nodes := xyquery.Resolve(binding.Path, []*xmldom.Node{d.Doc.Root})
	change := sublang.NoChange
	var wordCond *sublang.Condition
	for i := range mq.Where {
		c := &mq.Where[i]
		if c.Kind != sublang.CondElement || c.Var != v {
			continue
		}
		if c.Change != sublang.NoChange && change == sublang.NoChange {
			change = c.Change
		}
		if c.Str != "" && wordCond == nil {
			wordCond = c
		}
	}
	if wordCond != nil {
		word := xmldom.NormalizeWord(wordCond.Str)
		kept := nodes[:0]
		for _, n := range nodes {
			if wordCond.Strict {
				for _, c := range n.Children {
					if c.Type == xmldom.TextNode && xmldom.ContainsWord(c.Data, word) {
						kept = append(kept, n)
						break
					}
				}
			} else if xmldom.ContainsWord(n.TextContent(), word) {
				kept = append(kept, n)
			}
		}
		nodes = kept
	}
	if change == sublang.NoChange {
		return cloneAll(nodes)
	}
	switch {
	case change == sublang.OpNew && d.Status == warehouse.StatusNew:
		return cloneAll(nodes)
	case d.Status == warehouse.StatusUpdated && d.Delta != nil:
		cl := d.Classification()
		if cl == nil {
			return nil
		}
		if change == sublang.OpDeleted {
			var out []*xmldom.Node
			tag := oracleLastTag(binding.Path)
			for _, sub := range cl.DeletedSubtrees {
				sub.PreOrder(func(n *xmldom.Node) bool {
					if n.Type == xmldom.ElementNode && (tag == "" || n.Data == tag) {
						out = append(out, n.Clone())
					}
					return true
				})
			}
			return out
		}
		var out []*xmldom.Node
		for _, n := range nodes {
			if change == sublang.OpNew && cl.IsNew(n) || change == sublang.OpUpdated && cl.IsUpdated(n) {
				out = append(out, n.Clone())
			}
		}
		return out
	}
	return nil
}

func cloneAll(nodes []*xmldom.Node) []*xmldom.Node {
	out := make([]*xmldom.Node, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, n.Clone())
	}
	return out
}

func oracleLastTag(p xyquery.Path) string {
	if len(p.Steps) == 0 {
		return ""
	}
	t := p.Steps[len(p.Steps)-1].Name
	if t == "*" {
		return ""
	}
	return t
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
// payloads the compiled plan builds with the oracle's. The test keeps the
// queries it registered, by complex event id; the manager keeps only the
// plans, shared between queries whose clauses compile alike, so a key that
// leaves out a field the payload depends on shows here as a mismatch.
func TestPlanMatchesASTWalk(t *testing.T) {
	r := newRig(t)
	rng := rand.New(rand.NewSource(20010521))
	// extra draws what the first version of this test did not vary (strict
	// contains, a second path), so rng's cases stay as they were.
	extra := rand.New(rand.NewSource(7))
	tmpl, err := sublang.Parse("subscription T\nmonitoring\nselect X\nfrom self//product X\nwhere new X\nreport when immediate")
	if err != nil {
		t.Fatal(err)
	}
	paths := []xyquery.Path{tmpl.Monitoring[0].From[0].Path, {Root: "self", Steps: []xyquery.Step{{Axis: xyquery.Descendant, Name: "name"}}}}
	changes := []sublang.ChangeOp{sublang.NoChange, sublang.OpNew, sublang.OpUpdated, sublang.OpDeleted}
	asts := make(map[core.ComplexID]*sublang.MonitoringQuery)
	const subs = 120
	for i := 0; i < subs; i++ {
		path := paths[0]
		if extra.Intn(4) == 0 {
			path = paths[1]
		}
		where := []sublang.Condition{{Kind: sublang.CondURLExtends, Str: "http://d.example/"}}
		if c := changes[rng.Intn(len(changes))]; c != sublang.NoChange || rng.Intn(2) == 0 {
			cond := sublang.Condition{Kind: sublang.CondElement, Var: "X", Tag: "product", Change: c}
			if rng.Intn(3) == 0 {
				cond.Str = webgen.Vocabulary()[rng.Intn(8)]
				cond.Strict = extra.Intn(2) == 0
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
		for j, rq := range r.mgr.subs[sub.Name].queries {
			asts[rq.id] = sub.Monitoring[j]
		}
	}
	if len(r.mgr.plans) >= subs {
		t.Fatalf("%d plans for %d queries: no clause shares a plan, so the key is not exercised", len(r.mgr.plans), subs)
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
					mq := asts[rq.id]
					got := rq.plan.appendPayloads(nil, d)
					want := oracleNotifications(mq, d)
					if len(got) != len(want) {
						t.Fatalf("%s on %s v%d: %d payloads, oracle %d", rq.sub, u, v, len(got), len(want))
					}
					for i := range got {
						if g, w := got[i].XML(), want[i].XML(); g != w {
							t.Fatalf("%s on %s v%d payload %d:\n plan   %s\n oracle %s", rq.sub, u, v, i, g, w)
						}
						if xmldom.FoldUint64(rq.seed, got[i].SubtreeHash()) != xmldom.FoldUint64(
							xmldom.HashFold(xmldom.HashFold(xmldom.HashSeed(), rq.sub), mq.Label()), want[i].SubtreeHash()) {
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
	lit := compileSelect(sub.Monitoring[0])
	if lit.tag != "Offer" || lit.label != "Offer" || len(lit.attrs) != 3 || len(lit.kids) != 3 {
		t.Fatalf("literal plan = %+v", lit)
	}
	if a := lit.attrs; a[0] != (planAttr{"url", "URL", true}) || a[1] != (planAttr{"kind", "x", false}) || a[2] != (planAttr{"n", "3", false}) {
		t.Errorf("attrs = %+v", lit.attrs)
	}
	if k := lit.kids; k[0].text != "seen " || k[0].v != nil || k[1].text != "DATE" || k[1].v == nil || k[2].text != "X" || k[2].v == nil {
		t.Errorf("kids = %+v", lit.kids)
	}
	x := lit.kids[2].v
	if !x.bound || x.path.String() != "self//product" || x.lastTag != "product" || x.change != sublang.OpNew || x.contains {
		t.Errorf("X = %+v", x)
	}
	if v := compileSelect(sub.Monitoring[1]); v.tag != "" || v.label != "X" || v.v == nil || !v.v.bound {
		t.Errorf("variable plan = %+v", v)
	}
	def := compileSelect(&sublang.MonitoringQuery{})
	if def.tag != "notification" || def.label != "notification" || len(def.attrs) != 2 || def.attrs[0] != (planAttr{"url", "URL", true}) {
		t.Errorf("default plan = %+v", def)
	}
}

// TestManagerKeepsNoParseTree pins that the manager keeps a subscription's
// source text and compiled queries, not its parse tree: once the caller
// drops what Subscribe returned, the monitoring query and its select clause
// are garbage, and the compiled plan still builds the payload.
func TestManagerKeepsNoParseTree(t *testing.T) {
	r := newRig(t)
	mq, sel := func() (weak.Pointer[sublang.MonitoringQuery], weak.Pointer[sublang.SelectSpec]) {
		sub, err := r.mgr.Subscribe(`subscription Tree
monitoring
select <Offer url=URL>"new:" X</Offer>
from self//product X
where URL = "http://t.example/c.xml" and new X contains "camera"
report when immediate`)
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		return weak.Make(sub.Monitoring[0]), weak.Make(sub.Monitoring[0].Select)
	}()
	runtime.GC()
	runtime.GC()
	if mq.Value() != nil {
		t.Error("the monitoring query is still reachable")
	}
	if sel.Value() != nil {
		t.Error("the select clause is still reachable")
	}
	// Without this the whole manager is garbage too, and the test would
	// pass whatever it retained.
	runtime.KeepAlive(r.mgr)

	r.commitXML("http://t.example/c.xml", "", "", `<catalog><seed/></catalog>`)
	if n := r.commitXML("http://t.example/c.xml", "", "", `<catalog><seed/>
		<product>digital camera</product><product>radio</product></catalog>`); n != 1 {
		t.Fatalf("notifications = %d, want 1", n)
	}
	if out := r.reports[len(r.reports)-1].Doc.XML(); !strings.Contains(out, `<Offer url="http://t.example/c.xml">new:<product>digital camera</product></Offer>`) {
		t.Errorf("report = %s", out)
	}
}

// TestIdenticalSelectsShareOnePlan pins the intern table: queries whose
// select clauses compile alike share one plan, clauses that differ only in
// what the where clause asks of the selected variable do not, and a plan
// stays interned exactly as long as a registered query holds it — a
// subscription that fails half-way through registration included.
func TestIdenticalSelectsShareOnePlan(t *testing.T) {
	r := newRig(t)
	src := func(name, sel, cond string) string {
		return fmt.Sprintf("subscription %s\nmonitoring\nselect %s\nfrom self//product X\n"+
			"where URL extends \"http://s.example/\" and %s\nreport when immediate", name, sel, cond)
	}
	r.subscribe(src("A", "<A url=URL/>", `self contains "apple"`))
	r.subscribe(src("B", "<A url=URL/>", `self contains "banana"`))
	pa, pb := r.mgr.subs["A"].queries[0].plan, r.mgr.subs["B"].queries[0].plan
	if pa != pb || pa.refs != 2 || len(r.mgr.plans) != 1 {
		t.Fatalf("A and B: plans %p and %p, %d refs, %d interned; want one plan, 2 refs", pa, pb, pa.refs, len(r.mgr.plans))
	}
	r.subscribe(src("N", "X", "new X"))
	r.subscribe(src("U", "X", "updated X"))
	if r.mgr.subs["N"].queries[0].plan == r.mgr.subs["U"].queries[0].plan {
		t.Error("`select X` under new X and under updated X share a plan")
	}
	for _, name := range []string{"A", "B", "N", "U"} {
		if err := r.mgr.Unsubscribe(name); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.mgr.plans) != 0 {
		t.Fatalf("%d plans interned after unsubscribing everything", len(r.mgr.plans))
	}

	const k = 50
	for i := 0; i < k; i++ {
		r.subscribe(src(fmt.Sprintf("K%d", i), fmt.Sprintf("<T%d url=URL/>", i), `self contains "kiwi"`))
	}
	if len(r.mgr.plans) != k {
		t.Fatalf("%d plans for %d distinct literals", len(r.mgr.plans), k)
	}
	// F's first query interns a plan; its second needs a content code the
	// class no longer has, and the rollback must release the first plan.
	r.mgr.seqLimit = r.mgr.nextSeq[sublang.ClassContent]
	_, err := r.mgr.Subscribe("subscription F\nmonitoring\nselect <F1/>\nwhere URL extends \"http://s.example/\" and self contains \"kiwi\"\n" +
		"monitoring\nselect <F2/>\nwhere URL extends \"http://s.example/\" and self contains \"fresh\"\nreport when immediate")
	if !errors.Is(err, ErrCodeSpaceExhausted) {
		t.Fatalf("Subscribe F: %v", err)
	}
	if len(r.mgr.plans) != k {
		t.Fatalf("%d plans after F's rollback, want %d", len(r.mgr.plans), k)
	}
	for i := 0; i < k; i++ {
		if err := r.mgr.Unsubscribe(fmt.Sprintf("K%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.mgr.plans) != 0 {
		t.Fatalf("%d plans interned after unsubscribing K distinct literals", len(r.mgr.plans))
	}
}

// TestDedupHashIsStructuralEquality holds the hash ProcessAlert keys its
// notification dedup on to exact structural equality: over webgen pages
// of both perturbation kinds and random trees, two nodes of a page share
// a SubtreeHash if and only if they serialise to the same XML, and each
// node's SubtreeHash is the value its document's hash vector records.
func TestDedupHashIsStructuralEquality(t *testing.T) {
	var docs []*xmldom.Document
	for i, kind := range []webgen.PerturbKind{webgen.PerturbWhitespace, webgen.PerturbAttrOrder} {
		site := webgen.NewSite(webgen.SiteSpec{Seed: int64(3 + i), Pages: 2, Products: 12, PerturbEvery: 3, PerturbKind: kind})
		for _, url := range site.XMLURLs() {
			for v := 1; v <= 3; v++ {
				d, err := xmldom.ParseBytes(site.FetchXMLBytes(url, v))
				if err != nil {
					t.Fatalf("%s v%d: %v", url, v, err)
				}
				docs = append(docs, d)
			}
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		docs = append(docs, webgen.RandomTree(seed, 150, 6))
	}
	equal := 0 // pairs of distinct nodes with equal XML: the "if" half is exercised
	for i, d := range docs {
		var nodes []*xmldom.Node
		d.Root.PreOrder(func(n *xmldom.Node) bool {
			nodes = append(nodes, n)
			return true
		})
		hv := d.Hashes()
		hash := make([]uint64, len(nodes))
		xml := make([]string, len(nodes))
		for j, n := range nodes {
			hash[j], xml[j] = n.SubtreeHash(), n.XML()
			if hash[j] != hv.Of(n) {
				t.Fatalf("doc %d node %d: SubtreeHash %#x, Hashes().Of %#x", i, j, hash[j], hv.Of(n))
			}
		}
		for a := range nodes {
			for b := a + 1; b < len(nodes); b++ {
				if (hash[a] == hash[b]) != (xml[a] == xml[b]) {
					t.Fatalf("doc %d: nodes %d and %d: equal hash %v, equal XML %v\n %s\n %s",
						i, a, b, hash[a] == hash[b], xml[a] == xml[b], xml[a], xml[b])
				}
				if xml[a] == xml[b] {
					equal++
				}
			}
		}
	}
	if equal == 0 {
		t.Fatal("no two nodes serialise alike: the equal half went untested")
	}
}
