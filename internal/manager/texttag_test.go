package manager

import (
	"fmt"
	"strings"
	"testing"

	"xymon/internal/alerter"
	"xymon/internal/core"
	"xymon/internal/sublang"
	"xymon/internal/warehouse"
	"xymon/internal/xmldom"
	"xymon/internal/xydiff"
	"xymon/internal/xyquery"
)

// A node's Data is an element's tag or a text node's text, so every reader
// of it as a tag must test the node's Type. The pages below carry text
// that spells the tags subscriptions watch ("offer", "deal"), where no
// element has those tags: only an element may answer to a tag.
const (
	textTagV1 = `<catalog><product>offer</product><name>catalog</name><promo>deal</promo></catalog>`
	textTagV2 = `<catalog><product>offer deal</product><name>catalog</name></catalog>`
)

func TestTextNeverActsAsTag(t *testing.T) {
	t.Run("alerter", func(t *testing.T) {
		p := alerter.NewPipeline()
		elem := func(code core.Event, change sublang.ChangeOp, tag, word string, strict bool) {
			p.Register(code, sublang.Condition{Kind: sublang.CondElement, Change: change, Tag: tag, Str: word, Strict: strict})
		}
		elem(1, sublang.NoChange, "offer", "offer", false)
		elem(2, sublang.NoChange, "offer", "offer", true)
		elem(3, sublang.OpNew, "offer", "", false)
		elem(4, sublang.OpNew, "offer", "offer", false)
		elem(5, sublang.OpUpdated, "offer", "", false)
		elem(6, sublang.OpDeleted, "deal", "", false)
		elem(7, sublang.OpDeleted, "deal", "deal", false)
		elem(8, sublang.OpNew, "product", "offer", true) // the live control
		elem(9, sublang.OpDeleted, "promo", "deal", false)

		store := warehouse.NewStore()
		var got []core.EventSet
		for _, v := range []string{textTagV1, textTagV2} {
			res, err := store.CommitXMLBytes("http://t.example/c.xml", "", "", []byte(v))
			if err != nil {
				t.Fatal(err)
			}
			var set core.EventSet
			if a := p.Detect(&alerter.Doc{Meta: res.Meta, Status: res.Status, Doc: res.Doc, Delta: res.Delta}); a != nil {
				set = a.Events
			}
			got = append(got, set)
		}
		if !got[0].Equal(core.EventSet{8}) || !got[1].Equal(core.EventSet{9}) {
			t.Errorf("events = %v then %v, want [8] then [9]", got[0], got[1])
		}
	})

	t.Run("resolve", func(t *testing.T) {
		root := xmldom.MustParse(textTagV1).Root
		text := root.Children[0].Children[0] // "offer"
		for _, c := range []struct {
			path  xyquery.Path
			roots []*xmldom.Node
		}{
			{xyquery.Path{Root: "self", Steps: []xyquery.Step{{Axis: xyquery.Descendant, Name: "offer"}}}, []*xmldom.Node{root}},
			{xyquery.Path{Root: "catalog", Steps: []xyquery.Step{{Axis: xyquery.Child, Name: "product"}, {Axis: xyquery.Child, Name: "offer"}}}, []*xmldom.Node{root}},
			{xyquery.Path{Root: "offer"}, []*xmldom.Node{text}},
		} {
			if got := xyquery.Resolve(c.path, c.roots); len(got) != 0 {
				t.Errorf("Resolve(%s) = %v, want no node", c.path, got)
			}
		}
		if got := xyquery.Resolve(xyquery.Path{Root: "self", Steps: []xyquery.Step{{Axis: xyquery.Descendant, Name: "product"}}}, []*xmldom.Node{root}); len(got) != 1 {
			t.Errorf("Resolve(self//product) = %v, want the product element", got)
		}
	})

	t.Run("select", func(t *testing.T) {
		r := newRig(t)
		for _, s := range []struct{ name, tag, change string }{
			{"NewOffer", "offer", "new"}, {"DeletedDeal", "deal", "deleted"},
			{"NewProduct", "product", "new"}, {"DeletedPromo", "promo", "deleted"},
		} {
			r.subscribe(fmt.Sprintf("subscription %s\nmonitoring\nselect X\nfrom self//%s X\nwhere URL = \"http://t.example/c.xml\" and %s X\nreport when immediate", s.name, s.tag, s.change))
		}
		r.commitXML("http://t.example/c.xml", "", "", textTagV1)
		r.commitXML("http://t.example/c.xml", "", "", textTagV2)
		var got []string
		for _, rep := range r.reports {
			got = append(got, rep.Subscription+":"+rep.Doc.XML())
		}
		if len(got) != 2 || !strings.HasPrefix(got[0], "NewProduct:") || !strings.Contains(got[0], "<product>offer</product>") ||
			!strings.HasPrefix(got[1], "DeletedPromo:") || !strings.Contains(got[1], "<promo>deal</promo>") {
			t.Errorf("reports = %q, want NewProduct's product then DeletedPromo's promo", got)
		}
	})

	// Diff pairs nodes by kind and tag, in the weighted LCS of a small
	// residue and in the greedy pass over one too large for it; a text node
	// spelling an element's tag must not inherit that element's XID.
	t.Run("diff", func(t *testing.T) {
		small := [2]*xmldom.Node{
			xmldom.Element("r", xmldom.Element("b", xmldom.Text("1")), xmldom.Text("x")),
			xmldom.Element("r", xmldom.Text("b"), xmldom.Element("b", xmldom.Text("2"))),
		}
		var oldKids, newKids []*xmldom.Node
		for i := range 130 {
			oldKids = append(oldKids, xmldom.Element("b", xmldom.Text(fmt.Sprint(i))))
			newKids = append(newKids, xmldom.Text("b"))
		}
		large := [2]*xmldom.Node{xmldom.Element("r", oldKids...), xmldom.Element("r", newKids...)}
		for name, pair := range map[string][2]*xmldom.Node{"lcs": small, "greedy": large} {
			old, new := xmldom.NewDocument(pair[0]), xmldom.NewDocument(pair[1])
			want := new.XML()
			delta, err := xydiff.Diff(old, new)
			if err != nil {
				t.Fatal(err)
			}
			byXID := map[xmldom.XID]*xmldom.Node{}
			old.Root.PreOrder(func(n *xmldom.Node) bool { byXID[n.XID] = n; return true })
			new.Root.PreOrder(func(n *xmldom.Node) bool {
				if o := byXID[n.XID]; o != nil && (o.Type != n.Type || n.Type == xmldom.ElementNode && o.Data != n.Data) {
					t.Errorf("%s: new %v took the XID of old %v", name, n, o)
				}
				return true
			})
			if got, err := xydiff.Apply(old, delta); err != nil || got.XML() != want {
				t.Errorf("%s: Apply = %v, %v; want %s", name, got, err, want)
			}
		}
	})
}
