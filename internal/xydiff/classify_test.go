package xydiff

import (
	"slices"
	"testing"

	"xymon/internal/webgen"
	"xymon/internal/xmldom"
)

// classifyByMaps is Classify as it was before the membership vector: an XID
// index over the whole document and two pointer-keyed sets. Kept as the
// oracle.
func classifyByMaps(newDoc *xmldom.Document, delta *Delta) (newElems, updElems, deleted []*xmldom.Node) {
	index := make(map[xmldom.XID]*xmldom.Node)
	newDoc.Root.PreOrder(func(n *xmldom.Node) bool {
		index[n.XID] = n
		return true
	})
	newSet := make(map[*xmldom.Node]bool)
	updSet := make(map[*xmldom.Node]bool)
	markAncestors := func(n *xmldom.Node) {
		for p := n; p != nil; p = p.Parent {
			if p.Type == xmldom.ElementNode && !newSet[p] {
				updSet[p] = true
			}
		}
	}
	for _, op := range delta.Ops {
		switch op.Kind {
		case OpInsert:
			if root := index[op.XID]; root != nil {
				root.PreOrder(func(c *xmldom.Node) bool {
					if c.Type == xmldom.ElementNode {
						newSet[c] = true
					}
					return true
				})
				markAncestors(root.Parent)
			}
		case OpDelete:
			deleted = append(deleted, op.Subtree)
			if p := index[op.Parent]; p != nil {
				markAncestors(p)
			}
		case OpUpdate:
			if n := index[op.XID]; n != nil {
				markAncestors(n)
			}
		}
	}
	newDoc.Root.PreOrder(func(n *xmldom.Node) bool {
		if newSet[n] {
			newElems = append(newElems, n)
		} else if updSet[n] {
			updElems = append(updElems, n)
		}
		return true
	})
	return newElems, updElems, deleted
}

// Classify agrees with the map-based oracle — same elements in the same
// order, and IsNew/IsUpdated true exactly on them — along webgen version
// chains and over the adversarial shapes of the aligner tests.
func TestClassifyMatchesMapOracle(t *testing.T) {
	changed := 0
	check := func(name string, old, new *xmldom.Document) {
		delta, err := Diff(old, new)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !delta.Empty() {
			changed++
		}
		cl := Classify(new, delta)
		wantNew, wantUpd, wantDel := classifyByMaps(new, delta)
		if !slices.Equal(cl.NewElems, wantNew) || !slices.Equal(cl.UpdatedElems, wantUpd) || !slices.Equal(cl.DeletedSubtrees, wantDel) {
			t.Fatalf("%s: new %d/%d, updated %d/%d, deleted %d/%d (got/oracle)", name,
				len(cl.NewElems), len(wantNew), len(cl.UpdatedElems), len(wantUpd), len(cl.DeletedSubtrees), len(wantDel))
		}
		new.Root.PreOrder(func(n *xmldom.Node) bool {
			if cl.IsNew(n) != slices.Contains(wantNew, n) || cl.IsUpdated(n) != slices.Contains(wantUpd, n) {
				t.Fatalf("%s: node %s: IsNew %v, IsUpdated %v", name, n.Tag, cl.IsNew(n), cl.IsUpdated(n))
			}
			return true
		})
	}
	site := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://k.example/c/", Pages: 4, Products: 12, Seed: 31})
	for _, u := range site.XMLURLs() {
		cur := site.FetchXML(u, 1)
		for v := 2; v <= 8; v++ {
			next := site.FetchXML(u, v)
			check(u, cur, next)
			cur = next
		}
	}
	for _, c := range [][2]string{
		{`<a><b>1</b><b>2</b></a>`, `<a><b>2</b><b>1</b><c><d>3</d></c></a>`},
		{`<a><b><c><d>x</d></c></b></a>`, `<a><b><c><d>y</d><e/></c></b></a>`},
		{`<a><b k="1"/><c/></a>`, `<a><b k="2"/></a>`},
		{`<a>t<b/>u</a>`, `<a>t2<b><c/></b></a>`},
	} {
		check(c[0], xmldom.MustParse(c[0]), xmldom.MustParse(c[1]))
	}
	if changed < 10 {
		t.Fatalf("only %d of the version pairs differ", changed)
	}
}
