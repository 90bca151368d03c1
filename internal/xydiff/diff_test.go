package xydiff

import (
	"math/rand"
	"strings"
	"testing"

	"xymon/internal/xmldom"
)

func mustDiff(t *testing.T, oldXML, newXML string) (*xmldom.Document, *xmldom.Document, *Delta) {
	t.Helper()
	old := xmldom.MustParse(oldXML)
	new := xmldom.MustParse(newXML)
	delta, err := Diff(old, new)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	return old, new, delta
}

func checkApply(t *testing.T, old, new *xmldom.Document, delta *Delta) {
	t.Helper()
	rebuilt, err := Apply(old, delta)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got, want := rebuilt.XML(), new.XML(); got != want {
		t.Fatalf("Apply mismatch:\n got %s\nwant %s\ndelta %s", got, want, delta.RenderXML("d").XML())
	}
	// XIDs must also match: old + delta must reproduce identities.
	var gotXIDs, wantXIDs []xmldom.XID
	rebuilt.Root.PreOrder(func(n *xmldom.Node) bool { gotXIDs = append(gotXIDs, n.XID); return true })
	new.Root.PreOrder(func(n *xmldom.Node) bool { wantXIDs = append(wantXIDs, n.XID); return true })
	if len(gotXIDs) != len(wantXIDs) {
		t.Fatalf("XID count mismatch: %d vs %d", len(gotXIDs), len(wantXIDs))
	}
	for i := range gotXIDs {
		if gotXIDs[i] != wantXIDs[i] {
			t.Fatalf("XID[%d] = %d, want %d", i, gotXIDs[i], wantXIDs[i])
		}
	}
}

func TestDiffIdentical(t *testing.T) {
	old, new, delta := mustDiff(t,
		`<c><p><n>radio</n></p></c>`,
		`<c><p><n>radio</n></p></c>`)
	if !delta.Empty() {
		t.Errorf("identical documents: delta = %s", delta.RenderXML("d").XML())
	}
	if new.Root.XID != old.Root.XID {
		t.Error("XIDs not propagated on identical documents")
	}
	checkApply(t, old, new, delta)
}

func TestDiffInsert(t *testing.T) {
	old, new, delta := mustDiff(t,
		`<catalog><product>radio</product></catalog>`,
		`<catalog><product>radio</product><product>tv</product></catalog>`)
	if len(delta.Ops) != 1 || delta.Ops[0].Kind != OpInsert {
		t.Fatalf("delta = %s, want one insert", delta.RenderXML("d").XML())
	}
	op := delta.Ops[0]
	if op.Pos != 1 || op.Parent != old.Root.XID {
		t.Errorf("insert op = %+v, want pos 1 under root", op)
	}
	// The surviving product must keep its XID.
	if new.Root.Children[0].XID != old.Root.Children[0].XID {
		t.Error("matched product lost its XID")
	}
	// The inserted product must have a fresh XID.
	if new.Root.Children[1].XID == old.Root.Children[0].XID || new.Root.Children[1].XID == 0 {
		t.Error("inserted product has no fresh XID")
	}
	checkApply(t, old, new, delta)
}

func TestDiffInsertAtFront(t *testing.T) {
	old, new, delta := mustDiff(t,
		`<c><p>b</p></c>`,
		`<c><p>a</p><p>b</p></c>`)
	if len(delta.Ops) != 1 || delta.Ops[0].Kind != OpInsert || delta.Ops[0].Pos != 0 {
		t.Fatalf("delta = %s, want one insert at pos 0", delta.RenderXML("d").XML())
	}
	checkApply(t, old, new, delta)
}

func TestDiffDelete(t *testing.T) {
	old, new, delta := mustDiff(t,
		`<c><p>a</p><p>b</p><p>c</p></c>`,
		`<c><p>a</p><p>c</p></c>`)
	if len(delta.Ops) != 1 || delta.Ops[0].Kind != OpDelete {
		t.Fatalf("delta = %s, want one delete", delta.RenderXML("d").XML())
	}
	if delta.Ops[0].Subtree == nil || delta.Ops[0].Subtree.TextContent() != "b" {
		t.Errorf("deleted subtree = %v, want <p>b</p>", delta.Ops[0].Subtree)
	}
	checkApply(t, old, new, delta)
}

func TestDiffUpdateText(t *testing.T) {
	old, new, delta := mustDiff(t,
		`<c><price>10</price></c>`,
		`<c><price>12</price></c>`)
	if len(delta.Ops) != 1 || delta.Ops[0].Kind != OpUpdate || !delta.Ops[0].TextChanged {
		t.Fatalf("delta = %s, want one text update", delta.RenderXML("d").XML())
	}
	if delta.Ops[0].NewText != "12" {
		t.Errorf("NewText = %q", delta.Ops[0].NewText)
	}
	checkApply(t, old, new, delta)
}

func TestDiffUpdateAttrs(t *testing.T) {
	old, new, delta := mustDiff(t,
		`<c><site url="http://a"/></c>`,
		`<c><site url="http://b"/></c>`)
	if len(delta.Ops) != 1 || delta.Ops[0].Kind != OpUpdate || !delta.Ops[0].AttrsChanged {
		t.Fatalf("delta = %s, want one attr update", delta.RenderXML("d").XML())
	}
	checkApply(t, old, new, delta)
}

func TestDiffMixedEdit(t *testing.T) {
	old, new, delta := mustDiff(t,
		`<catalog>
			<product><name>radio</name><price>10</price></product>
			<product><name>tv</name><price>200</price></product>
		</catalog>`,
		`<catalog>
			<product><name>radio</name><price>12</price></product>
			<product><name>camera</name><price>99</price></product>
			<product><name>tv</name><price>200</price></product>
		</catalog>`)
	if delta.Empty() {
		t.Fatal("expected non-empty delta")
	}
	checkApply(t, old, new, delta)
}

func TestDiffRejectsUnrelatedRoots(t *testing.T) {
	old := xmldom.MustParse(`<a/>`)
	new := xmldom.MustParse(`<b/>`)
	if _, err := Diff(old, new); err == nil {
		t.Error("Diff should reject documents with different roots")
	}
	if _, err := Diff(nil, new); err == nil {
		t.Error("Diff should reject nil old document")
	}
}

func TestApplyErrors(t *testing.T) {
	old := xmldom.MustParse(`<a><b/></a>`)
	cases := []Delta{
		{Ops: []Op{{Kind: OpDelete, XID: 999}}},
		{Ops: []Op{{Kind: OpUpdate, XID: 999, TextChanged: true}}},
		{Ops: []Op{{Kind: OpInsert, Parent: 999, Subtree: xmldom.Element("x")}}},
		{Ops: []Op{{Kind: OpInsert, Parent: old.Root.XID, Pos: 99, Subtree: xmldom.Element("x")}}},
		{Ops: []Op{{Kind: OpDelete, XID: old.Root.XID}}}, // cannot delete root
	}
	for i, d := range cases {
		if _, err := Apply(old, &d); err == nil {
			t.Errorf("case %d: Apply should fail", i)
		}
	}
}

func TestClassifyNewUpdatedDeleted(t *testing.T) {
	_, new, delta := mustDiff(t,
		`<catalog>
			<product><name>radio</name><price>10</price></product>
			<product><name>tv</name></product>
		</catalog>`,
		`<catalog>
			<product><name>radio</name><price>12</price></product>
			<promo><title>sale</title></promo>
		</catalog>`)
	cl := Classify(new, delta)
	newTags := tagSet(cl.NewElems)
	if !newTags["promo"] || !newTags["title"] {
		t.Errorf("NewElems = %v, want inserted promo subtree", newTags)
	}
	updTags := tagSet(cl.UpdatedElems)
	if !updTags["catalog"] || !updTags["product"] || !updTags["price"] {
		t.Errorf("UpdatedElems = %v, want catalog, product, price", updTags)
	}
	var deletedText []string
	for _, s := range cl.DeletedSubtrees {
		deletedText = append(deletedText, s.TextContent())
	}
	if len(deletedText) != 1 || deletedText[0] != "tv" {
		t.Errorf("DeletedSubtrees = %v, want [tv]", deletedText)
	}
	// An element in an inserted subtree must not also be reported updated.
	for _, n := range cl.UpdatedElems {
		for _, m := range cl.NewElems {
			if n == m {
				t.Errorf("element %v both new and updated", n)
			}
		}
	}
}

func TestClassifyEmptyDelta(t *testing.T) {
	doc := xmldom.MustParse(`<a/>`)
	cl := Classify(doc, &Delta{})
	if len(cl.NewElems)+len(cl.UpdatedElems)+len(cl.DeletedSubtrees) != 0 {
		t.Error("empty delta should classify nothing")
	}
}

func tagSet(nodes []*xmldom.Node) map[string]bool {
	s := make(map[string]bool)
	for _, n := range nodes {
		s[n.Data] = true
	}
	return s
}

func TestRenderXML(t *testing.T) {
	_, _, delta := mustDiff(t,
		`<c><p>a</p><q>x</q></c>`,
		`<c><p>b</p><r>y</r></c>`)
	out := delta.RenderXML("Query").XML()
	if !strings.HasPrefix(out, "<Query-delta>") {
		t.Errorf("RenderXML = %s", out)
	}
	for _, want := range []string{"<updated", "<deleted", "<inserted"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderXML missing %s: %s", want, out)
		}
	}
	var nild *Delta
	if got := nild.RenderXML("n").XML(); got != "<n-delta/>" {
		t.Errorf("nil delta render = %s", got)
	}
}

// TestDiffApplyPropertyRandomEdits performs random edit scripts on random
// documents and checks that Apply(old, Diff(old,new)) == new, including
// XIDs — the XyDelta invariant.
func TestDiffApplyPropertyRandomEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		old := xmldom.NewDocument(randomTree(rng, 0))
		new := old.Clone()
		mutateTree(rng, new)
		// Diff must not be confused by arbitrary XIDs on the new version:
		// Diff relabels it from scratch.
		new.Root.PreOrder(func(n *xmldom.Node) bool { n.XID = 0; return true })
		delta, err := Diff(old, new)
		if err != nil {
			t.Fatalf("trial %d: Diff: %v", trial, err)
		}
		rebuilt, err := Apply(old, delta)
		if err != nil {
			t.Fatalf("trial %d: Apply: %v\nold %s\nnew %s\ndelta %s",
				trial, err, old.XML(), new.XML(), delta.RenderXML("d").XML())
		}
		if rebuilt.XML() != new.XML() {
			t.Fatalf("trial %d: mismatch\nold   %s\nnew   %s\ngot   %s\ndelta %s",
				trial, old.XML(), new.XML(), rebuilt.XML(), delta.RenderXML("d").XML())
		}
	}
}

var trialTags = []string{"catalog", "product", "name", "price", "desc"}
var trialWords = []string{"radio", "tv", "camera", "10", "200", "hi-fi", "digital"}

func randomTree(rng *rand.Rand, depth int) *xmldom.Node {
	n := xmldom.Element(trialTags[rng.Intn(len(trialTags))])
	if rng.Intn(3) == 0 {
		n.WithAttr("k", trialWords[rng.Intn(len(trialWords))])
	}
	kids := rng.Intn(4)
	for i := 0; i < kids; i++ {
		if depth >= 3 || rng.Intn(3) == 0 {
			if len(n.Children) == 0 || n.Children[len(n.Children)-1].Type != xmldom.TextNode {
				n.AppendChild(xmldom.Text(trialWords[rng.Intn(len(trialWords))]))
			}
		} else {
			n.AppendChild(randomTree(rng, depth+1))
		}
	}
	return n
}

// mutateTree applies 1..5 random edits to the document.
func mutateTree(rng *rand.Rand, doc *xmldom.Document) {
	edits := 1 + rng.Intn(5)
	for e := 0; e < edits; e++ {
		var elems []*xmldom.Node
		doc.Root.PreOrder(func(n *xmldom.Node) bool {
			if n.Type == xmldom.ElementNode {
				elems = append(elems, n)
			}
			return true
		})
		target := elems[rng.Intn(len(elems))]
		switch rng.Intn(4) {
		case 0: // insert a child subtree
			target.InsertChild(rng.Intn(len(target.Children)+1), randomTree(rng, 3))
		case 1: // delete a child
			if len(target.Children) > 0 {
				target.RemoveChild(rng.Intn(len(target.Children)))
			}
		case 2: // update text
			var texts []*xmldom.Node
			doc.Root.PreOrder(func(n *xmldom.Node) bool {
				if n.Type == xmldom.TextNode {
					texts = append(texts, n)
				}
				return true
			})
			if len(texts) > 0 {
				texts[rng.Intn(len(texts))].Data = trialWords[rng.Intn(len(trialWords))]
			}
		case 3: // change attributes
			target.SetAttrs(nil)
			target.WithAttr("k", trialWords[rng.Intn(len(trialWords))])
		}
	}
}

func TestAnnotateText(t *testing.T) {
	_, new, delta := mustDiff(t,
		`<catalog>
			<product><name>radio</name><price>10</price></product>
			<promo><t>sale</t></promo>
		</catalog>`,
		`<catalog>
			<product><name>radio</name><price>12</price></product>
			<extra><t>new</t></extra>
		</catalog>`)
	out := AnnotateText(new, delta)
	checks := []struct{ marker, content string }{
		{"+ ", "<extra>"},
		{"+ ", `"new"`},
		{"~ ", `"12"`},
		{"- ", "<promo>"},
		{"- ", `"sale"`},
		{"  ", "<catalog>"},
		{"  ", "<name>"},
	}
	for _, c := range checks {
		found := false
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, c.marker) && strings.Contains(line, c.content) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("annotated view missing %q line with %s:\n%s", c.marker, c.content, out)
		}
	}
}

func TestAnnotateTextEmptyDelta(t *testing.T) {
	doc := xmldom.MustParse(`<a><b>x</b></a>`)
	out := AnnotateText(doc, &Delta{})
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.HasPrefix(line, "  ") {
			t.Errorf("unexpected marker in unchanged doc: %q", line)
		}
	}
	if AnnotateText(nil, nil) != "" {
		t.Error("nil doc should render empty")
	}
}
