package xydiff

import (
	"fmt"
	"testing"
	"testing/quick"

	"xymon/internal/xmldom"
)

// buildDoc turns quick-generated bytes into a small document tree,
// deterministically.
func buildDoc(blueprint []byte) *xmldom.Document {
	tags := []string{"catalog", "product", "name", "price"}
	words := []string{"radio", "tv", "10", "camera"}
	root := xmldom.Element("doc")
	stack := []*xmldom.Node{root}
	for _, b := range blueprint {
		top := stack[len(stack)-1]
		switch b % 4 {
		case 0: // push element
			if len(stack) < 5 {
				e := xmldom.Element(tags[int(b/4)%len(tags)])
				top.AppendChild(e)
				stack = append(stack, e)
			}
		case 1: // pop
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
			}
		case 2: // text (avoid adjacent text nodes)
			if n := len(top.Children); n == 0 || top.Children[n-1].Type != xmldom.TextNode {
				top.AppendChild(xmldom.Text(words[int(b/4)%len(words)]))
			}
		case 3: // attribute
			if _, ok := top.Attr("k"); !ok {
				top.WithAttr("k", words[int(b/4)%len(words)])
			}
		}
	}
	return xmldom.NewDocument(root)
}

// Property: for arbitrary version pairs with the same root, Apply(old,
// Diff(old,new)) reproduces new exactly.
func TestQuickDiffApplyIdentity(t *testing.T) {
	f := func(a, b []byte) bool {
		old := buildDoc(a)
		new := buildDoc(b)
		delta, err := Diff(old, new)
		if err != nil {
			return false
		}
		rebuilt, err := Apply(old, delta)
		if err != nil {
			t.Logf("apply failed: %v\nold %s\nnew %s", err, old.XML(), new.XML())
			return false
		}
		return rebuilt.XML() == new.XML()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: diffing a document against itself is empty, and the empty
// delta applies to the identity.
func TestQuickDiffSelfEmpty(t *testing.T) {
	f := func(a []byte) bool {
		doc := buildDoc(a)
		copy := doc.Clone()
		copy.Root.PreOrder(func(n *xmldom.Node) bool { n.XID = 0; return true })
		delta, err := Diff(doc, copy)
		if err != nil || !delta.Empty() {
			return false
		}
		rebuilt, err := Apply(doc, delta)
		return err == nil && rebuilt.XML() == doc.XML()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- adversarial shapes, run against both aligners -----------------------
//
// The anchor aligner (alignAnchors) replaced the full-table weighted LCS
// (alignLCS) on the hot path. These tests run shapes chosen to break
// anchor-style diffing — duplicated siblings (no unique hashes), reordered
// children (anchors must not cross), large fan-out (greedy fallback past
// maxDPCells), and text/attr-only edits — through BOTH aligners and demand
// that each reconstructs the new version exactly, XIDs included.

// diffBothAligners diffs old→new with each aligner on fresh clones,
// verifies Apply reproduces the new version's XML and XID labeling, and
// returns the XID-labeled new documents (LCS first, anchors second).
func diffBothAligners(t *testing.T, old, new *xmldom.Document) (lcs, anc *xmldom.Document) {
	t.Helper()
	run := func(name string, align alignFunc) *xmldom.Document {
		t.Helper()
		o := old.Clone()
		n := new.Clone()
		n.Root.PreOrder(func(nd *xmldom.Node) bool { nd.XID = 0; return true })
		delta, err := diffWith(o, n, align)
		if err != nil {
			t.Fatalf("%s: Diff: %v", name, err)
		}
		rebuilt, err := Apply(o, delta)
		if err != nil {
			t.Fatalf("%s: Apply: %v\nold %s\nnew %s\ndelta %s",
				name, err, old.XML(), new.XML(), delta.RenderXML("d").XML())
		}
		if got, want := rebuilt.XML(), new.XML(); got != want {
			t.Fatalf("%s: reconstruction mismatch\n got %s\nwant %s\ndelta %s",
				name, got, want, delta.RenderXML("d").XML())
		}
		var gotXIDs, wantXIDs []xmldom.XID
		rebuilt.Root.PreOrder(func(nd *xmldom.Node) bool { gotXIDs = append(gotXIDs, nd.XID); return true })
		n.Root.PreOrder(func(nd *xmldom.Node) bool { wantXIDs = append(wantXIDs, nd.XID); return true })
		if len(gotXIDs) != len(wantXIDs) {
			t.Fatalf("%s: XID count mismatch: %d vs %d", name, len(gotXIDs), len(wantXIDs))
		}
		for i := range gotXIDs {
			if gotXIDs[i] != wantXIDs[i] {
				t.Fatalf("%s: XID[%d] = %d, want %d", name, i, gotXIDs[i], wantXIDs[i])
			}
		}
		return n
	}
	return run("alignLCS", alignLCS), run("alignAnchors", alignAnchors)
}

// xidOfProduct finds the XID of the product element whose text is name.
func xidOfProduct(d *xmldom.Document, name string) xmldom.XID {
	var x xmldom.XID
	d.Root.PreOrder(func(n *xmldom.Node) bool {
		if n.Type == xmldom.ElementNode && n.Data == "product" && n.TextContent() == name {
			x = n.XID
			return false
		}
		return true
	})
	return x
}

func TestAdversarialDuplicatedSiblings(t *testing.T) {
	// Every sibling hashes identically: no unique-hash anchors exist, so
	// the middle is pure residue. Deleting from the middle and appending
	// must still reconstruct exactly under both aligners.
	old := xmldom.MustParse(`<c><p>x</p><p>x</p><p>x</p><p>x</p><p>x</p></c>`)
	new := xmldom.MustParse(`<c><p>x</p><p>x</p><p>x</p><p>x</p><p>x</p><p>x</p><p>x</p></c>`)
	diffBothAligners(t, old, new)
	diffBothAligners(t, new, old)
	// Duplicates surrounding a unique edited element.
	old2 := xmldom.MustParse(`<c><p>x</p><p>x</p><p>mid</p><p>x</p><p>x</p></c>`)
	new2 := xmldom.MustParse(`<c><p>x</p><p>changed</p><p>x</p><p>x</p></c>`)
	diffBothAligners(t, old2, new2)
}

func TestAdversarialReorderedChildren(t *testing.T) {
	old := xmldom.MustParse(`<c><product><name>a</name></product><product><name>b</name></product>` +
		`<product><name>c</name></product><product><name>d</name></product><product><name>e</name></product></c>`)
	// Rotation: anchors must pick an order-consistent subset, never cross.
	rot := xmldom.MustParse(`<c><product><name>d</name></product><product><name>e</name></product>` +
		`<product><name>a</name></product><product><name>b</name></product><product><name>c</name></product></c>`)
	diffBothAligners(t, old, rot)
	// Full reversal: at most one anchor can survive.
	rev := xmldom.MustParse(`<c><product><name>e</name></product><product><name>d</name></product>` +
		`<product><name>c</name></product><product><name>b</name></product><product><name>a</name></product></c>`)
	diffBothAligners(t, old, rev)
	// Interleaved reorder with duplicates mixed in.
	mix := xmldom.MustParse(`<c><product><name>b</name></product><product><name>b</name></product>` +
		`<product><name>a</name></product><product><name>e</name></product><product><name>c</name></product></c>`)
	diffBothAligners(t, old, mix)
}

func TestAdversarialLargeFanOut(t *testing.T) {
	// Wide enough that a wholesale rewrite exceeds maxDPCells, forcing the
	// anchor aligner onto the greedy fallback while the reference LCS runs
	// the full table; both must still reconstruct exactly.
	const width = 200
	mk := func(suffix string) *xmldom.Document {
		root := xmldom.Element("c")
		for i := 0; i < width; i++ {
			p := xmldom.Element("product")
			p.AppendChild(xmldom.Text(fmt.Sprintf("item%d%s", i, suffix)))
			root.AppendChild(p)
		}
		return xmldom.NewDocument(root)
	}
	old := mk("")
	rewrite := mk("-v2") // every subtree differs: no prefix, suffix or anchors
	if w, h := width, width; w*h <= maxDPCells {
		t.Fatalf("test misconfigured: %d cells does not exceed maxDPCells=%d", w*h, maxDPCells)
	}
	diffBothAligners(t, old, rewrite)
	// Small edit in a wide list: trims + anchors keep the DP tiny.
	edit := mk("")
	edit.Root.Children[width/2].Children[0].Data = "edited"
	edit.Root.RemoveChild(3)
	diffBothAligners(t, old, edit)
}

func TestAdversarialTextAndAttrOnlyEdits(t *testing.T) {
	old := xmldom.MustParse(`<c><product k="1"><name>radio</name><price>10</price></product>` +
		`<product k="2"><name>tv</name><price>200</price></product></c>`)
	textOnly := xmldom.MustParse(`<c><product k="1"><name>radio</name><price>12</price></product>` +
		`<product k="2"><name>tv</name><price>200</price></product></c>`)
	attrOnly := xmldom.MustParse(`<c><product k="1"><name>radio</name><price>10</price></product>` +
		`<product k="9"><name>tv</name><price>200</price></product></c>`)
	diffBothAligners(t, old, textOnly)
	diffBothAligners(t, old, attrOnly)
}

// TestAnchorXIDStability: nodes whose subtree hash is unique on both sides
// (the anchors) must keep their old XIDs across surrounding edits — the
// identity-preservation property the alerters depend on.
func TestAnchorXIDStability(t *testing.T) {
	old := xmldom.MustParse(`<c><product><name>a</name></product><product><name>b</name></product>` +
		`<product><name>c</name></product><product><name>d</name></product></c>`)
	new := xmldom.MustParse(`<c><product><name>z0</name></product><product><name>a</name></product>` +
		`<product><name>c</name></product><product><name>d</name></product><product><name>z1</name></product></c>`)
	lcs, anc := diffBothAligners(t, old, new)
	for _, name := range []string{"a", "c", "d"} {
		want := xidOfProduct(old, name)
		if want == 0 {
			t.Fatalf("product %q missing from old", name)
		}
		if got := xidOfProduct(anc, name); got != want {
			t.Errorf("anchors: product %q XID = %d, want %d (identity lost)", name, got, want)
		}
		if got := xidOfProduct(lcs, name); got != want {
			t.Errorf("lcs: product %q XID = %d, want %d (identity lost)", name, got, want)
		}
	}
}

// Property: both aligners reconstruct arbitrary version pairs exactly.
func TestQuickBothAlignersAgree(t *testing.T) {
	f := func(a, b []byte) bool {
		old := buildDoc(a)
		new := buildDoc(b)
		for _, align := range []alignFunc{alignLCS, alignAnchors} {
			o := old.Clone()
			n := new.Clone()
			delta, err := diffWith(o, n, align)
			if err != nil {
				return false
			}
			rebuilt, err := Apply(o, delta)
			if err != nil || rebuilt.XML() != n.XML() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDeepChainDiff: the hashing layer is iterative, so a pathologically
// deep document must diff without blowing the stack during hashing; a
// single leaf edit at the bottom yields a one-op delta.
func TestDeepChainDiff(t *testing.T) {
	const depth = 100_000
	mk := func(leaf string) *xmldom.Document {
		root := xmldom.Element("r")
		n := root
		for i := 1; i < depth; i++ {
			c := xmldom.Element("d")
			n.AppendChild(c)
			n = c
		}
		n.AppendChild(xmldom.Text(leaf))
		return xmldom.NewDocument(root)
	}
	old := mk("a")
	new := mk("b")
	delta, err := Diff(old, new)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if len(delta.Ops) != 1 || delta.Ops[0].Kind != OpUpdate || !delta.Ops[0].TextChanged {
		t.Fatalf("want exactly one text update, got %d ops", len(delta.Ops))
	}
	rebuilt, err := Apply(old, delta)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if rebuilt.Root.TextContent() != "b" {
		t.Fatal("deep edit not applied")
	}
}

// alignLCS is the full-table weighted LCS the anchor aligner replaced. It
// is retained as the reference implementation: the property tests here
// run every adversarial shape through both aligners and
// require identical reconstruction.
func alignLCS(d *differ, old, new []*xmldom.Node, buf []pair) []pair {
	if len(old) == 0 || len(new) == 0 {
		return buf
	}
	return alignDP(d, old, new, 0, len(old), 0, len(new), buf)
}
