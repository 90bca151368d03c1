package xmldom

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func sampleTree() *Document {
	// <catalog><product><name>radio</name><price>10</price></product>
	//          <product><name>tv</name></product></catalog>
	return NewDocument(Element("catalog",
		Element("product",
			Element("name", Text("radio")),
			Element("price", Text("10")),
		),
		Element("product",
			Element("name", Text("tv")),
		),
	))
}

func TestNewDocumentAssignsXIDs(t *testing.T) {
	d := sampleTree()
	seen := map[XID]bool{}
	d.Root.PreOrder(func(n *Node) bool {
		if n.XID == 0 {
			t.Errorf("node %v has no XID", n)
		}
		if seen[n.XID] {
			t.Errorf("duplicate XID %d", n.XID)
		}
		seen[n.XID] = true
		return true
	})
	if len(seen) != d.Root.Size() {
		t.Errorf("labelled %d nodes, tree has %d", len(seen), d.Root.Size())
	}
}

func TestRelabelPreservesExistingXIDs(t *testing.T) {
	d := sampleTree()
	rootXID := d.Root.XID
	d.Root.AppendChild(Element("product", Element("name", Text("vcr"))))
	d.Relabel()
	if d.Root.XID != rootXID {
		t.Errorf("root XID changed from %d to %d", rootXID, d.Root.XID)
	}
	d.Root.PreOrder(func(n *Node) bool {
		if n.XID == 0 {
			t.Errorf("new node %v not labelled", n)
		}
		return true
	})
}

func TestNextXIDMonotonic(t *testing.T) {
	d := sampleTree()
	a := d.NextXID()
	b := d.NextXID()
	if b <= a {
		t.Errorf("NextXID not increasing: %d then %d", a, b)
	}
	d.SetNextXID(a) // must not move backwards
	if c := d.NextXID(); c <= b {
		t.Errorf("SetNextXID moved counter backwards: got %d after %d", c, b)
	}
}

func TestPostOrder(t *testing.T) {
	d := sampleTree()
	var order []string
	d.Root.PostOrder(func(n *Node) bool {
		if n.Type == ElementNode {
			order = append(order, n.Data)
		} else {
			order = append(order, "#"+n.Data)
		}
		return true
	})
	want := []string{"#radio", "name", "#10", "price", "product", "#tv", "name", "product", "catalog"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Errorf("postorder = %v, want %v", order, want)
	}
}

func TestPostOrderEarlyStop(t *testing.T) {
	d := sampleTree()
	count := 0
	d.Root.PostOrder(func(n *Node) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("visited %d nodes, want 3", count)
	}
}

func TestLevelSizeDepth(t *testing.T) {
	d := sampleTree()
	if got := d.Root.Level(); got != 0 {
		t.Errorf("root Level = %d, want 0", got)
	}
	name := d.Root.Children[0].Children[0]
	if got := name.Level(); got != 2 {
		t.Errorf("name Level = %d, want 2", got)
	}
	if got := d.Root.Size(); got != 9 {
		t.Errorf("Size = %d, want 9", got)
	}
	if got := d.Root.Depth(); got != 4 { // catalog/product/name/#text
		t.Errorf("Depth = %d, want 4", got)
	}
}

func TestElementsAndTextContent(t *testing.T) {
	d := sampleTree()
	products := d.Root.Elements("product")
	if len(products) != 2 {
		t.Fatalf("Elements(product) = %d, want 2", len(products))
	}
	if got := products[0].TextContent(); got != "radio 10" {
		t.Errorf("TextContent = %q, want %q", got, "radio 10")
	}
	if got := d.Root.Elements("missing"); len(got) != 0 {
		t.Errorf("Elements(missing) = %v, want none", got)
	}
}

func TestInsertRemoveChild(t *testing.T) {
	n := Element("r", Element("a"), Element("c"))
	n.InsertChild(1, Element("b"))
	var tags []string
	for _, c := range n.Children {
		tags = append(tags, c.Data)
	}
	if strings.Join(tags, "") != "abc" {
		t.Errorf("children = %v, want a,b,c", tags)
	}
	removed := n.RemoveChild(0)
	if removed.Data != "a" || len(n.Children) != 2 || removed.Parent != nil {
		t.Errorf("RemoveChild broken: removed=%v children=%d", removed, len(n.Children))
	}
	// clamping
	n.InsertChild(-5, Element("x"))
	if n.Children[0].Data != "x" {
		t.Error("InsertChild(-5) should clamp to front")
	}
	n.InsertChild(99, Element("y"))
	if n.Children[len(n.Children)-1].Data != "y" {
		t.Error("InsertChild(99) should clamp to back")
	}
}

func TestChildIndex(t *testing.T) {
	a, b := Element("a"), Element("b")
	n := Element("r", a, b)
	if n.ChildIndex(b) != 1 {
		t.Errorf("ChildIndex(b) = %d, want 1", n.ChildIndex(b))
	}
	if n.ChildIndex(Element("z")) != -1 {
		t.Error("ChildIndex of non-child should be -1")
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := sampleTree()
	c := d.Clone()
	c.Root.Children[0].Children[0].Children[0].Data = "changed"
	if d.Root.Children[0].Children[0].Children[0].Data != "radio" {
		t.Error("Clone shares text nodes with original")
	}
	if c.Root.XID != d.Root.XID {
		t.Error("Clone must preserve XIDs")
	}
	if c.Root.Children[0].Parent != c.Root {
		t.Error("Clone must fix parent links")
	}
}

func TestFindByXID(t *testing.T) {
	d := sampleTree()
	name := d.Root.Children[1].Children[0]
	if got := d.Root.FindByXID(name.XID); got != name {
		t.Errorf("FindByXID(%d) = %v, want %v", name.XID, got, name)
	}
	if got := d.Root.FindByXID(9999); got != nil {
		t.Errorf("FindByXID(9999) = %v, want nil", got)
	}
}

func TestAttrs(t *testing.T) {
	n := Element("site").WithAttr("url", "http://x.com").WithAttr("lang", "en")
	if v, ok := n.Attr("url"); !ok || v != "http://x.com" {
		t.Errorf("Attr(url) = %q,%v", v, ok)
	}
	if _, ok := n.Attr("missing"); ok {
		t.Error("Attr(missing) should not be found")
	}
}

// TestNodeLayout pins what a stored page pays per node: a Node is at most
// 72 bytes (it was 112 with separate Tag, Text and Attrs fields), and its
// pointer-bearing fields all come before XID, so the collector's scan of a
// node stops at the scalar tail.
func TestNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got > 72 {
		t.Errorf("Node is %d bytes, want at most 72", got)
	}
	tail := unsafe.Offsetof(Node{}.XID)
	rt := reflect.TypeOf(Node{})
	for i := range rt.NumField() {
		f := rt.Field(i)
		switch f.Type.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.String, reflect.Map, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			if end := f.Offset + f.Type.Size(); end > tail {
				t.Errorf("pointer-bearing field %s ends at byte %d, past XID at %d", f.Name, end, tail)
			}
		}
	}
	n := Element("p").WithAttr("id", "1")
	n.SetAttrs(nil)
	if n.Attrs() != nil || n.attrs != nil {
		t.Error("SetAttrs(nil) left an attribute header behind")
	}
}

func TestHash64Structural(t *testing.T) {
	mk := func() *Node {
		n := Element("product", Element("price", Text("10")))
		n.WithAttr("id", "p1")
		return n
	}
	a, b := mk(), mk()
	b.XID = 999 // XIDs must not affect the fingerprint, mirroring XML()
	if a.SubtreeHash() != b.SubtreeHash() {
		t.Error("equal subtrees hash differently")
	}
	for name, mut := range map[string]func(*Node){
		"tag":        func(n *Node) { n.Data = "item" },
		"attr name":  func(n *Node) { n.Attrs()[0].Name = "ref" },
		"attr value": func(n *Node) { n.Attrs()[0].Value = "p2" },
		"text":       func(n *Node) { n.Children[0].Children[0].Data = "11" },
		"add child":  func(n *Node) { n.AppendChild(Element("stock")) },
		"drop child": func(n *Node) { n.RemoveChild(0) },
	} {
		c := mk()
		mut(c)
		if c.SubtreeHash() == a.SubtreeHash() {
			t.Errorf("%s mutation did not change the hash", name)
		}
	}
	// Structure matters, not just the token stream: <a><b/></a><c/> vs
	// <a><b/><c/></a> reparented.
	flat := Element("r", Element("a", Element("b")), Element("c"))
	nested := Element("r", Element("a", Element("b"), Element("c")))
	if flat.SubtreeHash() == nested.SubtreeHash() {
		t.Error("reparenting did not change the hash")
	}
}

func TestHashFoldFieldBoundaries(t *testing.T) {
	h1 := HashFold(HashFold(HashSeed(), "ab"), "c")
	h2 := HashFold(HashFold(HashSeed(), "a"), "bc")
	if h1 == h2 {
		t.Error("field boundary not encoded: (ab,c) == (a,bc)")
	}
}

// Level returns the depth of the node: 0 for the root.
func (n *Node) Level() int {
	l := 0
	for p := n.Parent; p != nil; p = p.Parent {
		l++
	}
	return l
}

// FindByXID returns the node with the given XID in the subtree, or nil.
func (n *Node) FindByXID(x XID) *Node {
	var found *Node
	n.PreOrder(func(c *Node) bool {
		if c.XID == x {
			found = c
			return false
		}
		return true
	})
	return found
}
