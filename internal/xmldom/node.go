// Package xmldom provides the small DOM used throughout the system: the
// XML alerter walks documents in postorder (Section 6.3), the diff layer
// labels elements with persistent XIDs (Section 5.2), and the query
// processor evaluates path expressions over trees. It is built on its own
// byte tokenizer (token.go); the strict encoding/xml decoder is only the
// tests' differential oracle.
package xmldom

import (
	"fmt"
	"strings"
	"sync"
)

// NodeType distinguishes element nodes from data (text) nodes, the two DOM
// node kinds the paper relies on.
type NodeType int

const (
	// ElementNode is a tagged node with attributes and children.
	ElementNode NodeType = iota
	// TextNode is a data node carrying character content.
	TextNode
)

// XID is the persistent identifier attached to nodes. XIDs are the
// foundation of the XyDelta naming scheme: an element keeps its XID across
// versions, so deltas can reference elements compactly and a new version
// can be rebuilt from the old version plus the delta.
type XID uint64

// Attr is one attribute of an element node.
type Attr struct {
	Name  string
	Value string
}

// Node is a DOM node. Fields are exported because the alerters, the diff
// and the query processor all traverse the tree directly.
type Node struct {
	Type     NodeType
	Tag      string // element nodes only
	Text     string // text nodes only
	Attrs    []Attr
	Children []*Node
	Parent   *Node
	XID      XID
	// ord is the node's preorder index in the tree it was last hashed in;
	// it addresses the node's slot in the owning Document's HashVector.
	// Maintained by Document.Hashes, meaningless outside a valid vector.
	ord int32
}

// Ord returns the node's preorder index in its tree, assigned by the last
// Document.Hashes over it (Diff hashes both versions).
func (n *Node) Ord() int { return int(n.ord) }

// Document is a parsed XML document: a single root element plus the XID
// counter used to label nodes of future versions.
type Document struct {
	Root    *Node
	nextXID XID
	// hashes caches the structural subtree-hash vector; see Hashes.
	hashes *HashVector
}

// NewDocument wraps root into a document and labels every unlabelled node.
func NewDocument(root *Node) *Document {
	d := &Document{Root: root, nextXID: 1}
	d.Relabel()
	return d
}

// NextXID reserves and returns a fresh XID.
func (d *Document) NextXID() XID {
	x := d.nextXID
	d.nextXID++
	return x
}

// SetNextXID moves the XID counter forward; it never moves it back.
func (d *Document) SetNextXID(x XID) {
	if x > d.nextXID {
		d.nextXID = x
	}
}

// Relabel assigns fresh XIDs to every node with XID zero, fixing parent
// links along the way. Existing XIDs are preserved so version chains keep
// stable identifiers.
func (d *Document) Relabel() {
	if d.Root == nil {
		return
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.XID == 0 {
			n.XID = d.nextXID
			d.nextXID++
		} else if n.XID >= d.nextXID {
			d.nextXID = n.XID + 1
		}
		for _, c := range n.Children {
			c.Parent = n
			walk(c)
		}
	}
	walk(d.Root)
}

// Element returns a new element node.
func Element(tag string, children ...*Node) *Node {
	n := &Node{Type: ElementNode, Tag: tag, Children: children}
	for _, c := range children {
		c.Parent = n
	}
	return n
}

// Text returns a new data node.
func Text(s string) *Node {
	return &Node{Type: TextNode, Text: s}
}

// WithAttr adds an attribute to an element node and returns it, enabling
// fluent construction in tests and generators.
func (n *Node) WithAttr(name, value string) *Node {
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
	return n
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AppendChild adds c as the last child of n.
func (n *Node) AppendChild(c *Node) {
	c.Parent = n
	n.Children = append(n.Children, c)
}

// InsertChild inserts c at position i among n's children.
func (n *Node) InsertChild(i int, c *Node) {
	if i < 0 {
		i = 0
	}
	if i > len(n.Children) {
		i = len(n.Children)
	}
	c.Parent = n
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = c
}

// RemoveChild removes the child at position i and returns it.
func (n *Node) RemoveChild(i int) *Node {
	c := n.Children[i]
	copy(n.Children[i:], n.Children[i+1:])
	n.Children = n.Children[:len(n.Children)-1]
	c.Parent = nil
	return c
}

// ChildIndex returns the position of c among n's children, or -1.
func (n *Node) ChildIndex(c *Node) int {
	for i, x := range n.Children {
		if x == c {
			return i
		}
	}
	return -1
}

// Level returns the depth of the node: 0 for the root.
func (n *Node) Level() int {
	l := 0
	for p := n.Parent; p != nil; p = p.Parent {
		l++
	}
	return l
}

// Clone returns a deep copy of the subtree rooted at n. XIDs are copied,
// so the clone refers to the same persistent identities.
func (n *Node) Clone() *Node {
	c := &Node{Type: n.Type, Tag: n.Tag, Text: n.Text, XID: n.XID}
	if len(n.Attrs) > 0 {
		c.Attrs = append([]Attr(nil), n.Attrs...)
	}
	for _, ch := range n.Children {
		cc := ch.Clone()
		cc.Parent = c
		c.Children = append(c.Children, cc)
	}
	return c
}

// Clone deep-copies the document, preserving XIDs and the XID counter.
func (d *Document) Clone() *Document {
	if d == nil {
		return nil
	}
	c := &Document{nextXID: d.nextXID}
	if d.Root != nil {
		c.Root = d.Root.Clone()
	}
	return c
}

// TextContent concatenates the text of all data nodes in the subtree, in
// document order, separated by single spaces. The walk is an explicit
// stack, not recursion, so arbitrarily deep documents cannot overflow the
// goroutine stack.
func (n *Node) TextContent() string {
	var b strings.Builder
	stp := nodeStackPool.Get().(*[]*Node)
	st := append((*stp)[:0], n)
	for len(st) > 0 {
		x := st[len(st)-1]
		st = st[:len(st)-1]
		if x.Type == TextNode {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(x.Text)
			continue
		}
		// Push children in reverse so they pop in document order.
		for i := len(x.Children) - 1; i >= 0; i-- {
			st = append(st, x.Children[i])
		}
	}
	*stp = st[:0]
	nodeStackPool.Put(stp)
	return b.String()
}

// PostOrder calls visit for every node of the subtree in postorder — the
// traversal the XML alerter's word-detection algorithm is built on. If
// visit returns false the traversal stops.
func (n *Node) PostOrder(visit func(*Node) bool) bool {
	for _, c := range n.Children {
		if !c.PostOrder(visit) {
			return false
		}
	}
	return visit(n)
}

// PreOrder calls visit for every node of the subtree in preorder (document
// order). If visit returns false the traversal stops.
func (n *Node) PreOrder(visit func(*Node) bool) bool {
	if !visit(n) {
		return false
	}
	for _, c := range n.Children {
		if !c.PreOrder(visit) {
			return false
		}
	}
	return true
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

// Size returns the number of nodes in the subtree. Iterative for the same
// reason as TextContent: depth must not bound the documents we can handle.
func (n *Node) Size() int {
	count := 0
	stp := nodeStackPool.Get().(*[]*Node)
	st := append((*stp)[:0], n)
	for len(st) > 0 {
		x := st[len(st)-1]
		st = st[:len(st)-1]
		count++
		for _, c := range x.Children {
			st = append(st, c)
		}
	}
	*stp = st[:0]
	nodeStackPool.Put(stp)
	return count
}

// Depth returns the height of the subtree: 1 for a leaf.
func (n *Node) Depth() int {
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Elements returns all element nodes with the given tag in the subtree, in
// document order.
func (n *Node) Elements(tag string) []*Node {
	var out []*Node
	n.PreOrder(func(c *Node) bool {
		if c.Type == ElementNode && c.Tag == tag {
			out = append(out, c)
		}
		return true
	})
	return out
}

// fnv64 constants for the structural hash below (FNV-1a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashFold folds s into an FNV-1a running hash. Exported so callers
// composing a node hash with other key parts (a subscription name, a
// label) can stay on one allocation-free hash chain.
func HashFold(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	// Separate fields so ("ab","c") and ("a","bc") fold differently.
	h ^= 0xff
	h *= fnvPrime64
	return h
}

// HashSeed returns the canonical seed for a HashFold / Hash64 chain.
func HashSeed() uint64 { return fnvOffset64 }

// HashString returns the plain FNV-1a hash of s — bit-identical to
// hash/fnv's New64a over the same bytes, with no hasher allocation and no
// field separator. Use it where an existing value (a page seed, a jitter
// key) was defined as the raw FNV of a string and must stay stable;
// use HashFold when composing multi-field keys.
func HashString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// hash64Frame is one element of the explicit Hash64 / Hashes traversal
// stack: the node, the next child to visit, and the running hash at the
// point the node was opened (Hashes) or carried through it (Hash64).
type hash64Frame struct {
	n     *Node
	child int
	h     uint64
}

// hashFramePool recycles the explicit stacks shared by Hash64 and the
// Document.Hashes post-order fold.
var hashFramePool = sync.Pool{New: func() any {
	s := make([]hash64Frame, 0, 64)
	return &s
}}

// nodeStackPool recycles the plain node stacks of TextContent and Size.
var nodeStackPool = sync.Pool{New: func() any {
	s := make([]*Node, 0, 64)
	return &s
}}

// Hash64 folds a structural fingerprint of the subtree rooted at n into
// the running FNV-1a hash h (seed with HashSeed): node kinds, tags, text,
// attribute name/value pairs and child structure all contribute. Two
// subtrees that serialise to the same XML fold identically, without
// materialising the serialisation — this is the notification dedup key of
// the hot path. XIDs and parent links are ignored, like in XML().
//
// The traversal is an explicit pooled stack (shared with Document.Hashes),
// so a pathologically deep document cannot overflow the goroutine stack.
// The fold order is identical to the historical recursive version, so
// values are stable across the change.
func (n *Node) Hash64(h uint64) uint64 {
	if n.Type == TextNode {
		h ^= 't'
		h *= fnvPrime64
		return HashFold(h, n.Text)
	}
	stp := hashFramePool.Get().(*[]hash64Frame)
	st := (*stp)[:0]
	h = hash64Open(h, n)
	st = append(st, hash64Frame{n: n})
	for len(st) > 0 {
		f := &st[len(st)-1]
		if f.child < len(f.n.Children) {
			c := f.n.Children[f.child]
			f.child++
			if c.Type == TextNode {
				h ^= 't'
				h *= fnvPrime64
				h = HashFold(h, c.Text)
				continue
			}
			h = hash64Open(h, c)
			st = append(st, hash64Frame{n: c})
			continue
		}
		h ^= '<'
		h *= fnvPrime64
		st = st[:len(st)-1]
	}
	*stp = st[:0]
	hashFramePool.Put(stp)
	return h
}

// hash64Open folds the opening part of an element — kind marker, tag,
// attributes, the '>' separator — into h.
func hash64Open(h uint64, n *Node) uint64 {
	h ^= 'e'
	h *= fnvPrime64
	h = HashFold(h, n.Tag)
	for _, a := range n.Attrs {
		h = HashFold(h, a.Name)
		h = HashFold(h, a.Value)
	}
	h ^= '>'
	h *= fnvPrime64
	return h
}

func (n *Node) String() string {
	if n.Type == TextNode {
		return fmt.Sprintf("#text(%q)", n.Text)
	}
	return fmt.Sprintf("<%s xid=%d children=%d>", n.Tag, n.XID, len(n.Children))
}
