package xmldom

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
)

// arena allocates Nodes, child-pointer slices and attribute slices in
// chunks, so a parsed document costs a handful of allocations instead of
// one (or more) per node. Chunks are appended to only while len < cap —
// they are never reallocated, so pointers into them stay valid. The
// arena's memory is owned by the resulting Document's nodes and is
// therefore not pooled — which is why chunks are sized from the input
// (see newArena) and not fixed: a stored version keeps its chunks' whole
// capacity alive.
type arena struct {
	nodes     []Node
	ptrs      []*Node
	attrs     []Attr
	nodeChunk int // nodes per chunk, and child pointers per chunk
	attrChunk int
}

// Chunk sizing. A node costs at least two and a half bytes of input
// (`x<b/>` is two) and in catalog-like pages about fourteen; one chunk of
// len/12 nodes holds such a page, and no input needs more than five of
// them. Every node but the root is one child pointer, so pointer chunks are
// the same size. Attributes are rarer (about ninety bytes each in catalog
// pages, six at the very least). The caps are the fixed chunk sizes large
// documents always used.
const (
	arenaBytesPerNode = 12
	arenaBytesPerAttr = 48
	arenaMaxNodeChunk = 1024
	arenaMaxAttrChunk = 256
)

func newArena(inputLen int) arena {
	return arena{
		nodeChunk: min(max(inputLen/arenaBytesPerNode, 8), arenaMaxNodeChunk),
		attrChunk: min(max(inputLen/arenaBytesPerAttr, 4), arenaMaxAttrChunk),
	}
}

// node returns a fresh zero Node from the current chunk.
func (a *arena) node() *Node {
	if len(a.nodes) == cap(a.nodes) {
		a.nodes = make([]Node, 0, a.nodeChunk)
	}
	a.nodes = append(a.nodes, Node{})
	return &a.nodes[len(a.nodes)-1]
}

// children copies src into the pointer chunk and returns the full-slice
// (capacity-clipped) view, so a later AppendChild on one node cannot
// clobber a sibling's children.
func (a *arena) children(src []*Node) []*Node {
	n := len(src)
	if n == 0 {
		return nil
	}
	if cap(a.ptrs)-len(a.ptrs) < n {
		a.ptrs = make([]*Node, 0, max(a.nodeChunk, n))
	}
	lo := len(a.ptrs)
	a.ptrs = append(a.ptrs, src...)
	return a.ptrs[lo : lo+n : lo+n]
}

// attrSlice returns a capacity-clipped []Attr of length n from the
// attribute chunk.
func (a *arena) attrSlice(n int) []Attr {
	if cap(a.attrs)-len(a.attrs) < n {
		a.attrs = make([]Attr, 0, max(a.attrChunk, n))
	}
	lo := len(a.attrs)
	a.attrs = a.attrs[:lo+n]
	return a.attrs[lo : lo+n : lo+n]
}

// parseFrame is one open element during ParseBytes: the node plus the
// offset of its first child in the shared child stack.
type parseFrame struct {
	n    *Node
	base int
}

// parseScratch is the pooled working state of ParseBytes: tokenizer,
// frame and child stacks, the tag/attr-name interning table and the text
// decode buffer are all reused across parses.
type parseScratch struct {
	tok    Tokenizer
	frames []parseFrame
	kids   []*Node
	intern map[string]string
	text   []byte
}

var parseScratchPool = sync.Pool{New: func() any {
	return &parseScratch{intern: make(map[string]string, 64)}
}}

// internBytes returns the canonical string for b, allocating only the
// first time a distinct tag or attribute name is seen (map lookups keyed
// by string(b) do not allocate).
func (sc *parseScratch) internBytes(b []byte) string {
	if s, ok := sc.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	sc.intern[s] = s
	return s
}

// trimmedText returns the decoded, whitespace-trimmed text of the
// current TokText, or "" when it should be dropped.
func (sc *parseScratch) trimmedText() string {
	raw := sc.tok.Text()
	if sc.tok.TextDirty() {
		sc.text = sc.tok.AppendText(sc.text[:0])
		raw = sc.text
	}
	raw = bytes.TrimSpace(raw)
	if len(raw) == 0 {
		return ""
	}
	return string(raw)
}

// attrValue returns the decoded value of one attribute span.
func (sc *parseScratch) attrValue(a attrSpan) string {
	raw := sc.tok.bytes(a.value)
	if a.flags&(textEntity|textCR) != 0 {
		sc.text = appendDecoded(sc.text[:0], raw, a.flags)
		raw = sc.text
	}
	return string(raw)
}

// ParseBytes parses a serialized document with the byte tokenizer,
// producing the same tree — and the same accept/reject decisions — as the
// strict encoding/xml decoder (FuzzParseBytes holds the two together).
// Whitespace-only text is dropped (the alerters and the diff work on
// meaningful data nodes only); comments, processing instructions and
// directives are ignored.
// Nodes, child-pointer slices and attributes come from a chunked arena
// sized from the input length, tag and attribute names are interned, and
// text is decoded straight off the input spans, so the documents that
// survive the streaming pre-filter allocate in large slabs instead of
// per-node.
func ParseBytes(data []byte) (*Document, error) {
	sc := parseScratchPool.Get().(*parseScratch)
	frames := sc.frames[:0]
	kids := sc.kids[:0]
	defer func() {
		sc.frames = frames[:0]
		sc.kids = kids[:0]
		sc.tok.Reset(nil)
		if len(sc.intern) > 4096 {
			// A pathological tag vocabulary must not pin memory in the
			// pool forever.
			sc.intern = make(map[string]string, 64)
		}
		parseScratchPool.Put(sc)
	}()
	sc.tok.Reset(data)
	ar := newArena(len(data))
	var root *Node
	for {
		k, err := sc.tok.Next()
		if err != nil {
			return nil, fmt.Errorf("xmldom: %w", err)
		}
		switch k {
		case TokEOF:
			if root == nil {
				return nil, ErrNoRoot
			}
			return NewDocument(root), nil
		case TokStart:
			n := ar.node()
			n.Type = ElementNode
			n.Tag = sc.internBytes(sc.tok.Tag())
			if na := len(sc.tok.attrs); na > 0 {
				attrs := ar.attrSlice(na)
				for i, a := range sc.tok.attrs {
					attrs[i] = Attr{
						Name:  sc.internBytes(sc.tok.bytes(a.local)),
						Value: sc.attrValue(a),
					}
				}
				n.Attrs = attrs
			}
			if len(frames) == 0 {
				if root != nil {
					return nil, errors.New("xmldom: multiple root elements")
				}
				root = n
			}
			frames = append(frames, parseFrame{n: n, base: len(kids)})
		case TokEnd:
			f := frames[len(frames)-1]
			frames = frames[:len(frames)-1]
			f.n.Children = ar.children(kids[f.base:])
			for _, c := range f.n.Children {
				c.Parent = f.n
			}
			kids = kids[:f.base]
			if len(frames) > 0 {
				kids = append(kids, f.n)
			}
		case TokText:
			// Top-level character data is dropped; so is
			// whitespace-only text (the alerters and the diff work on
			// meaningful data nodes only).
			if len(frames) == 0 {
				continue
			}
			if text := sc.trimmedText(); text != "" {
				t := ar.node()
				t.Type = TextNode
				t.Text = text
				kids = append(kids, t)
			}
		}
	}
}
