package xmldom

import (
	"slices"
	"sync"
)

// arena allocates Nodes, child-pointer slices, attribute slices and their
// slice headers (Node.attrs) in chunks, so a parsed document costs a
// handful of allocations instead of one (or more) per node. Chunks are
// appended to only while len < cap — they are never reallocated, so
// pointers into them stay valid. The arena's memory is owned by the
// resulting Document's nodes and is therefore not pooled — which is why
// each chunk is sized from the input the tokenizer has yet to read, and
// rounded up to its allocation size class: a stored version keeps its
// chunks' whole capacity alive.
type arena struct {
	tok   *Tokenizer
	nodes []Node
	ptrs  []*Node
	attrs []Attr
	heads [][]Attr
}

// Chunk sizing. A node costs at least two and a half bytes of input
// (`x<b/>` is two) and in catalog-like pages about fourteen. A chunk is
// sized a little short of that, at sixteen bytes a node of the unread
// input, because what it misses goes into a further chunk sized from the
// little input then left, while a chunk too long keeps its slack for the
// life of the version (BenchmarkStoreMemory measures the trade). Every
// node but the root is one child pointer, so pointer chunks are sized
// alike. Attributes are rarer (about ninety bytes each in catalog pages,
// six at the very least), and each element that has any takes one header.
// The caps are the fixed chunk sizes large documents always used.
const (
	arenaBytesPerNode = 16
	arenaBytesPerAttr = 90
	arenaMaxNodeChunk = 1024
	arenaMaxAttrChunk = 256
)

// chunk returns a new chunk with room for at least need items and for the
// items of bytesPer input bytes each that the unread input holds, within
// most.
func chunk[E any](a *arena, bytesPer, most, need int) []E {
	rest := len(a.tok.buf) - a.tok.pos
	return slices.Grow([]E(nil), max(min(max(rest/bytesPer, 8), most), need))
}

// node returns a fresh zero Node from the current chunk.
func (a *arena) node() *Node {
	if len(a.nodes) == cap(a.nodes) {
		a.nodes = chunk[Node](a, arenaBytesPerNode, arenaMaxNodeChunk, 1)
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
		a.ptrs = chunk[*Node](a, arenaBytesPerNode, arenaMaxNodeChunk, n)
	}
	lo := len(a.ptrs)
	a.ptrs = append(a.ptrs, src...)
	return a.ptrs[lo : lo+n : lo+n]
}

// attrSlice returns a capacity-clipped []Attr of length n from the
// attribute chunk, behind a header from the header chunk.
func (a *arena) attrSlice(n int) *[]Attr {
	if cap(a.attrs)-len(a.attrs) < n {
		a.attrs = chunk[Attr](a, arenaBytesPerAttr, arenaMaxAttrChunk, n)
	}
	if len(a.heads) == cap(a.heads) {
		a.heads = chunk[[]Attr](a, arenaBytesPerAttr, arenaMaxAttrChunk, 1)
	}
	lo := len(a.attrs)
	a.attrs = a.attrs[:lo+n]
	a.heads = append(a.heads, a.attrs[lo:lo+n:lo+n])
	return &a.heads[len(a.heads)-1]
}

// parseFrame is one open element during ParseBytes: the node plus the
// offset of its first child in the shared child stack.
type parseFrame struct {
	n    *Node
	base int
}

// parseScratch is the pooled working state of ParseBytes: tokenizer,
// frame and child stacks and the tag/attr-name interning table are all
// reused across parses.
type parseScratch struct {
	tok    Tokenizer
	frames []parseFrame
	kids   []*Node
	intern map[string]string
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

// ParseBytes parses a serialized document with the byte tokenizer,
// producing the same tree — and the same accept/reject decisions — as the
// strict encoding/xml decoder (FuzzParseBytes holds the two together).
// The tree is the tokenizer's node stream (Tokenizer.Next): whitespace-only
// text is dropped (the alerters and the diff work on meaningful data nodes
// only); comments, processing instructions and directives are ignored.
// Nodes, child-pointer slices and attributes come from a chunked arena
// sized from the unread input, tag and attribute names are interned, and
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
	ar := arena{tok: &sc.tok}
	var root *Node
	for {
		k, err := sc.tok.Next()
		if err != nil {
			return nil, err
		}
		switch k {
		case TokEOF:
			return NewDocument(root), nil
		case TokStart:
			n := ar.node()
			n.Type = ElementNode
			n.Data = sc.internBytes(sc.tok.Tag())
			if na := len(sc.tok.attrs); na > 0 {
				n.attrs = ar.attrSlice(na)
				for i := range *n.attrs {
					name, value := sc.tok.attr(i)
					(*n.attrs)[i] = Attr{Name: sc.internBytes(name), Value: string(value)}
				}
			}
			if len(frames) == 0 {
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
			t := ar.node()
			t.Type = TextNode
			t.Data = string(sc.tok.Text())
			kids = append(kids, t)
		}
	}
}
