package xmldom

import "sync"

// HashVector is the cached structural-hash index of one document version:
// one 64-bit subtree hash per node, addressed by the node's preorder index
// (Node.ord), assigned by the same pass that computes the hashes. Two
// subtrees that serialise to the same XML carry the same hash, so the diff
// layer compares whole subtrees in O(1) without rehashing either version.
//
// A vector is owned by exactly one Document and is only valid for the tree
// shape it was computed from: callers that mutate a hashed tree in place
// (AppendChild, RemoveChild, text or attribute edits) must call
// Document.InvalidateHashes before hashing again. The warehouse computes
// the vector once per committed version and drops it when the version is
// superseded, so a version-chain diff hashes only the new tree.
type HashVector struct {
	v []uint64
}

// Of returns the subtree hash of n. n must belong to the tree this vector
// was computed from.
func (hv *HashVector) Of(n *Node) uint64 { return hv.v[n.ord] }

// hashScratchPool recycles the vectors Hashes folds into before it copies
// the result into one sized to the tree: a cached vector keeps no slack
// from append's growth or from an earlier, larger tree.
var hashScratchPool = sync.Pool{New: func() any { return new([]uint64) }}

// Hashes returns the document's structural hash vector, computing and
// caching it on first use. The computation is a single iterative
// post-order fold — no recursion, no per-node allocation — so document
// depth is bounded by memory, not by the goroutine stack.
//
// The cached vector is reused by every later call (and so by every Diff
// against this version) until InvalidateHashes is called. Documents are
// not internally locked: callers that share a document across goroutines
// must serialise the first Hashes call the same way they serialise any
// other access (the warehouse computes it under its commit lock).
func (d *Document) Hashes() *HashVector {
	if d.hashes.v == nil {
		sc := hashScratchPool.Get().(*[]uint64)
		v, _ := foldSubtree((*sc)[:0], d.Root, true)
		d.hashes.v = append(make([]uint64, 0, len(v)), v...)
		*sc = v[:0]
		hashScratchPool.Put(sc)
	}
	return &d.hashes
}

// InvalidateHashes drops the cached hash vector. Call it after mutating
// the tree in place, or when a version is superseded and its vector will
// never be read again. A HashVector obtained from Hashes before this call
// must no longer be used.
func (d *Document) InvalidateHashes() { d.hashes.v = nil }

// SubtreeHash returns the structural hash of the subtree rooted at n: the
// value Document.Hashes records for n, computed without writing to the
// tree, so it is safe on nodes other goroutines read. Two subtrees that
// serialise to the same XML hash the same; the manager keys its
// notification dedup on it.
func (n *Node) SubtreeHash() uint64 {
	_, h := foldSubtree(nil, n, false)
	return h
}

// The structural hash is FNV-1a over a node's fields with one-byte kind
// markers: a text node is 't' and its text; an element is 'e', its tag,
// its attribute name/value pairs and '>', then each child's finished
// subtree hash (8 bytes), then '<'. Children fold in as finished hashes,
// so one post-order pass computes every node's hash, and StreamHasher
// computes the same values straight off the tokenizer.

// mark folds one kind or separator byte into h.
func mark(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// textHash is the subtree hash of a data node with text s.
func textHash[T string | []byte](s T) uint64 { return HashFold(mark(fnvOffset64, 't'), s) }

// elemOpen is an element's running hash before its first child.
func elemOpen(n *Node) uint64 {
	h := HashFold(mark(fnvOffset64, 'e'), n.Data)
	for _, a := range n.Attrs() {
		h = HashFold(HashFold(h, a.Name), a.Value)
	}
	return mark(h, '>')
}

// hashFrame is one open element of the fold: the node, the next child to
// visit, and its running hash.
type hashFrame struct {
	n     *Node
	child int
	h     uint64
}

// hashFramePool recycles the fold's explicit stacks.
var hashFramePool = sync.Pool{New: func() any {
	s := make([]hashFrame, 0, 64)
	return &s
}}

// foldSubtree folds the structural hash of the subtree rooted at root and
// returns it. With record, it also assigns preorder indexes (Node.ord) and
// appends one subtree hash per node to vec, at the node's index; without,
// it leaves the tree and vec alone.
func foldSubtree(vec []uint64, root *Node, record bool) ([]uint64, uint64) {
	if root == nil {
		return vec, 0
	}
	if root.Type == TextNode {
		h := textHash(root.Data)
		if record {
			root.ord = int32(len(vec))
			vec = append(vec, h)
		}
		return vec, h
	}
	stp := hashFramePool.Get().(*[]hashFrame)
	st := append((*stp)[:0], hashFrame{n: root, h: elemOpen(root)})
	if record {
		root.ord = int32(len(vec))
		vec = append(vec, 0) // placeholder until the subtree closes
	}
	var h uint64
	for len(st) > 0 {
		f := &st[len(st)-1]
		if f.child < len(f.n.Children) {
			c := f.n.Children[f.child]
			f.child++
			if c.Type == TextNode {
				th := textHash(c.Data)
				if record {
					c.ord = int32(len(vec))
					vec = append(vec, th)
				}
				f.h = FoldUint64(f.h, th)
				continue
			}
			if record {
				c.ord = int32(len(vec))
				vec = append(vec, 0)
			}
			st = append(st, hashFrame{n: c, h: elemOpen(c)})
			continue
		}
		h = mark(f.h, '<')
		if record {
			vec[f.n.ord] = h
		}
		st = st[:len(st)-1]
		if len(st) > 0 {
			p := &st[len(st)-1]
			p.h = FoldUint64(p.h, h)
		}
	}
	*stp = st[:0]
	hashFramePool.Put(stp)
	return vec, h
}

// FoldUint64 folds the 8 little-endian bytes of v into the running FNV-1a
// hash h — how a child's finished subtree hash joins its parent's, and how
// the manager keys a shared payload's hash by its subscriber.
func FoldUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}
