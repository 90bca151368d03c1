package xmldom

// This file is the streaming diff front end: StreamHasher folds the exact
// subtree-hash semantics of Document.Hashes (foldSubtree in hash.go) over
// the tokenizer's node stream with an explicit stack and no DOM. One pass
// over the serialized bytes yields the root's structural hash and the
// subtree-hash frontier of the shallow levels — enough for the warehouse
// to recognise a semantically identical refetch (whitespace reflow,
// re-encoded entities, re-quoted attributes) for the cost of one
// tokenize. The warehouse reads only the root hash (maxDepth 0).
//
// The equivalence is exact and fuzz-held (FuzzParseBytes): for every
// input, Sum errors iff ParseBytes errors, and on acceptance the root
// hash and every frontier entry are bit-identical to the HashVector
// ParseBytes(data).Hashes() would compute. Both read the same node stream
// (Tokenizer.Next), so the tree-shaping rules are shared, not mirrored.

// FrontierHash is one entry of the streaming hash frontier: the finished
// subtree hash of a node at Depth (0 = the root element, 1 = a top-level
// child, ...), in document order.
type FrontierHash struct {
	Depth int32
	Hash  uint64
}

// streamFrame is one open element during Sum: the running open-fold hash
// (children folded in as they close) and the frontier slot reserved for
// the element, or -1 when it lies deeper than the requested frontier.
type streamFrame struct {
	h    uint64
	slot int32
}

// StreamHasher computes structural subtree hashes straight off the byte
// tokenizer. The zero value is ready for use; Sum resets all internal
// state, and scratch storage is retained across calls so a pooled hasher
// hashes without allocating.
type StreamHasher struct {
	tok      Tokenizer
	stack    []streamFrame
	frontier []FrontierHash
}

// Sum tokenizes data and returns the structural hash of its root element
// together with the frontier of subtree hashes for every node of depth at
// most maxDepth (0 = root only; negative yields an empty frontier), in
// document order. The hashes are bit-identical to the HashVector of
// ParseBytes(data), and Sum fails exactly when ParseBytes would.
//
// The returned frontier slice is owned by the hasher and only valid until
// the next Sum; callers that retain it must copy.
func (sh *StreamHasher) Sum(data []byte, maxDepth int) (uint64, []FrontierHash, error) {
	z := &sh.tok
	z.Reset(data)
	st := sh.stack[:0]
	fr := sh.frontier[:0]
	defer func() {
		sh.stack = st[:0]
		sh.frontier = fr
		z.Reset(nil)
	}()
	var root uint64
	for {
		k, err := z.Next()
		if err != nil {
			return 0, nil, err
		}
		switch k {
		case TokEOF:
			return root, fr, nil
		case TokStart:
			depth := len(st)
			slot := int32(-1)
			if depth <= maxDepth {
				slot = int32(len(fr))
				fr = append(fr, FrontierHash{Depth: int32(depth)})
			}
			h := HashFold(mark(fnvOffset64, 'e'), z.Tag())
			for i := range z.attrs {
				name, value := z.attr(i)
				h = HashFold(HashFold(h, name), value)
			}
			st = append(st, streamFrame{h: mark(h, '>'), slot: slot})
		case TokEnd:
			f := st[len(st)-1]
			st = st[:len(st)-1]
			h := mark(f.h, '<')
			if f.slot >= 0 {
				fr[f.slot].Hash = h
			}
			if len(st) > 0 {
				st[len(st)-1].h = FoldUint64(st[len(st)-1].h, h)
			} else {
				root = h
			}
		case TokText:
			th := textHash(z.Text())
			st[len(st)-1].h = FoldUint64(st[len(st)-1].h, th)
			if depth := len(st); depth <= maxDepth {
				fr = append(fr, FrontierHash{Depth: int32(depth), Hash: th})
			}
		}
	}
}
