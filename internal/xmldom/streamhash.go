package xmldom

import (
	"bytes"
	"errors"
	"fmt"
)

// This file is the streaming diff front end: StreamHasher folds the exact
// subtree-hash semantics of Document.Hashes (appendSubtreeHashes in
// hash.go) over the byte Tokenizer with an explicit stack and no DOM. One
// pass over the serialized bytes yields the root's structural hash and
// the subtree-hash frontier of the shallow levels — enough for the
// warehouse to recognise a semantically identical refetch (whitespace
// reflow, re-encoded entities, re-quoted attributes) for the cost of one
// tokenize, and, when the root hash differs, to hand the diff layer a
// precomputed agreement mask over the top-level children.
//
// The equivalence is exact and fuzz-held (FuzzParseBytes): for every
// input, Sum errors iff ParseBytes errors, and on acceptance the root
// hash and every frontier entry are bit-identical to the HashVector
// ParseBytes(data).Hashes() would compute. That requires mirroring the
// parser's tree-shaping rules, not just the tokenizer's: whitespace-only
// text is dropped, surviving text is entity-decoded and space-trimmed,
// top-level character data is discarded, and a second root element is an
// error.

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
	text     []byte
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
	sh.tok.Reset(data)
	st := sh.stack[:0]
	fr := sh.frontier[:0]
	defer func() {
		sh.stack = st[:0]
		sh.frontier = fr
		sh.tok.Reset(nil)
	}()
	var root uint64
	rootSeen := false
	for {
		k, err := sh.tok.Next()
		if err != nil {
			return 0, nil, fmt.Errorf("xmldom: %w", err)
		}
		switch k {
		case TokEOF:
			if !rootSeen {
				return 0, nil, ErrNoRoot
			}
			sh.frontier = fr
			return root, fr, nil
		case TokStart:
			if len(st) == 0 && rootSeen {
				return 0, nil, errors.New("xmldom: multiple root elements")
			}
			rootSeen = true
			depth := len(st)
			slot := int32(-1)
			if depth <= maxDepth {
				slot = int32(len(fr))
				fr = append(fr, FrontierHash{Depth: int32(depth)})
			}
			st = append(st, streamFrame{h: sh.openHash(), slot: slot})
		case TokEnd:
			f := st[len(st)-1]
			st = st[:len(st)-1]
			h := f.h ^ '<'
			h *= fnvPrime64
			if f.slot >= 0 {
				fr[f.slot].Hash = h
			}
			if len(st) > 0 {
				st[len(st)-1].h = foldUint64(st[len(st)-1].h, h)
			} else {
				root = h
			}
		case TokText:
			if len(st) == 0 {
				// Top-level character data is dropped, like ParseBytes.
				continue
			}
			raw := sh.tok.Text()
			if sh.tok.TextDirty() {
				sh.text = sh.tok.AppendText(sh.text[:0])
				raw = sh.text
			}
			raw = bytes.TrimSpace(raw)
			if len(raw) == 0 {
				// Whitespace-only text never becomes a node.
				continue
			}
			th := uint64(fnvOffset64)
			th ^= 't'
			th *= fnvPrime64
			th = hashFoldBytes(th, raw)
			st[len(st)-1].h = foldUint64(st[len(st)-1].h, th)
			if depth := len(st); depth <= maxDepth {
				fr = append(fr, FrontierHash{Depth: int32(depth), Hash: th})
			}
		}
	}
}

// openHash folds the opening part of the current TokStart — kind marker,
// local tag name, attribute name/value pairs, the '>' separator — exactly
// like hash64Open over the node ParseBytes would build from it.
func (sh *StreamHasher) openHash() uint64 {
	z := &sh.tok
	h := uint64(fnvOffset64)
	h ^= 'e'
	h *= fnvPrime64
	h = hashFoldBytes(h, z.Tag())
	for _, a := range z.attrs {
		h = hashFoldBytes(h, z.bytes(a.local))
		v := z.bytes(a.value)
		if a.flags&(textEntity|textCR) != 0 {
			sh.text = appendDecoded(sh.text[:0], v, a.flags)
			v = sh.text
		}
		h = hashFoldBytes(h, v)
	}
	h ^= '>'
	h *= fnvPrime64
	return h
}

// hashFoldBytes is HashFold over a byte slice: same fold, same 0xff field
// separator, so folding the decoded bytes of a span is bit-identical to
// folding the string ParseBytes would intern from them.
func hashFoldBytes(h uint64, b []byte) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime64
	}
	h ^= 0xff
	h *= fnvPrime64
	return h
}
