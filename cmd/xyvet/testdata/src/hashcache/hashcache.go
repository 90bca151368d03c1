// Package hashcache is the fixture for the hashcache analyzer: direct
// hash/fnv constructors outside internal/xmldom allocate a hasher per
// call and bypass the cached structural hashing the diff layer compares
// with; callers should use xmldom.HashString/HashFold or the tree-level
// Document.Hashes / Node.SubtreeHash.
package hashcache

import (
	"hash/fnv"
)

func perCallHasher(url string) uint64 {
	h := fnv.New64a() // want hashcache
	h.Write([]byte(url))
	return h.Sum64()
}

func otherWidths(b []byte) uint32 {
	h := fnv.New32() // want hashcache
	h.Write(b)
	h2 := fnv.New128a() // want hashcache
	h2.Write(b)
	return h.Sum32()
}

// Hand-rolling a "streaming" structural hash over serialized fragments
// re-creates a hasher per element and cannot agree with the canonical
// subtree fold; xmldom.StreamHasher computes the real thing in one pass
// over the raw bytes, no DOM, no per-element hasher.
func streamingByHand(openTags [][]byte) uint64 {
	var acc uint64
	for _, t := range openTags {
		h := fnv.New64a() // want hashcache
		h.Write(t)
		acc = acc*31 ^ h.Sum64()
	}
	return acc
}

// A justified exception stays suppressible, as with every rule.
func interoperates(b []byte) uint64 {
	h := fnv.New64a() //xyvet:ignore hashcache wire format requires streaming fnv
	h.Write(b)
	return h.Sum64()
}
