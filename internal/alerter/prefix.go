package alerter

import (
	"sort"

	"xymon/internal/core"
)

// HashPrefixIndex stores patterns in a hash table keyed by the full
// pattern and probes the URL's prefixes at every registered pattern
// length. This is the paper's production structure: "the dominating cost
// is the look-up in the million-records hash table". The dictionary
// (trie) alternative of the Section 6.2 ablation lives in prefix_test.go,
// beside BenchmarkURLAlerter.
type HashPrefixIndex struct {
	patterns map[string][]core.Event
	lengths  map[int]int // pattern length -> number of patterns of that length
	sorted   []int       // registered lengths, ascending; maintained by Add/Remove
}

// NewHashPrefixIndex returns an empty hash-based prefix index.
func NewHashPrefixIndex() *HashPrefixIndex {
	return &HashPrefixIndex{
		patterns: make(map[string][]core.Event),
		lengths:  make(map[int]int),
	}
}

// Add registers a pattern. The sorted length list is maintained here and
// in Remove — the alerter's write lock covers both — so that Lookup
// never mutates the index and stays safe under concurrent readers.
func (h *HashPrefixIndex) Add(prefix string, code core.Event) {
	if _, ok := h.patterns[prefix]; !ok {
		if h.lengths[len(prefix)]++; h.lengths[len(prefix)] == 1 {
			i := sort.SearchInts(h.sorted, len(prefix))
			h.sorted = append(h.sorted, 0)
			copy(h.sorted[i+1:], h.sorted[i:])
			h.sorted[i] = len(prefix)
		}
	}
	h.patterns[prefix] = append(h.patterns[prefix], code)
}

// Remove unregisters one (pattern, code) pair.
func (h *HashPrefixIndex) Remove(prefix string, code core.Event) {
	codes, ok := h.patterns[prefix]
	if !ok {
		return
	}
	for i, c := range codes {
		if c == code {
			copy(codes[i:], codes[i+1:])
			codes = codes[:len(codes)-1]
			break
		}
	}
	if len(codes) == 0 {
		delete(h.patterns, prefix)
		if h.lengths[len(prefix)]--; h.lengths[len(prefix)] == 0 {
			delete(h.lengths, len(prefix))
			i := sort.SearchInts(h.sorted, len(prefix))
			h.sorted = append(h.sorted[:i], h.sorted[i+1:]...)
		}
	} else {
		h.patterns[prefix] = codes
	}
}

// Lookup probes each prefix of url whose length matches some registered
// pattern. It is read-only: callers may hold only a read lock and
// overlap freely (the lazy sort that used to live here raced).
func (h *HashPrefixIndex) Lookup(url string, emit func(core.Event)) {
	for _, l := range h.sorted {
		if l > len(url) {
			break
		}
		for _, c := range h.patterns[url[:l]] {
			emit(c)
		}
	}
}

// Len returns the number of distinct patterns.
func (h *HashPrefixIndex) Len() int { return len(h.patterns) }
