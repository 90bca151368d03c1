package alerter

import (
	"fmt"
	"sort"
	"testing"

	"xymon/internal/core"
)

// The Section 6.2 ablation: the URL alerter's hash-table prefix index
// against the dictionary (trie) structure the paper measured as ~30 %
// faster but too memory-hungry. Production keeps only the hash index; the
// trie and the memory estimates live here, for the benchmark and the
// agreement test.

// prefixIndex is what the two structures share.
type prefixIndex interface {
	Add(prefix string, code core.Event)
	Remove(prefix string, code core.Event)
	Lookup(url string, emit func(core.Event))
	Len() int
	MemoryEstimate() int64
}

// MemoryEstimate approximates retained bytes: keys, code slices, buckets.
func (h *HashPrefixIndex) MemoryEstimate() int64 {
	var b int64
	for p, codes := range h.patterns {
		b += int64(len(p)) + 16 /*string header*/ + 24 /*slice header*/ + int64(len(codes))*4 + 16 /*bucket share*/
	}
	return b
}

// TriePrefixIndex is the dictionary alternative: a byte trie walked once
// per URL, so lookup is linear in the URL length regardless of how many
// patterns are registered. Each trie node costs a map and pointers, which
// is the memory overhead that made the paper reject it.
type TriePrefixIndex struct {
	root  *trieNode
	count int
}

type trieNode struct {
	children map[byte]*trieNode
	codes    []core.Event
}

// NewTriePrefixIndex returns an empty trie-based prefix index.
func NewTriePrefixIndex() *TriePrefixIndex {
	return &TriePrefixIndex{root: &trieNode{}}
}

// Add registers a pattern.
func (t *TriePrefixIndex) Add(prefix string, code core.Event) {
	n := t.root
	for i := 0; i < len(prefix); i++ {
		if n.children == nil {
			n.children = make(map[byte]*trieNode)
		}
		c := n.children[prefix[i]]
		if c == nil {
			c = &trieNode{}
			n.children[prefix[i]] = c
		}
		n = c
	}
	if len(n.codes) == 0 {
		t.count++
	}
	n.codes = append(n.codes, code)
}

// Remove unregisters one (pattern, code) pair. Empty branches are left in
// place; the trie is rebuilt wholesale by the manager on compaction.
func (t *TriePrefixIndex) Remove(prefix string, code core.Event) {
	n := t.root
	for i := 0; i < len(prefix); i++ {
		c := n.children[prefix[i]]
		if c == nil {
			return
		}
		n = c
	}
	for i, x := range n.codes {
		if x == code {
			copy(n.codes[i:], n.codes[i+1:])
			n.codes = n.codes[:len(n.codes)-1]
			break
		}
	}
	if len(n.codes) == 0 {
		t.count--
	}
}

// Lookup walks the trie along the URL, emitting codes at every marked node.
func (t *TriePrefixIndex) Lookup(url string, emit func(core.Event)) {
	n := t.root
	for _, c := range n.codes {
		emit(c)
	}
	for i := 0; i < len(url); i++ {
		n = n.children[url[i]]
		if n == nil {
			return
		}
		for _, c := range n.codes {
			emit(c)
		}
	}
}

// Len returns the number of distinct marked patterns.
func (t *TriePrefixIndex) Len() int { return t.count }

// MemoryEstimate approximates retained bytes across trie nodes.
func (t *TriePrefixIndex) MemoryEstimate() int64 {
	var walk func(n *trieNode) int64
	walk = func(n *trieNode) int64 {
		b := int64(24 /*codes header*/ + len(n.codes)*4 + 8 /*map ptr*/)
		if n.children != nil {
			b += int64(len(n.children)) * (1 + 8 + 16) // key + ptr + bucket share
			for _, c := range n.children {
				b += walk(c)
			}
		}
		return b
	}
	return walk(t.root)
}

func TestPrefixIndexImplementationsAgree(t *testing.T) {
	hash := NewHashPrefixIndex()
	trie := NewTriePrefixIndex()
	patterns := []string{
		"http://a.com/", "http://a.com/x/", "http://a.com/x/y/",
		"http://b.org/", "", "http://a.com/x/y/z.xml",
	}
	for i, pat := range patterns {
		hash.Add(pat, core.Event(i))
		trie.Add(pat, core.Event(i))
	}
	urls := []string{
		"http://a.com/x/y/z.xml", "http://a.com/", "http://b.org/q",
		"http://c.net/", "", "http://a.com/x/other",
	}
	collect := func(idx prefixIndex, url string) []core.Event {
		var out []core.Event
		idx.Lookup(url, func(c core.Event) { out = append(out, c) })
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for _, u := range urls {
		h := collect(hash, u)
		tr := collect(trie, u)
		if len(h) != len(tr) {
			t.Fatalf("url %q: hash %v, trie %v", u, h, tr)
		}
		for i := range h {
			if h[i] != tr[i] {
				t.Fatalf("url %q: hash %v, trie %v", u, h, tr)
			}
		}
	}
	if hash.Len() != trie.Len() {
		t.Errorf("Len: hash %d, trie %d", hash.Len(), trie.Len())
	}
	// Remove and re-check.
	hash.Remove("http://a.com/x/", 1)
	trie.Remove("http://a.com/x/", 1)
	h := collect(hash, "http://a.com/x/y/z.xml")
	tr := collect(trie, "http://a.com/x/y/z.xml")
	if len(h) != len(tr) || len(h) != 4 {
		t.Errorf("after remove: hash %v, trie %v", h, tr)
	}
	if hash.MemoryEstimate() <= 0 || trie.MemoryEstimate() <= 0 {
		t.Error("memory estimates should be positive")
	}
}

// BenchmarkURLAlerter is the Section 6.2 ablation: hash-table prefix
// lookup against the dictionary (trie) structure the paper measured as
// ~30% faster but too memory-hungry.
func BenchmarkURLAlerter(b *testing.B) {
	const patterns = 100000
	urls := make([]string, 1024)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://site%d.example/path/sub%d/page%d.xml", i%500, i%37, i)
	}
	for _, impl := range []struct {
		name string
		idx  prefixIndex
	}{
		{"hash", NewHashPrefixIndex()},
		{"trie", NewTriePrefixIndex()},
	} {
		for i := 0; i < patterns; i++ {
			impl.idx.Add(fmt.Sprintf("http://site%d.example/path/sub%d/", i%500, i%37), core.Event(i))
		}
		b.Run(impl.name, func(b *testing.B) {
			b.ReportMetric(float64(impl.idx.MemoryEstimate())/1e6, "MB")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				impl.idx.Lookup(urls[i%len(urls)], func(core.Event) {})
			}
		})
	}
}
