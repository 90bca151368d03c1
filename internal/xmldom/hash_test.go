package xmldom

import (
	"hash/fnv"
	"testing"
)

// recursiveSubtreeHash is the structural hash written as plain
// recursion, kept as the test oracle: the iterative fold must produce
// bit-identical values.
func recursiveSubtreeHash(n *Node) uint64 {
	h := uint64(fnvOffset64)
	if n.Type == TextNode {
		h ^= 't'
		h *= fnvPrime64
		return HashFold(h, n.Data)
	}
	h ^= 'e'
	h *= fnvPrime64
	h = HashFold(h, n.Data)
	for _, a := range n.Attrs() {
		h = HashFold(h, a.Name)
		h = HashFold(h, a.Value)
	}
	h ^= '>'
	h *= fnvPrime64
	for _, c := range n.Children {
		h = FoldUint64(h, recursiveSubtreeHash(c))
	}
	h ^= '<'
	h *= fnvPrime64
	return h
}

func sampleHashTree() *Document {
	return MustParse(`<catalog site="s">
		<product id="p1"><name>radio</name><price>10</price></product>
		<product id="p2"><name>tv</name><price>200</price></product>
		<product id="p1"><name>radio</name><price>10</price></product>
	</catalog>`)
}

func TestHash64MatchesRecursiveOracle(t *testing.T) {
	doc := sampleHashTree()
	hv := doc.Hashes()
	doc.Root.PreOrder(func(n *Node) bool {
		want := recursiveSubtreeHash(n)
		if got := n.SubtreeHash(); got != want {
			t.Fatalf("SubtreeHash(%v) = %#x, recursive oracle %#x", n, got, want)
		}
		if got := hv.Of(n); got != want {
			t.Fatalf("Hashes().Of(%v) = %#x, recursive oracle %#x", n, got, want)
		}
		return true
	})
}

func TestHashStringMatchesFNV(t *testing.T) {
	for _, s := range []string{"", "a", "http://site0.example/catalog1.xml", "über"} {
		f := fnv.New64a()
		f.Write([]byte(s))
		if got, want := HashString(s), f.Sum64(); got != want {
			t.Errorf("HashString(%q) = %#x, fnv.New64a %#x", s, got, want)
		}
	}
}

func TestHashVectorIdenticalSubtreesShareHashes(t *testing.T) {
	doc := sampleHashTree()
	hv := doc.Hashes()
	if hv.Len() != doc.Root.Size() {
		t.Fatalf("vector has %d entries for %d nodes", hv.Len(), doc.Root.Size())
	}
	products := doc.Root.Elements("product")
	if len(products) != 3 {
		t.Fatalf("want 3 products, got %d", len(products))
	}
	if hv.Of(products[0]) != hv.Of(products[2]) {
		t.Error("identical product subtrees have different hashes")
	}
	if hv.Of(products[0]) == hv.Of(products[1]) {
		t.Error("different product subtrees share a hash")
	}
	// The vector must agree with itself across documents: the same
	// subtree shape in an independently parsed document hashes equal.
	again := sampleHashTree()
	hv2 := again.Hashes()
	if hv.Of(doc.Root) != hv2.Of(again.Root) {
		t.Error("equal documents hash differently")
	}
	// Cached: same pointer until invalidated.
	if doc.Hashes() != hv {
		t.Error("Hashes did not cache the vector")
	}
	doc.InvalidateHashes()
	hv3 := doc.Hashes()
	if hv3.Of(doc.Root) != hv2.Of(again.Root) {
		t.Error("recomputed vector changed the root hash")
	}
}

func TestHashVectorInvalidateOnMutation(t *testing.T) {
	doc := sampleHashTree()
	before := doc.Hashes().Of(doc.Root)
	doc.Root.AppendChild(Element("promo", Text("sale")))
	doc.InvalidateHashes()
	after := doc.Hashes().Of(doc.Root)
	if before == after {
		t.Error("root hash unchanged after mutation + invalidation")
	}
	if doc.Hashes().Len() != doc.Root.Size() {
		t.Errorf("vector has %d entries for %d nodes", doc.Hashes().Len(), doc.Root.Size())
	}
}

func TestHashVectorCloneIndependent(t *testing.T) {
	doc := sampleHashTree()
	hv := doc.Hashes()
	clone := doc.Clone()
	// The clone must not inherit the cache (its nodes carry no valid ord
	// until its own vector is computed).
	chv := clone.Hashes()
	if chv == hv {
		t.Fatal("clone shares the original's hash vector")
	}
	if chv.Of(clone.Root) != hv.Of(doc.Root) {
		t.Error("clone hashes differently from the original")
	}
}

// deepChain builds a single-path document of the given depth with one text
// leaf at the bottom.
func deepChain(depth int, leaf string) *Document {
	root := Element("e0")
	n := root
	for i := 1; i < depth; i++ {
		c := Element("d")
		n.AppendChild(c)
		n = c
	}
	n.AppendChild(Text(leaf))
	return NewDocument(root)
}

// TestDeepTreeNoStackOverflow is the regression test for the iterative
// traversals: a chain 10^5 elements deep must hash, measure and stringify
// without growing the goroutine stack by a frame per level.
func TestDeepTreeNoStackOverflow(t *testing.T) {
	const depth = 120_000
	doc := deepChain(depth, "leaf")
	if got := doc.Root.Size(); got != depth+1 {
		t.Fatalf("Size = %d, want %d", got, depth+1)
	}
	if got := doc.Root.TextContent(); got != "leaf" {
		t.Fatalf("TextContent = %q", got)
	}
	h1 := doc.Root.SubtreeHash()
	h2 := deepChain(depth, "leaf").Root.SubtreeHash()
	if h1 != h2 {
		t.Error("equal deep chains hash differently")
	}
	if h3 := deepChain(depth, "other").Root.SubtreeHash(); h3 == h1 {
		t.Error("different deep chains share a SubtreeHash")
	}
	hv := doc.Hashes()
	if hv.Len() != depth+1 {
		t.Fatalf("vector has %d entries, want %d", hv.Len(), depth+1)
	}
	other := deepChain(depth, "other")
	ohv := other.Hashes()
	if hv.Of(doc.Root) == ohv.Of(other.Root) {
		t.Error("different deep chains share a subtree hash")
	}
	if hv.Of(doc.Root) != deepChain(depth, "leaf").Hashes().Of(doc.Root) {
		// Of uses the receiver vector with the argument's ord; both roots
		// have ord 0, so this cross-lookup is well-defined here.
		t.Error("equal deep chains have different subtree hashes")
	}
}

// containsWordRef is the tokenising reference the in-place ContainsWord
// scanner must agree with.
func containsWordRef(text, word string) bool {
	for _, w := range Words(text) {
		if w == word {
			return true
		}
	}
	return false
}

func TestContainsWordMatchesTokenizer(t *testing.T) {
	texts := []string{
		"", "camera", "Digital Camera, new!", "camcorder", "cam era",
		"a cam", "cam", "CAMERA", "xx camera", "camera xx", "über Öl",
		"price10 radio", "10", "a-b-c", "...", "camera, camera",
		"word wordy word", "ïljk IJ", "end camera",
	}
	words := []string{"camera", "cam", "era", "10", "öl", "über", "word", "wordy", "a", ""}
	for _, txt := range texts {
		for _, w := range words {
			want := w != "" && containsWordRef(txt, w)
			if got := ContainsWord(txt, w); got != want {
				t.Errorf("ContainsWord(%q, %q) = %v, want %v", txt, w, got, want)
			}
		}
	}
}

// Len returns the number of hashed nodes.
func (hv *HashVector) Len() int { return len(hv.v) }
