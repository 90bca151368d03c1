package xmldom

import "testing"

// checkTokenizerConsumers holds every consumer of the byte tokenizer to
// the encoding/xml oracle (stdlibParse) on one input:
//   - ParseBytes accepts exactly what the oracle accepts,
//   - and builds the same tree: same Hash64, same serialisation;
//   - the serialisation is a fixed point — it reparses and reprints to
//     itself — whenever every name in the tree is a name on its own
//     (see ownNames);
//   - StreamHasher accepts the same inputs, and its root hash and depth
//     ≤ 2 frontier equal the parsed document's hash vector.
func checkTokenizerConsumers(t *testing.T, src string) {
	want, werr := stdlibParse([]byte(src))
	got, err := ParseBytes([]byte(src))
	if (err == nil) != (werr == nil) {
		t.Fatalf("accept/reject divergence on %q: oracle err=%v, ParseBytes err=%v", src, werr, err)
	}
	checkStreamAgainstDOM(t, src, 2)
	if err != nil {
		return
	}
	out := got.XML()
	if got.Root.Hash64(HashSeed()) != want.Root.Hash64(HashSeed()) {
		t.Fatalf("tree divergence on %q:\n oracle %q\n bytes  %q", src, want.XML(), out)
	}
	if w := want.XML(); out != w {
		t.Fatalf("serialisation divergence on %q: oracle %q, bytes %q", src, w, out)
	}
	if !ownNames(got.Root) {
		return
	}
	re, err := ParseBytes([]byte(out))
	if err != nil {
		t.Fatalf("serialised form does not reparse: %q -> %q: %v", src, out, err)
	}
	if again := re.XML(); again != out {
		t.Fatalf("serialisation not a fixed point: %q vs %q", out, again)
	}
}

// ownNames reports whether every tag and attribute name in the tree is an
// XML name by itself. The tree keeps local names, as the stdlib decoder
// does, and a local part need not be one: <a:1/> is accepted, but its
// tree writes as <1/>, which no parser accepts.
func ownNames(n *Node) bool {
	return n.PreOrder(func(x *Node) bool {
		if x.Type == TextNode {
			return true
		}
		if !isName([]byte(x.Tag)) {
			return false
		}
		for _, a := range x.Attrs {
			if !isName([]byte(a.Name)) {
				return false
			}
		}
		return true
	})
}

// fuzzTokenizerConsumers seeds the harness with the parity corners, every
// line of testdata/boundary.txt and a few whole documents, and fuzzes it.
func fuzzTokenizerConsumers(f *testing.F) {
	for _, src := range parityCases {
		f.Add(src)
	}
	for _, c := range boundaryCases(f) {
		f.Add(c.src)
	}
	f.Add(`<c a="1" b="&lt;x&gt;">  <p id="p0"><n>radio</n></p> t <p/> </c>`)
	f.Add("<a>\r\n<b>x</b><![CDATA[ ]]>]]&gt;<b>x</b>\r</a>")
	f.Add(`<catalog><product><name>radio</name></product></catalog>`)
	f.Add(`<A:00 p:1="x"/>`)
	f.Fuzz(checkTokenizerConsumers)
}

// FuzzParseBytes is the differential fuzz harness of the tokenizer's
// consumers; CI fuzzes it.
func FuzzParseBytes(f *testing.F) { fuzzTokenizerConsumers(f) }

// FuzzStreamHash and FuzzParse are the same harness under the names the
// stream-hash and fixed-point checks were fuzzed by before they merged
// into it, so those seed tests keep running.
func FuzzStreamHash(f *testing.F) { fuzzTokenizerConsumers(f) }

func FuzzParse(f *testing.F) { fuzzTokenizerConsumers(f) }
