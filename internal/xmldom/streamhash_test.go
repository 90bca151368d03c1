package xmldom

import (
	"strings"
	"testing"
)

// frontierOracle computes the expected frontier of a parsed document from
// its hash vector: one (depth, hash) entry per node of depth <= maxDepth,
// in document order. Depth is bounded, so plain loops suffice (no
// recursion on fuzz-shaped trees).
func frontierOracle(d *Document, maxDepth int) []FrontierHash {
	var want []FrontierHash
	if maxDepth < 0 {
		return want
	}
	hv := d.Hashes()
	want = append(want, FrontierHash{Depth: 0, Hash: hv.Of(d.Root)})
	if maxDepth < 1 {
		return want
	}
	for _, c := range d.Root.Children {
		want = append(want, FrontierHash{Depth: 1, Hash: hv.Of(c)})
		if maxDepth < 2 {
			continue
		}
		for _, g := range c.Children {
			want = append(want, FrontierHash{Depth: 2, Hash: hv.Of(g)})
		}
	}
	return want
}

func checkStreamAgainstDOM(t *testing.T, src string, maxDepth int) {
	t.Helper()
	var sh StreamHasher
	root, fr, err := sh.Sum([]byte(src), maxDepth)
	doc, perr := ParseBytes([]byte(src))
	if (err == nil) != (perr == nil) {
		t.Fatalf("accept/reject divergence on %q: Sum err=%v, ParseBytes err=%v", src, err, perr)
	}
	if err != nil {
		return
	}
	hv := doc.Hashes()
	if want := hv.Of(doc.Root); root != want {
		t.Fatalf("root hash divergence on %q: stream %#x, DOM %#x", src, root, want)
	}
	want := frontierOracle(doc, maxDepth)
	if len(fr) != len(want) {
		t.Fatalf("frontier length divergence on %q: stream %v, DOM %v", src, fr, want)
	}
	for i := range fr {
		if fr[i] != want[i] {
			t.Fatalf("frontier[%d] divergence on %q: stream %+v, DOM %+v", i, src, fr[i], want[i])
		}
	}
}

func TestStreamHashMatchesDOM(t *testing.T) {
	cases := []string{
		`<catalog><product id="p0"><name>radio</name><price>10</price></product></catalog>`,
		`<catalog site="http://s/"> <product id="p0"> <name> radio </name> </product> </catalog>`,
		"<a>\n\t<b x='1'/>\n</a>",
		`<a>&amp;text&#65;</a>`,
		`<a><![CDATA[raw & <text>]]></a>`,
		`<a>   </a>`, // whitespace-only text drops: hash equals <a/>
		`<a/>`,
		`<deep><l1><l2><l3>x</l3></l2></l1></deep>`,
		`<?xml version="1.0"?><!DOCTYPE a><a><!-- c -->t</a>`,
		`<mixed>one<e/>two<e/>three</mixed>`,
	}
	for _, src := range cases {
		// The oracle enumerates depths 0-2; deeper frontiers are covered by
		// the root-hash equality (the fold is the same code path).
		for depth := -1; depth <= 2; depth++ {
			checkStreamAgainstDOM(t, src, depth)
		}
	}
}

// The whole point of the streaming front end: byte-different but
// semantically identical serialisations hash to the same root.
func TestStreamHashNeutralPerturbations(t *testing.T) {
	base := `<catalog site="s"><product id="p0"><name>radio</name></product><product id="p1"><name>tv</name></product></catalog>`
	variants := []string{
		"<catalog site=\"s\">\n  <product id=\"p0\">\n    <name>radio</name>\n  </product>\n  <product id=\"p1\"><name>tv</name></product>\n</catalog>",
		`<catalog site='s'><product id='p0'><name>radio</name></product><product  id="p1" ><name>tv</name></product></catalog>`,
		`<catalog site="s"><product id="p0"><name>&#114;adio</name></product><product id="p1"><name><![CDATA[tv]]></name></product></catalog>`,
	}
	var sh StreamHasher
	want, _, err := sh.Sum([]byte(base), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		got, _, err := sh.Sum([]byte(v), 1)
		if err != nil {
			t.Fatalf("%q: %v", v, err)
		}
		if got != want {
			t.Errorf("neutral perturbation changed the hash:\n base %q\n vary %q", base, v)
		}
		checkStreamAgainstDOM(t, v, 2)
	}
	// A real edit must change it.
	got, _, err := sh.Sum([]byte(strings.Replace(base, "radio", "sonar", 1)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got == want {
		t.Error("semantic edit did not change the root hash")
	}
}

// The frontier's depth-1 run mirrors the root's children exactly.
func TestStreamHashFrontierMirrorsChildren(t *testing.T) {
	src := `<c>head<p id="a"><x>1</x></p>mid<p id="b"/>tail</c>`
	var sh StreamHasher
	_, fr, err := sh.Sum([]byte(src), 1)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseBytes([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	hv := doc.Hashes()
	var top []FrontierHash
	for _, f := range fr {
		if f.Depth == 1 {
			top = append(top, f)
		}
	}
	if len(top) != len(doc.Root.Children) {
		t.Fatalf("depth-1 frontier has %d entries, root has %d children", len(top), len(doc.Root.Children))
	}
	for i, c := range doc.Root.Children {
		if top[i].Hash != hv.Of(c) {
			t.Errorf("child %d: frontier %#x, vector %#x", i, top[i].Hash, hv.Of(c))
		}
	}
}

// A reused hasher must produce identical results (scratch fully reset)
// and must fail exactly like ParseBytes on the parser-level rejections
// the tokenizer alone would accept.
func TestStreamHashReuseAndErrors(t *testing.T) {
	var sh StreamHasher
	good := `<a><b>x</b></a>`
	h1, _, err := sh.Sum([]byte(good), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "   ", "<!-- only -->", "<a/><b/>", "<a><b></a>", "<a>&bad;</a>"} {
		if _, _, err := sh.Sum([]byte(bad), 1); err == nil {
			t.Errorf("Sum accepted %q", bad)
		}
		if _, perr := ParseBytes([]byte(bad)); perr == nil {
			t.Errorf("oracle drift: ParseBytes accepted %q", bad)
		}
	}
	h2, _, err := sh.Sum([]byte(good), 1)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("reused hasher diverged: %#x vs %#x", h1, h2)
	}
}
