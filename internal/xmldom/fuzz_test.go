package xmldom

import "testing"

// FuzzParseBytes differentially fuzzes the byte tokenizer path against
// the legacy encoding/xml-based parser: for every input, either both
// reject, or both accept and build identical trees (same Hash64, same
// serialisation).
func FuzzParseBytes(f *testing.F) {
	for _, src := range parityCases {
		f.Add(src)
	}
	for _, c := range boundaryCases(f) {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d1, err1 := ParseString(src)
		d2, err2 := ParseBytes([]byte(src))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("accept/reject divergence on %q: Parse err=%v, ParseBytes err=%v", src, err1, err2)
		}
		if err1 != nil {
			return
		}
		if h1, h2 := d1.Root.Hash64(HashSeed()), d2.Root.Hash64(HashSeed()); h1 != h2 {
			t.Fatalf("tree divergence on %q:\n legacy %q\n bytes  %q", src, d1.XML(), d2.XML())
		}
		if x1, x2 := d1.XML(), d2.XML(); x1 != x2 {
			t.Fatalf("serialisation divergence on %q: %q vs %q", src, x1, x2)
		}
	})
}

// FuzzParse checks the XML parser never panics and that accepted
// documents serialise to a fixed point.
func FuzzParse(f *testing.F) {
	f.Add(`<catalog><product><name>radio</name></product></catalog>`)
	f.Add(`<a x="1">text<b/>&amp;</a>`)
	f.Add(`<a><b></a></b>`)
	f.Add("")
	f.Fuzz(func(t *testing.T, src string) {
		d, err := ParseString(src)
		if err != nil {
			return
		}
		out := d.XML()
		d2, err := ParseString(out)
		if err != nil {
			t.Fatalf("serialised form does not reparse: %q -> %q: %v", src, out, err)
		}
		if d2.XML() != out {
			t.Fatalf("serialisation not a fixed point: %q vs %q", out, d2.XML())
		}
	})
}
