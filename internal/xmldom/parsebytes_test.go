package xmldom

import (
	"strings"
	"testing"
)

// parityCases are inputs that exercise the corners where the byte
// tokenizer must agree with the strict encoding/xml decoder: namespace
// end-tag matching, entity validation, CDATA termination, directives
// with embedded comments, xml declarations, and character-range rules.
var parityCases = []string{
	`<catalog site="x"><product id="p1"><name>radio</name><price>10</price></product></catalog>`,
	`<a x="1">text<b/>&amp;</a>`,
	`<a><b></a></b>`,
	``,
	`<a/>`,
	`junk<a/>tail`,
	`<a/><b/>`,
	`<a>&#32;</a>`,
	`<a><![CDATA[x]]y]]></a>`,
	`<a>]]></a>`,
	`<a>]]&gt;</a>`,
	`<?xml version="1.0" encoding="UTF-8"?><a/>`,
	`<?xml version="2.0"?><a/>`,
	`<?xml version="1.0" encoding="latin-1"?><a/>`,
	"<a>\r\nx\r</a>",
	"<a b=\"x\ry\"/>",
	`<a:b xmlns:a="u"></a:b>`,
	`<a:b></c:b>`,
	`<a:b:c/>`,
	`<:a></:a>`,
	`<a:></a:>`,
	`<a b='q"q'/>`,
	`<a b="q'q"/>`,
	`<a b="<"/>`,
	`<a b=x/>`,
	`<a b/>`,
	`<!DOCTYPE doc [<!ENTITY x "y">]><doc/>`,
	`<!DOCTYPE doc [ <!-- <not-nested --> ]><doc/>`,
	`<a><!-- c --x --></a>`,
	`<a><!-- ok --></a>`,
	`<a><?pi any ! content?></a>`,
	`<a>&#xD800;</a>`,
	`<a>&#x110000;</a>`,
	`<a>&#1;</a>`,
	`<a>&#x10FFFF;</a>`,
	`<a>cam&#101;ra</a>`,
	`<a>&unknown;</a>`,
	`<a>&lt;&gt;&amp;&apos;&quot;</a>`,
	`<a>&#;</a>`,
	`<a>&# ;</a>`,
	`<a>& amp;</a>`,
	`<a`,
	`<a>`,
	`</a>`,
	`<a></a`,
	`<a></a >`,
	`<a ></a>`,
	`<a><![CDATA[never closed</a>`,
	`<a>x<![CDATA[y]]>z</a>`,
	"<a>\x01</a>",
	"<a>\xff</a>",
	"\ufeff<a/>",
	`<a> <b/> </a>`,
	`<π>τ</π>`,
	`<a xmlns="u" xmlns:p="v" p:x="1"/>`,
}

// TestParseBytesParity holds ParseBytes to the encoding/xml oracle's
// accept/reject decision and tree shape on every handwritten corner.
func TestParseBytesParity(t *testing.T) {
	for _, src := range parityCases {
		d1, err1 := stdlibParse([]byte(src))
		d2, err2 := ParseBytes([]byte(src))
		if (err1 == nil) != (err2 == nil) {
			t.Errorf("%q: oracle err=%v, ParseBytes err=%v", src, err1, err2)
			continue
		}
		if err1 != nil {
			continue
		}
		if x1, x2 := d1.XML(), d2.XML(); x1 != x2 {
			t.Errorf("%q: trees differ:\n oracle %q\n bytes  %q", src, x1, x2)
		}
		if h1, h2 := d1.Root.SubtreeHash(), d2.Root.SubtreeHash(); h1 != h2 {
			t.Errorf("%q: SubtreeHash differs", src)
		}
	}
}

// TestParseBytesParentsAndXIDs checks the arena-built tree is fully
// wired: parent links, preorder XIDs and attribute access.
func TestParseBytesParentsAndXIDs(t *testing.T) {
	d, err := ParseBytes([]byte(`<r a="1"><b>x</b><c d="2"><e/></c></r>`))
	if err != nil {
		t.Fatal(err)
	}
	if d.Root.Data != "r" || d.Root.XID != 1 {
		t.Fatalf("root = %v", d.Root)
	}
	if v, ok := d.Root.Attr("a"); !ok || v != "1" {
		t.Fatalf("attr a = %q, %v", v, ok)
	}
	seen := 0
	d.Root.PreOrder(func(n *Node) bool {
		seen++
		for _, c := range n.Children {
			if c.Parent != n {
				t.Fatalf("child %v of %v has parent %v", c, n, c.Parent)
			}
		}
		return true
	})
	if seen != 5 {
		t.Fatalf("node count = %d, want 5", seen)
	}
	// XIDs are preorder-dense starting at 1, like NewDocument assigns.
	if c := d.Root.Children[1]; c.Data != "c" || c.XID != 4 {
		t.Fatalf("second child = %v", c)
	}
}

// TestParseBytesSiblingIsolation makes sure the capacity-clipped child
// slices from the arena cannot alias: appending a child to one element
// must not clobber its sibling's children.
func TestParseBytesSiblingIsolation(t *testing.T) {
	d, err := ParseBytes([]byte(`<r><a><x/></a><b><y/></b></r>`))
	if err != nil {
		t.Fatal(err)
	}
	a, b := d.Root.Children[0], d.Root.Children[1]
	a.AppendChild(Element("z"))
	if b.Children[0].Data != "y" {
		t.Fatalf("sibling clobbered: %v", b.Children[0])
	}
	if len(a.Children) != 2 || a.Children[1].Data != "z" {
		t.Fatalf("append lost: %v", a.Children)
	}
}

// TestParseBytesDeep parses a deep chain: the explicit frame stack must
// not recurse per level.
func TestParseBytesDeep(t *testing.T) {
	const depth = 50_000
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		sb.WriteString("<d>")
	}
	sb.WriteString("leaf")
	for i := 0; i < depth; i++ {
		sb.WriteString("</d>")
	}
	d, err := ParseBytes([]byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	n := d.Root
	levels := 1
	for len(n.Children) > 0 && n.Children[0].Type == ElementNode {
		n = n.Children[0]
		levels++
	}
	if levels != depth {
		t.Fatalf("depth = %d, want %d", levels, depth)
	}
}
