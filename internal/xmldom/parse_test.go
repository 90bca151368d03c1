package xmldom

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasic(t *testing.T) {
	d, err := ParseString(`<catalog type="hi-fi">
		<product><name>Radio X</name><price>10</price></product>
	</catalog>`)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if d.Root.Data != "catalog" {
		t.Errorf("root tag = %q", d.Root.Data)
	}
	if v, _ := d.Root.Attr("type"); v != "hi-fi" {
		t.Errorf("attr type = %q", v)
	}
	products := d.Root.Elements("product")
	if len(products) != 1 {
		t.Fatalf("products = %d, want 1", len(products))
	}
	if got := products[0].TextContent(); got != "Radio X 10" {
		t.Errorf("TextContent = %q", got)
	}
}

func TestParseDropsWhitespaceOnlyText(t *testing.T) {
	d := MustParse("<a>\n\t <b>x</b> \n</a>")
	if len(d.Root.Children) != 1 {
		t.Fatalf("children = %d, want 1 (whitespace dropped)", len(d.Root.Children))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"   ",
		"<a><b></a></b>",
		"<a>",
		"<a></a><b></b>",
	}
	for _, in := range cases {
		if _, err := ParseString(in); err == nil {
			t.Errorf("ParseString(%q) should fail", in)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	cases := []string{
		`<a/>`,
		`<a>text</a>`,
		`<a x="1" y="two"><b>hi</b><c/></a>`,
		`<r><p><q>deep</q></p>tail</r>`,
		`<e>&amp;&lt;&gt;</e>`,
		`<e attr="a&amp;b"/>`,
	}
	for _, in := range cases {
		d, err := ParseString(in)
		if err != nil {
			t.Fatalf("ParseString(%q): %v", in, err)
		}
		out := d.XML()
		d2, err := ParseString(out)
		if err != nil {
			t.Fatalf("reparse(%q): %v", out, err)
		}
		if !treesEqual(d.Root, d2.Root) {
			t.Errorf("round trip changed tree: %q -> %q", in, out)
		}
	}
}

func treesEqual(a, b *Node) bool {
	if a.Type != b.Type || a.Data != b.Data || len(a.Attrs()) != len(b.Attrs()) || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Attrs() {
		if a.Attrs()[i] != b.Attrs()[i] {
			return false
		}
	}
	for i := range a.Children {
		if !treesEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// TestSerializeParsePropertyRandomTrees builds random trees, serialises and
// reparses them, and checks structural equality.
func TestSerializeParsePropertyRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tags := []string{"a", "b", "item", "name", "product"}
	words := []string{"alpha", "beta", "gamma", "x1", "hello world", "a<b&c"}
	var build func(depth int) *Node
	build = func(depth int) *Node {
		n := Element(tags[rng.Intn(len(tags))])
		if rng.Intn(2) == 0 {
			n.WithAttr("k", words[rng.Intn(len(words))])
		}
		kids := rng.Intn(4)
		for i := 0; i < kids; i++ {
			// Avoid adjacent text children: they legitimately merge into one
			// data node on reparse, which would change word boundaries.
			prevText := len(n.Children) > 0 && n.Children[len(n.Children)-1].Type == TextNode
			if !prevText && (depth >= 4 || rng.Intn(3) == 0) {
				n.AppendChild(Text(words[rng.Intn(len(words))]))
			} else {
				n.AppendChild(build(depth + 1))
			}
		}
		return n
	}
	for trial := 0; trial < 100; trial++ {
		root := build(0)
		doc := NewDocument(root)
		out := doc.XML()
		re, err := ParseString(out)
		if err != nil {
			t.Fatalf("trial %d: reparse %q: %v", trial, out, err)
		}
		// Adjacent text nodes may merge on reparse; compare text content and
		// element structure instead of exact node identity.
		if re.Root.TextContent() != doc.Root.TextContent() {
			t.Fatalf("trial %d: text content changed", trial)
		}
		if countElems(re.Root) != countElems(doc.Root) {
			t.Fatalf("trial %d: element count changed", trial)
		}
	}
}

func countElems(n *Node) int {
	c := 0
	n.PreOrder(func(x *Node) bool {
		if x.Type == ElementNode {
			c++
		}
		return true
	})
	return c
}

func TestWords(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", ""},
		{"   ", ""},
		{"Hello", "hello"},
		{"Hello, World!", "hello world"},
		{"hi-fi", "hi fi"},
		{"Prix: 10EUR", "prix 10eur"},
		{"été Déjà", "été déjà"},
	}
	for _, c := range cases {
		got := strings.Join(Words(c.in), " ")
		if got != c.want {
			t.Errorf("Words(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestContainsWord(t *testing.T) {
	if !ContainsWord("Digital Camera, new!", "camera") {
		t.Error("should contain camera")
	}
	if ContainsWord("camcorder", "cam") {
		t.Error("substring is not word containment")
	}
}

func TestNormalizeWord(t *testing.T) {
	if got := NormalizeWord("  Camera!"); got != "camera" {
		t.Errorf("NormalizeWord = %q", got)
	}
	if got := NormalizeWord("!!"); got != "" {
		t.Errorf("NormalizeWord(punct) = %q, want empty", got)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("<a>")
}

// Quick properties of the word tokenisation the alerters rely on.
func TestQuickWordsProperties(t *testing.T) {
	lower := func(s string) bool {
		for _, w := range Words(s) {
			if w == "" {
				return false
			}
			if strings.ToLower(w) != w {
				return false
			}
			// Each word must itself tokenise to exactly itself.
			back := Words(w)
			if len(back) != 1 || back[0] != w {
				return false
			}
			// And be contained per ContainsWord.
			if !ContainsWord(s, w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(lower, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Parsing arbitrary bytes never panics.
func TestQuickParseNeverPanics(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		ParseString(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Serialising any parsed document reparses to the same serialisation.
func TestQuickSerializeFixedPoint(t *testing.T) {
	f := func(src string) bool {
		d, err := ParseString(src)
		if err != nil {
			return true // invalid inputs are out of scope
		}
		out := d.XML()
		d2, err := ParseString(out)
		if err != nil {
			t.Logf("serialised form does not reparse: %q -> %q: %v", src, out, err)
			return false
		}
		return d2.XML() == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
