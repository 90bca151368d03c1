package alerter

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"xymon/internal/core"
	"xymon/internal/sublang"
	"xymon/internal/warehouse"
	"xymon/internal/webgen"
	"xymon/internal/xmldom"
)

// prefilterAlerter is the condition set shared by the prefilter tests and
// FuzzPrefilter: one contains, one contains on another tag, one strict,
// one self-contains.
func prefilterAlerter() *XMLAlerter {
	x := NewXMLAlerter()
	x.Register(1, sublang.Condition{Kind: sublang.CondElement, Tag: "product", Str: "camera"})
	x.Register(2, sublang.Condition{Kind: sublang.CondElement, Tag: "catalog", Str: "radio"})
	x.Register(3, sublang.Condition{Kind: sublang.CondElement, Tag: "name", Str: "alpha", Strict: true})
	x.Register(4, sublang.Condition{Kind: sublang.CondSelfContains, Str: "sound"})
	return x
}

// presenceEvents runs XMLAlerter.Detect on an unchanged document and
// returns the emitted events (no change conditions are registered, so
// these are exactly the presence/self-contains events).
func presenceEvents(x *XMLAlerter, doc *xmldom.Document) []core.Event {
	var events []core.Event
	x.Detect(&Doc{
		Meta:   warehouse.Metadata{URL: "u", Type: warehouse.XML},
		Status: warehouse.StatusUnchanged,
		Doc:    doc,
	}, func(c core.Event) { events = append(events, c) })
	return events
}

func TestPrefilterMatchesDetect(t *testing.T) {
	x := prefilterAlerter()
	pf := NewPrefilter(x)
	cases := []struct {
		src  string
		want bool
	}{
		{`<catalog><product><name>digital camera</name></product></catalog>`, true},
		{`<catalog><product><name>turntable</name></product></catalog>`, false},
		// The word table is word-based: substrings must not match.
		{`<catalog><product>cameras</product></catalog>`, false},
		// `contains` needs the word anywhere under the tag...
		{`<inventory><product><deep><deeper>camera</deeper></deep></product></inventory>`, true},
		// ...but under the right tag.
		{`<inventory><item>camera</item></inventory>`, false},
		// `strict` needs the word directly under the tag.
		{`<catalog><name>radio alpha</name></catalog>`, true},
		{`<catalog><name><sub>alpha</sub></name></catalog>`, false},
		// self-contains matches anywhere.
		{`<a><b><c>great sound</c></b></a>`, true},
		// Case folding and entity decoding happen before word matching.
		{`<product>CAMERA</product>`, true},
		{`<product>cam&#101;ra</product>`, true},
		// Adjacent CDATA makes a separate text node: words never merge.
		{`<product>cam<![CDATA[era]]></product>`, false},
		{`<product><![CDATA[camera]]></product>`, true},
		// Top-level character data is dropped before it reaches the tree.
		{`sound<a/>`, false},
	}
	for _, c := range cases {
		got := pf.Match([]byte(c.src))
		if got != c.want {
			t.Errorf("Match(%q) = %v, want %v", c.src, got, c.want)
		}
		doc, err := xmldom.ParseBytes([]byte(c.src))
		if err != nil {
			t.Fatalf("ParseBytes(%q): %v", c.src, err)
		}
		if events := presenceEvents(x, doc); (len(events) > 0) != c.want {
			t.Errorf("Detect(%q) events = %v, prefilter said %v", c.src, events, got)
		}
	}
}

func TestPrefilterEmptyAlerterNeverMatches(t *testing.T) {
	pf := NewPrefilter(NewXMLAlerter())
	if pf.Match([]byte(`<product>camera</product>`)) {
		t.Fatal("empty alerter matched")
	}
}

// A malformed document must pass the filter: the parse path owns the
// error, the pre-filter must not swallow it into a silent skip.
func TestPrefilterMalformedPasses(t *testing.T) {
	pf := NewPrefilter(prefilterAlerter())
	for _, src := range []string{`<a><b></a>`, `<a>`, `<a>&bogus;</a>`, `not xml`, `<a/><b/>`, `<a>x</a><b>y</b>`} {
		if !pf.Match([]byte(src)) {
			t.Errorf("Match(%q) = false, want true for malformed input", src)
		}
	}
}

// TestPrefilterScreenFollowsUnregister pins the write path of the word
// screen: its bits are counted per indexed word, so a word that leaves
// the index takes its length and first-byte bits along only when it was
// their last holder, and the filter stays exact both ways throughout.
func TestPrefilterScreenFollowsUnregister(t *testing.T) {
	x := NewXMLAlerter()
	pf := NewPrefilter(x)
	// Two words of one length and one first byte, the first under two codes.
	camera := sublang.Condition{Kind: sublang.CondElement, Tag: "product", Str: "camera"}
	candle := sublang.Condition{Kind: sublang.CondSelfContains, Str: "Candle"}
	x.Register(1, camera)
	x.Register(2, camera)
	x.Register(3, candle)
	check := func(step, src string, want bool) {
		t.Helper()
		if got := pf.Match([]byte(src)); got != want {
			t.Errorf("%s: Match(%q) = %v, want %v", step, src, got, want)
		}
		if events := presenceEvents(x, xmldom.MustParse(src)); (len(events) > 0) != want {
			t.Errorf("%s: Detect(%q) = %v, want events: %v", step, src, events, want)
		}
	}
	const hasCamera, hasCandle = `<product>a Camera</product>`, `<shop>candle</shop>`
	// The screen admits "castle" (same length, same first byte); the index does not hold it.
	const hasNeither = `<product>castle cameras c camera2 Kamera</product>`
	for _, step := range []struct {
		name           string
		unregister     core.Event
		cond           sublang.Condition
		camera, candle bool
	}{
		{"all registered", 0, sublang.Condition{}, true, true},
		{"one of two codes on camera gone", 1, camera, true, true},
		{"camera gone", 2, camera, false, true},
	} {
		if step.unregister != 0 {
			x.Unregister(step.unregister, step.cond)
		}
		check(step.name, hasCamera, step.camera)
		check(step.name, hasCandle, step.candle)
		check(step.name, hasNeither, false)
	}
	x.Unregister(3, candle)
	if x.screen != (xmldom.WordScreen{}) {
		t.Errorf("screen not empty after the last word left: %+v", x.screen)
	}
	// An empty base refuses without tokenizing: malformed input, which a
	// token pass must let through, is refused too.
	if pf.Match([]byte(`<a><b></a>`)) {
		t.Error("empty base: Match tokenized the input")
	}
	x.Register(4, camera)
	check("registered again", hasCamera, true)
	check("registered again", hasCandle, false)
}

func TestURLAlerterCouldAlert(t *testing.T) {
	a := NewURLAlerter()
	if a.CouldAlert("http://x/a.xml", "a.xml", "http://x/cat.dtd", "shopping") {
		t.Fatal("empty alerter could alert")
	}
	a.Register(1, sublang.Condition{Kind: sublang.CondURLExtends, Str: "http://x/"})
	if !a.CouldAlert("http://x/a.xml", "a.xml", "", "") {
		t.Fatal("prefix miss")
	}
	if a.CouldAlert("http://y/a.xml", "a.xml", "", "") {
		t.Fatal("prefix false positive")
	}
	a.Unregister(1, sublang.Condition{Kind: sublang.CondURLExtends, Str: "http://x/"})
	a.Register(2, sublang.Condition{Kind: sublang.CondDTD, Str: "http://x/cat.dtd"})
	if !a.CouldAlert("http://y/a.xml", "a.xml", "http://x/cat.dtd", "") {
		t.Fatal("dtd miss")
	}
	if a.CouldAlert("http://y/a.xml", "a.xml", "http://other/d.dtd", "") {
		t.Fatal("dtd false positive")
	}
	// Post-commit metadata (ids, dates) and self-change conditions keep
	// every page on the parse path.
	a.Register(3, sublang.Condition{Kind: sublang.CondDOCID, Num: 7})
	if !a.CouldAlert("http://anything/", "x", "", "") {
		t.Fatal("docid must force parsing")
	}
	a.Unregister(3, sublang.Condition{Kind: sublang.CondDOCID, Num: 7})
	a.Register(4, sublang.Condition{Kind: sublang.CondSelfChange, Change: sublang.OpUpdated})
	if !a.CouldAlert("http://anything/", "x", "", "") {
		t.Fatal("self-change must force parsing")
	}
}

func TestXMLAlerterHasChangeConds(t *testing.T) {
	x := prefilterAlerter()
	if x.HasChangeConds() {
		t.Fatal("presence conditions are not change conditions")
	}
	cond := sublang.Condition{Kind: sublang.CondElement, Change: sublang.OpNew, Tag: "product"}
	x.Register(9, cond)
	if !x.HasChangeConds() {
		t.Fatal("new-element condition not seen")
	}
	x.Unregister(9, cond)
	if x.HasChangeConds() {
		t.Fatal("unregister left a change condition behind")
	}
}

// TestDetectPresenceDeepChain pins the iterative rewrite: a 100k-deep
// element chain must neither overflow the goroutine stack nor lose the
// word collected at the leaf (the structural hash and TextContent are
// iterative the same way; this walk had been missed).
func TestDetectPresenceDeepChain(t *testing.T) {
	const depth = 100_000
	root := xmldom.Element("d")
	n := root
	for i := 1; i < depth; i++ {
		c := xmldom.Element("d")
		n.AppendChild(c)
		n = c
	}
	n.AppendChild(xmldom.Text("needle leafword"))

	x := NewXMLAlerter()
	x.Register(1, sublang.Condition{Kind: sublang.CondElement, Tag: "d", Str: "needle"})
	x.Register(2, sublang.Condition{Kind: sublang.CondElement, Tag: "d", Str: "leafword", Strict: true})
	events := presenceEvents(x, &xmldom.Document{Root: root})
	// The contains event fires once per enclosing <d>; the strict event
	// once, at the leaf.
	var c1, c2 int
	for _, e := range events {
		switch e {
		case 1:
			c1++
		case 2:
			c2++
		}
	}
	if c1 != depth || c2 != 1 {
		t.Fatalf("events: contains fired %d times (want %d), strict %d times (want 1)", c1, depth, c2)
	}
}

// FuzzPrefilter holds the pre-filter to its contract: it must never
// reject a document on which the XML alerter would emit a presence or
// self-contains event (no false negatives, ever), it must pass every
// document ParseBytes rejects, and — since Match is documented as exact —
// a parseable match must raise at least one event.
func FuzzPrefilter(f *testing.F) {
	seeds := []string{
		`<catalog><product><name>digital camera</name></product></catalog>`,
		`<catalog><product><name>turntable</name></product></catalog>`,
		`<product>cam&#101;ra</product>`,
		`<product>cam<![CDATA[era]]></product>`,
		`<a><b><c>great sound</c></b></a>`,
		`<catalog><name>radio alpha</name></catalog>`,
		`<product>CAMERA</product>`,
		`sound<a/>`,
		`<a><b></a>`,
		``,
		`<a/><b/>`,
		`<a>x</a><b>y</b>`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// The tokenizer's boundary inputs: the filter runs on the same kernel.
	boundary, err := os.ReadFile("../xmldom/testdata/boundary.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(boundary), "\n") {
		var s string
		if _, err := fmt.Sscanf(line, "%q", &s); err == nil {
			f.Add(s)
		}
	}
	x := prefilterAlerter()
	pf := NewPrefilter(x)
	f.Fuzz(func(t *testing.T, src string) {
		match := pf.Match([]byte(src))
		doc, err := xmldom.ParseBytes([]byte(src))
		if err != nil {
			// A malformed document is the parser's error to surface: the
			// filter must pass it on.
			if !match {
				t.Fatalf("prefilter rejected %q, which ParseBytes rejects: %v", src, err)
			}
			return
		}
		events := presenceEvents(x, doc)
		if !match && len(events) > 0 {
			t.Fatalf("false negative on %q: prefilter rejected, Detect emitted %v", src, events)
		}
		if match && len(events) == 0 {
			t.Fatalf("false positive on %q: prefilter matched, Detect emitted nothing", src)
		}
	})
}

// BenchmarkPrefilterReject is the ingest gate's steady state: a catalog
// page of 100 products that carries no registered word. The 1-word base
// is the discovery-nomatch shape, where the word screen refuses nearly
// every word on two loads; the 10 000-word base saturates the screen, so
// every word costs its one index lookup.
func BenchmarkPrefilterReject(b *testing.B) {
	site := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://mall.example/", Pages: 1, Products: 100, Seed: 1})
	page := site.FetchXMLBytes(site.XMLURLs()[0], 1)
	for _, base := range []int{1, 10_000} {
		x := NewXMLAlerter()
		x.Register(0, sublang.Condition{Kind: sublang.CondElement, Tag: "product", Str: "zyzzyva"})
		for i := 1; i < base; i++ {
			// Words webgen never writes (a letter or digit, q's, a
			// number), of every first byte and length it does write.
			const alnum = "abcdefghijklmnopqrstuvwxyz0123456789"
			word := fmt.Sprintf("%c%s%d", alnum[i%36], strings.Repeat("q", 1+i/36%8), i)
			x.Register(core.Event(i), sublang.Condition{Kind: sublang.CondElement, Tag: "product", Str: word})
		}
		pf := NewPrefilter(x)
		b.Run(fmt.Sprintf("base=%d", base), func(b *testing.B) {
			if pf.Match(page) {
				b.Fatal("page matched")
			}
			b.SetBytes(int64(len(page)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pf.Match(page)
			}
		})
	}
}

// TestWordGenFollowsIndex: every Register and Unregister that changes the
// word index moves its generation, a tag-only change to a word's entry
// included; a change condition, which the ingest gate decides before the
// screen, and a condition on metadata do not.
func TestWordGenFollowsIndex(t *testing.T) {
	x := NewXMLAlerter()
	gen, empty := x.WordGen()
	if !empty {
		t.Fatal("a new alerter's word index is not empty")
	}
	product := sublang.Condition{Kind: sublang.CondElement, Tag: "product", Str: "camera"}
	offer := sublang.Condition{Kind: sublang.CondElement, Tag: "offer", Str: "camera"}
	strict := sublang.Condition{Kind: sublang.CondElement, Tag: "name", Str: "camera", Strict: true}
	self := sublang.Condition{Kind: sublang.CondSelfContains, Str: "camera"}
	change := sublang.Condition{Kind: sublang.CondElement, Tag: "product", Str: "camera", Change: sublang.OpNew}
	url := sublang.Condition{Kind: sublang.CondURLExtends, Str: "http://a.example/"}
	for _, step := range []struct {
		name  string
		apply func()
		moves bool
		empty bool
	}{
		{"product contains camera", func() { x.Register(1, product) }, true, false},
		{"offer contains camera, a tag-only change", func() { x.Register(2, offer) }, true, false},
		{"strict contains on the same word", func() { x.Register(3, strict) }, true, false},
		{"self contains on the same word", func() { x.Register(4, self) }, true, false},
		{"a change condition", func() { x.Register(5, change) }, false, false},
		{"a URL condition", func() { x.Register(6, url) }, false, false},
		{"offer gone, the word stays", func() { x.Unregister(2, offer) }, true, false},
		{"the change condition gone", func() { x.Unregister(5, change) }, false, false},
		{"an unregistered word", func() { x.Unregister(7, sublang.Condition{Kind: sublang.CondSelfContains, Str: "tripod"}) }, false, false},
		{"strict and self gone", func() { x.Unregister(3, strict); x.Unregister(4, self) }, true, false},
		{"the word's last condition gone", func() { x.Unregister(1, product) }, true, true},
	} {
		step.apply()
		next, e := x.WordGen()
		if (next != gen) != step.moves || e != step.empty {
			t.Errorf("%s: generation %d → %d, empty %v; want moved %v, empty %v", step.name, gen, next, e, step.moves, step.empty)
		}
		gen = next
	}
}
