package alerter

import (
	"sync"
	"testing"
	"time"

	"xymon/internal/core"
	"xymon/internal/sublang"
	"xymon/internal/warehouse"
	"xymon/internal/xmldom"
	"xymon/internal/xydiff"
)

func urlCond(kind sublang.CondKind, s string) sublang.Condition {
	return sublang.Condition{Kind: kind, Str: s}
}

func detect(p *Pipeline, d *Doc) core.EventSet {
	a := p.Detect(d)
	if a == nil {
		return nil
	}
	return a.Events
}

func xmlDoc(url string, status warehouse.Status, doc *xmldom.Document) *Doc {
	return &Doc{
		Meta: warehouse.Metadata{
			URL:      url,
			Filename: warehouse.Filename(url),
			Type:     warehouse.XML,
		},
		Status: status,
		Doc:    doc,
	}
}

func htmlDoc(url string, status warehouse.Status, body string) *Doc {
	return &Doc{
		Meta:    warehouse.Metadata{URL: url, Filename: warehouse.Filename(url), Type: warehouse.HTML},
		Status:  status,
		Content: []byte(body),
	}
}

func TestURLAlerterPatterns(t *testing.T) {
	// The pipeline always matches URL prefixes on the hash index.
	t.Run("hash", func(t *testing.T) {
		p := NewPipeline()
		p.Register(1, urlCond(sublang.CondURLExtends, "http://inria.fr/Xy/"))
		p.Register(2, urlCond(sublang.CondURLExtends, "http://inria.fr/"))
		p.Register(3, urlCond(sublang.CondURLEquals, "http://inria.fr/Xy/index.html"))
		p.Register(4, urlCond(sublang.CondFilename, "index.html"))
		p.Register(5, urlCond(sublang.CondURLExtends, "http://other.org/"))

		got := detect(p, xmlDoc("http://inria.fr/Xy/index.html", warehouse.StatusUnchanged, xmldom.MustParse("<a/>")))
		want := core.EventSet{1, 2, 3, 4}
		if !got.Equal(want) {
			t.Errorf("events = %v, want %v", got, want)
		}

		got = detect(p, xmlDoc("http://inria.fr/other.xml", warehouse.StatusUnchanged, xmldom.MustParse("<a/>")))
		want = core.EventSet{2}
		if !got.Equal(want) {
			t.Errorf("events = %v, want %v", got, want)
		}

		if got := detect(p, xmlDoc("http://nowhere.net/x", warehouse.StatusUnchanged, xmldom.MustParse("<a/>"))); got != nil {
			t.Errorf("events = %v, want none", got)
		}
	})
}

func TestURLAlerterMetadataConditions(t *testing.T) {
	p := NewPipeline()
	p.Register(1, sublang.Condition{Kind: sublang.CondDTD, Str: "http://x/cat.dtd"})
	p.Register(2, sublang.Condition{Kind: sublang.CondDTDID, Num: 7})
	p.Register(3, sublang.Condition{Kind: sublang.CondDOCID, Num: 42})
	p.Register(4, sublang.Condition{Kind: sublang.CondDomain, Str: "shopping"})
	d := &Doc{
		Meta: warehouse.Metadata{
			URL: "http://x/c.xml", DTD: "http://x/cat.dtd", DTDID: 7,
			DocID: 42, Domain: "shopping", Type: warehouse.XML,
		},
		Status: warehouse.StatusUnchanged,
		Doc:    xmldom.MustParse("<a/>"),
	}
	got := detect(p, d)
	if !got.Equal(core.EventSet{1, 2, 3, 4}) {
		t.Errorf("events = %v, want {1,2,3,4}", got)
	}
}

func TestURLAlerterDates(t *testing.T) {
	p := NewPipeline()
	ref := time.Date(2001, 5, 1, 0, 0, 0, 0, time.UTC)
	p.Register(1, sublang.Condition{Kind: sublang.CondLastUpdate, Cmp: sublang.CmpGe, Date: ref})
	p.Register(2, sublang.Condition{Kind: sublang.CondLastAccessed, Cmp: sublang.CmpLt, Date: ref})
	d := xmlDoc("http://x/a.xml", warehouse.StatusUnchanged, xmldom.MustParse("<a/>"))
	d.Meta.LastUpdate = ref.Add(24 * time.Hour)
	d.Meta.LastAccessed = ref.Add(-24 * time.Hour)
	got := detect(p, d)
	if !got.Equal(core.EventSet{1, 2}) {
		t.Errorf("events = %v, want {1,2}", got)
	}
	d.Meta.LastUpdate = ref.Add(-time.Hour)
	d.Meta.LastAccessed = ref
	if got := detect(p, d); got != nil {
		t.Errorf("events = %v, want none", got)
	}
}

func TestSelfChangeIsWeak(t *testing.T) {
	p := NewPipeline()
	p.Register(1, sublang.Condition{Kind: sublang.CondSelfChange, Change: sublang.OpUpdated})
	p.Register(2, urlCond(sublang.CondURLExtends, "http://inria.fr/"))

	// Only the weak event fires: the alert must be flagged non-strong.
	d := xmlDoc("http://elsewhere.org/a.xml", warehouse.StatusUpdated, xmldom.MustParse("<a/>"))
	a := p.Detect(d)
	if a == nil || a.Strong {
		t.Errorf("alert = %+v, want weak-only alert", a)
	}

	// With a strong event alongside, the alert is strong.
	d = xmlDoc("http://inria.fr/a.xml", warehouse.StatusUpdated, xmldom.MustParse("<a/>"))
	a = p.Detect(d)
	if a == nil || !a.Strong {
		t.Errorf("alert = %+v, want strong", a)
	}
	if !a.Events.Equal(core.EventSet{1, 2}) {
		t.Errorf("events = %v, want {1,2}", a.Events)
	}

	// An HTML page whose only event is the weak one is weak; a
	// self-contains hit on its body makes it strong.
	p.Register(3, sublang.Condition{Kind: sublang.CondSelfContains, Str: "xyleme"})
	h := htmlDoc("http://elsewhere.org/a.html", warehouse.StatusUpdated, "<p>nothing to see</p>")
	if a := p.Detect(h); a == nil || a.Strong || !a.Events.Equal(core.EventSet{1}) {
		t.Errorf("HTML alert = %+v, want weak-only {1}", a)
	}
	h.Content = []byte("<p>the Xyleme project</p>")
	if a := p.Detect(h); a == nil || !a.Strong || !a.Events.Equal(core.EventSet{1, 3}) {
		t.Errorf("HTML alert = %+v, want strong {1,3}", a)
	}

	// A deleted XML page raises only its weak event.
	p.Register(4, sublang.Condition{Kind: sublang.CondSelfChange, Change: sublang.OpDeleted})
	d = xmlDoc("http://elsewhere.org/gone.xml", warehouse.StatusDeleted, xmldom.MustParse("<a/>"))
	if a := p.Detect(d); a == nil || a.Strong || !a.Events.Equal(core.EventSet{4}) {
		t.Errorf("deleted alert = %+v, want weak-only {4}", a)
	}
}

func TestXMLContainsConditions(t *testing.T) {
	p := NewPipeline()
	p.Register(1, sublang.Condition{Kind: sublang.CondElement, Tag: "category", Str: "electronic"})
	p.Register(2, sublang.Condition{Kind: sublang.CondElement, Tag: "product", Str: "camera"})
	p.Register(3, sublang.Condition{Kind: sublang.CondElement, Tag: "product", Str: "camera", Strict: true})
	p.Register(4, sublang.Condition{Kind: sublang.CondSelfContains, Str: "sound"})

	doc := xmldom.MustParse(`<catalog>
		<category>Electronic goods</category>
		<product><name>digital camera</name><price>99</price></product>
	</catalog>`)
	got := detect(p, xmlDoc("http://x/c.xml", warehouse.StatusUnchanged, doc))
	// category contains electronic: yes (1). product contains camera in
	// subtree: yes (2). product strict contains camera: the word is under
	// name, not directly under product: no (3). self contains hi-fi: no (4).
	if !got.Equal(core.EventSet{1, 2}) {
		t.Errorf("events = %v, want {1,2}", got)
	}

	doc2 := xmldom.MustParse(`<catalog>
		<product>camera <name>stuff</name></product>
		<desc>great hi-fi sound</desc>
	</catalog>`)
	got = detect(p, xmlDoc("http://x/c2.xml", warehouse.StatusUnchanged, doc2))
	if !got.Equal(core.EventSet{2, 3, 4}) {
		t.Errorf("events = %v, want {2,3,4}", got)
	}
}

func TestXMLContainsIsWordBased(t *testing.T) {
	p := NewPipeline()
	p.Register(1, sublang.Condition{Kind: sublang.CondElement, Tag: "product", Str: "cam"})
	doc := xmldom.MustParse(`<catalog><product>camera</product></catalog>`)
	if got := detect(p, xmlDoc("u", warehouse.StatusUnchanged, doc)); got != nil {
		t.Errorf("substring must not match: %v", got)
	}
}

func TestXMLNewElementOnNewDocument(t *testing.T) {
	p := NewPipeline()
	p.Register(1, sublang.Condition{Kind: sublang.CondElement, Change: sublang.OpNew, Tag: "Member"})
	doc := xmldom.MustParse(`<Team><Member><name>nguyen</name></Member></Team>`)
	got := detect(p, xmlDoc("http://inria.fr/Xy/members.xml", warehouse.StatusNew, doc))
	if !got.Equal(core.EventSet{1}) {
		t.Errorf("events = %v, want {1}", got)
	}
}

func TestXMLChangeConditionsOnUpdate(t *testing.T) {
	p := NewPipeline()
	p.Register(1, sublang.Condition{Kind: sublang.CondElement, Change: sublang.OpNew, Tag: "product"})
	p.Register(2, sublang.Condition{Kind: sublang.CondElement, Change: sublang.OpUpdated, Tag: "product"})
	p.Register(3, sublang.Condition{Kind: sublang.CondElement, Change: sublang.OpUpdated, Tag: "product", Str: "camera"})
	p.Register(4, sublang.Condition{Kind: sublang.CondElement, Change: sublang.OpDeleted, Tag: "promo"})
	p.Register(5, sublang.Condition{Kind: sublang.CondElement, Change: sublang.OpNew, Tag: "catalog"})

	old := xmldom.MustParse(`<catalog>
		<product><name>camera</name><price>99</price></product>
		<promo><t>sale</t></promo>
	</catalog>`)
	new := xmldom.MustParse(`<catalog>
		<product><name>camera</name><price>89</price></product>
		<product><name>radio</name></product>
	</catalog>`)
	delta, err := xydiff.Diff(old, new)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	d := xmlDoc("http://x/cat.xml", warehouse.StatusUpdated, new)
	d.Delta = delta
	got := detect(p, d)
	// 1: new product (radio) inserted. 2: camera product updated (price).
	// 3: updated product containing camera. 4: promo deleted. 5: catalog is
	// updated, not new.
	if !got.Equal(core.EventSet{1, 2, 3, 4}) {
		t.Errorf("events = %v, want {1,2,3,4}", got)
	}
}

func TestXMLUpdateWithoutDeltaRaisesNothing(t *testing.T) {
	p := NewPipeline()
	p.Register(1, sublang.Condition{Kind: sublang.CondElement, Change: sublang.OpUpdated, Tag: "product"})
	d := xmlDoc("u", warehouse.StatusUpdated, xmldom.MustParse(`<catalog><product>x</product></catalog>`))
	if got := detect(p, d); got != nil {
		t.Errorf("events = %v, want none without a delta", got)
	}
}

func TestHTMLAlerter(t *testing.T) {
	p := NewPipeline()
	p.Register(1, sublang.Condition{Kind: sublang.CondSelfContains, Str: "xyleme"})
	p.Register(2, urlCond(sublang.CondURLExtends, "http://www.example/"))
	d := htmlDoc("http://www.example/page.html", warehouse.StatusNew,
		"<html><body>The Xyleme project monitors XML.</body></html>")
	got := detect(p, d)
	if !got.Equal(core.EventSet{1, 2}) {
		t.Errorf("events = %v, want {1,2}", got)
	}
}

func TestUnregister(t *testing.T) {
	p := NewPipeline()
	conds := []sublang.Condition{
		urlCond(sublang.CondURLExtends, "http://inria.fr/"),
		urlCond(sublang.CondURLEquals, "http://inria.fr/a.xml"),
		urlCond(sublang.CondFilename, "a.xml"),
		{Kind: sublang.CondElement, Tag: "product", Str: "camera"},
		{Kind: sublang.CondElement, Change: sublang.OpNew, Tag: "product"},
		{Kind: sublang.CondSelfContains, Str: "xml"},
		{Kind: sublang.CondSelfChange, Change: sublang.OpNew},
	}
	for i, c := range conds {
		p.Register(core.Event(i+1), c)
	}
	doc := xmldom.MustParse(`<catalog><product>camera xml</product></catalog>`)
	d := xmlDoc("http://inria.fr/a.xml", warehouse.StatusNew, doc)
	if got := detect(p, d); len(got) != len(conds) {
		t.Fatalf("before unregister: events = %v, want %d", got, len(conds))
	}
	for i, c := range conds {
		p.Unregister(core.Event(i+1), c)
	}
	if got := detect(p, d); got != nil {
		t.Errorf("after unregister: events = %v, want none", got)
	}
}

// TestHashPrefixLookupConcurrent pins the read-only contract of
// HashPrefixIndex.Lookup: the URL alerter calls it under a read lock, so
// overlapping Lookups must not mutate the index. The lazy length-sort
// that used to run inside Lookup raced exactly here — two Detects right
// after a Subscribe both saw the index dirty and rebuilt it at once.
// Run with -race.
func TestHashPrefixLookupConcurrent(t *testing.T) {
	idx := NewHashPrefixIndex()
	for i, pat := range []string{"http://a.com/", "http://a.com/x/", "http://b.org/"} {
		idx.Add(pat, core.Event(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var got []core.Event
				idx.Lookup("http://a.com/x/y.xml", func(c core.Event) { got = append(got, c) })
				if len(got) != 2 {
					t.Errorf("Lookup emitted %v, want 2 codes", got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestNoEventsNoAlert(t *testing.T) {
	p := NewPipeline()
	d := xmlDoc("http://x/", warehouse.StatusNew, xmldom.MustParse("<a/>"))
	if a := p.Detect(d); a != nil {
		t.Errorf("alert = %+v, want nil", a)
	}
}

// TestConcurrentDetectDuringRegistration exercises the alerters' locking:
// detection runs while conditions are registered and unregistered. Run
// with -race.
func TestConcurrentDetectDuringRegistration(t *testing.T) {
	p := NewPipeline()
	doc := xmldom.MustParse(`<catalog>
		<product><name>camera</name></product>
		<category>Electronic</category>
	</catalog>`)
	d := xmlDoc("http://conc.example/c.xml", warehouse.StatusNew, doc)
	// The HTML page's body scan reads the same word index.
	h := htmlDoc("http://conc.example/c.html", warehouse.StatusNew,
		"<html><body><p>Electronic camera</p></body></html>")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p.Detect(d)
				p.Detect(h)
			}
		}()
	}
	conds := []sublang.Condition{
		{Kind: sublang.CondURLExtends, Str: "http://conc.example/"},
		{Kind: sublang.CondElement, Tag: "product", Str: "camera"},
		{Kind: sublang.CondElement, Change: sublang.OpNew, Tag: "category"},
		{Kind: sublang.CondSelfContains, Str: "electronic"},
		{Kind: sublang.CondSelfChange, Change: sublang.OpNew},
	}
	for round := 0; round < 200; round++ {
		for i, c := range conds {
			p.Register(core.Event(round*len(conds)+i+1), c)
		}
		for i, c := range conds {
			p.Unregister(core.Event(round*len(conds)+i+1), c)
		}
	}
	close(stop)
	wg.Wait()
	for _, doc := range []*Doc{d, h} {
		if a := p.Detect(doc); a != nil {
			t.Errorf("all conditions unregistered, got %v on %s", a.Events, doc.Meta.URL)
		}
	}
}

func TestUnregisterDateAndIDConditions(t *testing.T) {
	p := NewPipeline()
	ref := time.Date(2001, 5, 1, 0, 0, 0, 0, time.UTC)
	conds := []sublang.Condition{
		{Kind: sublang.CondLastUpdate, Cmp: sublang.CmpGt, Date: ref},
		{Kind: sublang.CondLastAccessed, Cmp: sublang.CmpLe, Date: ref},
		{Kind: sublang.CondDTDID, Num: 7},
		{Kind: sublang.CondDOCID, Num: 9},
		{Kind: sublang.CondDTD, Str: "http://x/d.dtd"},
		{Kind: sublang.CondDomain, Str: "bio"},
	}
	d := xmlDoc("http://x/a.xml", warehouse.StatusUnchanged, xmldom.MustParse("<a/>"))
	d.Meta.LastUpdate = ref.Add(time.Hour)
	d.Meta.LastAccessed = ref
	d.Meta.DTDID = 7
	d.Meta.DocID = 9
	d.Meta.DTD = "http://x/d.dtd"
	d.Meta.Domain = "bio"
	for i, c := range conds {
		p.Register(core.Event(i+1), c)
	}
	if got := detect(p, d); len(got) != len(conds) {
		t.Fatalf("events = %v, want %d", got, len(conds))
	}
	for i, c := range conds {
		p.Unregister(core.Event(i+1), c)
	}
	if got := detect(p, d); got != nil {
		t.Errorf("after unregister: %v", got)
	}
}

func TestCmpTimeAllComparators(t *testing.T) {
	p := NewPipeline()
	ref := time.Date(2001, 5, 1, 0, 0, 0, 0, time.UTC)
	cases := []struct {
		cmp  sublang.Comparator
		when time.Time
		want bool
	}{
		{sublang.CmpEq, ref, true},
		{sublang.CmpEq, ref.Add(time.Hour), false},
		{sublang.CmpLt, ref.Add(-time.Hour), true},
		{sublang.CmpLt, ref, false},
		{sublang.CmpGt, ref.Add(time.Hour), true},
		{sublang.CmpGt, ref, false},
		{sublang.CmpLe, ref, true},
		{sublang.CmpLe, ref.Add(time.Hour), false},
		{sublang.CmpGe, ref, true},
		{sublang.CmpGe, ref.Add(-time.Hour), false},
	}
	for i, c := range cases {
		cond := sublang.Condition{Kind: sublang.CondLastUpdate, Cmp: c.cmp, Date: ref}
		code := core.Event(100 + i)
		p.Register(code, cond)
		d := xmlDoc("u", warehouse.StatusUnchanged, xmldom.MustParse("<a/>"))
		d.Meta.LastUpdate = c.when
		got := detect(p, d)
		fired := got.Contains(code)
		if fired != c.want {
			t.Errorf("case %d (%v): fired=%v want %v", i, c.cmp, fired, c.want)
		}
		p.Unregister(code, cond)
	}
}

func TestDeletedElementConditions(t *testing.T) {
	p := NewPipeline()
	p.Register(1, sublang.Condition{Kind: sublang.CondElement, Change: sublang.OpDeleted, Tag: "product", Str: "camera"})
	p.Register(2, sublang.Condition{Kind: sublang.CondElement, Change: sublang.OpDeleted, Tag: "product", Str: "camera", Strict: true})
	// Whole-document deletion: every element is deleted.
	doc := xmldom.MustParse(`<catalog><product>camera<name>x</name></product></catalog>`)
	d := xmlDoc("u", warehouse.StatusDeleted, doc)
	got := detect(p, d)
	if !got.Equal(core.EventSet{1, 2}) {
		t.Errorf("events = %v, want {1,2}", got)
	}
}
