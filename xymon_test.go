package xymon

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xymon/internal/xmldom"
)

type testClock struct{ t time.Time }

func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newSystem(t *testing.T, opts Options) (*System, *testClock, *[]*Report) {
	t.Helper()
	c := &testClock{t: time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)}
	var reports []*Report
	opts.Clock = c.now
	if opts.Delivery == nil {
		opts.Delivery = DeliveryFunc(func(r *Report) error {
			reports = append(reports, r)
			return nil
		})
	}
	sys, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sys, c, &reports
}

func TestQuickstartFlow(t *testing.T) {
	sys, _, reports := newSystem(t, Options{})
	_, err := sys.Subscribe(`subscription Watch
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://inria.fr/Xy/" and modified self
report when immediate`)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if n, err := sys.PushXML("http://inria.fr/Xy/index.xml", "", "", `<page><v>1</v></page>`); err != nil || n != 0 {
		t.Fatalf("first push: n=%d err=%v", n, err)
	}
	n, err := sys.PushXML("http://inria.fr/Xy/index.xml", "", "", `<page><v>2</v></page>`)
	if err != nil || n != 1 {
		t.Fatalf("second push: n=%d err=%v", n, err)
	}
	if len(*reports) != 1 || !strings.Contains((*reports)[0].Doc.XML(), "UpdatedPage") {
		t.Fatalf("reports = %v", *reports)
	}
}

func TestPushErrors(t *testing.T) {
	sys, _, _ := newSystem(t, Options{})
	if _, err := sys.PushXML("u", "", "", "not xml <"); err == nil {
		t.Error("bad XML should fail")
	}
	if _, err := sys.Subscribe("garbage"); err == nil {
		t.Error("bad subscription should fail")
	}
}

func TestCrawlSimulatedSite(t *testing.T) {
	sys, c, reports := newSystem(t, Options{})
	_, err := sys.Subscribe(`subscription Cameras
monitoring
select <CameraOffer url=URL/>
where URL extends "http://shop.example/"
  and new product contains "camera"
report when immediate`)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	sys.AddSite(NewSite(SiteSpec{BaseURL: "http://shop.example", Pages: 5, Products: 20, Seed: 9}))
	fetched := sys.Crawl()
	if fetched != 5 {
		t.Fatalf("Crawl = %d", fetched)
	}
	// With 20 products over a 30-word vocabulary, some page almost surely
	// sells a camera; the seed is fixed so this is deterministic.
	if len(*reports) == 0 {
		t.Fatal("no camera offers found on discovery crawl")
	}
	st := sys.Stats()
	if st.Pages != 5 || st.Crawler.Fetches != 5 || st.Manager.DocsProcessed != 5 {
		t.Errorf("stats = %+v", st)
	}
	// Later crawls only fetch when due.
	if n := sys.Crawl(); n != 0 {
		t.Errorf("immediate recrawl fetched %d", n)
	}
	c.advance(8 * 24 * time.Hour)
	if n := sys.Crawl(); n != 5 {
		t.Errorf("due recrawl fetched %d", n)
	}
}

func TestContinuousQueryOverWarehouse(t *testing.T) {
	sys, c, reports := newSystem(t, Options{})
	if _, err := sys.PushXML("http://museums.example/ams.xml", "", "culture",
		`<culture><museum><address>Amsterdam</address>
		 <painting><title>Night Watch</title></painting></museum></culture>`); err != nil {
		t.Fatalf("PushXML: %v", err)
	}
	_, err := sys.Subscribe(`subscription Art
continuous delta AmsterdamPaintings
select p/title from culture/museum m, m/painting p
where m/address contains "Amsterdam"
when biweekly
report when immediate`)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	sys.Tick()
	if len(*reports) != 1 || !strings.Contains((*reports)[0].Doc.XML(), "Night Watch") {
		t.Fatalf("first evaluation: %v", *reports)
	}
	// No change: biweekly re-evaluation stays silent (delta mode).
	c.advance(4 * 24 * time.Hour)
	sys.Tick()
	if len(*reports) != 1 {
		t.Fatalf("unchanged delta reported: %d", len(*reports))
	}
	// New painting appears; the next evaluation reports only the delta.
	if _, err := sys.PushXML("http://museums.example/ams.xml", "", "culture",
		`<culture><museum><address>Amsterdam</address>
		 <painting><title>Night Watch</title></painting>
		 <painting><title>Milkmaid</title></painting></museum></culture>`); err != nil {
		t.Fatalf("PushXML: %v", err)
	}
	c.advance(4 * 24 * time.Hour)
	sys.Tick()
	if len(*reports) != 2 {
		t.Fatalf("changed delta missing: %d", len(*reports))
	}
	out := (*reports)[1].Doc.XML()
	if !strings.Contains(out, "Milkmaid") || strings.Contains(out, "Night Watch") {
		t.Errorf("delta report = %s", out)
	}
}

func TestJournalPersistenceAcrossSystems(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	sys1, _, _ := newSystem(t, Options{JournalPath: path})
	if _, err := sys1.Subscribe(`subscription Persistent
monitoring select <P url=URL/> where URL extends "http://p.example/" and modified self
report when immediate`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	sys2, _, reports2 := newSystem(t, Options{JournalPath: path})
	if got := sys2.Manager.Subscriptions(); len(got) != 1 || got[0] != "Persistent" {
		t.Fatalf("recovered subscriptions = %v", got)
	}
	sys2.PushXML("http://p.example/a.xml", "", "", `<a><v>1</v></a>`)
	sys2.PushXML("http://p.example/a.xml", "", "", `<a><v>2</v></a>`)
	if len(*reports2) != 1 {
		t.Errorf("recovered system reports = %d", len(*reports2))
	}
}

func TestTriePrefixOption(t *testing.T) {
	sys, _, reports := newSystem(t, Options{TriePrefixes: true})
	if _, err := sys.Subscribe(`subscription T
monitoring select <P url=URL/> where URL extends "http://t.example/" and modified self
report when immediate`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	sys.PushXML("http://t.example/x.xml", "", "", `<a><v>1</v></a>`)
	sys.PushXML("http://t.example/x.xml", "", "", `<a><v>2</v></a>`)
	if len(*reports) != 1 {
		t.Errorf("trie-based system reports = %d", len(*reports))
	}
}

func TestHTMLMonitoring(t *testing.T) {
	sys, _, reports := newSystem(t, Options{})
	if _, err := sys.Subscribe(`subscription HtmlWatch
monitoring
select <Mention url=URL/>
where URL extends "http://news.example/"
  and self contains "xyleme"
report when immediate`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	n, err := sys.PushHTML("http://news.example/today.html",
		[]byte("<html><body>Xyleme monitors the web</body></html>"))
	if err != nil || n != 1 {
		t.Fatalf("PushHTML: n=%d err=%v", n, err)
	}
	if len(*reports) != 1 {
		t.Errorf("reports = %d", len(*reports))
	}
	n, _ = sys.PushHTML("http://news.example/other.html", []byte("<html>nothing here</html>"))
	if n != 0 {
		t.Errorf("unrelated page produced %d notifications", n)
	}
}

func TestSemanticAutoClassification(t *testing.T) {
	sys, _, reports := newSystem(t, Options{
		Domains: map[string][]string{
			"culture":  {"museum", "painting", "title", "address"},
			"shopping": {"catalog", "product", "price"},
		},
	})
	// Push without an explicit domain: the semantic module classifies it.
	if _, err := sys.PushXML("http://museums.example/x.xml", "", "",
		`<culture><museum><address>Amsterdam</address>
		 <painting><title>Night Watch</title></painting></museum></culture>`); err != nil {
		t.Fatalf("PushXML: %v", err)
	}
	e, err := sys.Store.Get("http://museums.example/x.xml")
	if err != nil || e.Meta.Domain != "culture" {
		t.Fatalf("classified domain = %q, err %v", e.Meta.Domain, err)
	}
	// A domain condition now matches the classified document.
	if _, err := sys.Subscribe(`subscription CultureWatch
monitoring
select <CulturePage url=URL/>
where domain = "culture" and modified self
report when immediate`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if _, err := sys.PushXML("http://museums.example/x.xml", "", "",
		`<culture><museum><address>Amsterdam</address>
		 <painting><title>Milkmaid</title></painting></museum></culture>`); err != nil {
		t.Fatalf("PushXML: %v", err)
	}
	if len(*reports) != 1 {
		t.Fatalf("reports = %d, want 1 (domain condition matched)", len(*reports))
	}
}

func TestDeletedPageMonitoring(t *testing.T) {
	sys, c, reports := newSystem(t, Options{})
	if _, err := sys.Subscribe(`subscription Obituary
monitoring
select <PageGone url=URL/>
where URL extends "http://mort.example/" and deleted self
monitoring
select <ProductGone url=URL/>
where URL extends "http://mort.example/" and deleted product
report when immediate`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	sys.AddSite(NewSite(SiteSpec{BaseURL: "http://mort.example", Pages: 1, Products: 5, Seed: 14, Lifetime: 2}))
	sys.Crawl()
	for i := 0; i < 30 && len(*reports) == 0; i++ {
		c.advance(8 * 24 * time.Hour)
		sys.Crawl()
	}
	if len(*reports) < 2 {
		t.Fatalf("reports = %d, want PageGone and ProductGone", len(*reports))
	}
	var all strings.Builder
	for _, r := range *reports {
		all.WriteString(r.Doc.XML())
	}
	if !strings.Contains(all.String(), "PageGone") || !strings.Contains(all.String(), "ProductGone") {
		t.Errorf("reports = %s", all.String())
	}
}

// TestDiscoveryMonitoring is the paper's Section 1 example: "discovery of
// a new page within a certain semantic domain". Hidden pages surface
// through links on the site's HTML pages; the subscription fires when the
// crawler discovers and fetches them.
func TestDiscoveryMonitoring(t *testing.T) {
	sys, c, reports := newSystem(t, Options{})
	if _, err := sys.Subscribe(`subscription NewShopPages
monitoring
select <Discovered url=URL/>
where domain = "shopping" and new self
report when immediate`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	sys.AddSite(NewSite(SiteSpec{
		BaseURL: "http://disc.example", Pages: 1, HTMLShare: 1, HiddenPages: 1,
		Seed: 33, Domain: "shopping",
	}))
	sys.Crawl()
	initial := len(*reports) // the pre-registered catalog page is new too
	for i := 0; i < 10 && sys.Stats().Crawler.Discovered == 0; i++ {
		c.advance(8 * 24 * time.Hour)
		sys.Crawl()
		sys.Crawl() // fetch freshly discovered pages
	}
	if sys.Stats().Crawler.Discovered == 0 {
		t.Fatal("no discovery happened")
	}
	if len(*reports) <= initial {
		t.Fatalf("no report for the discovered page: %d vs %d", len(*reports), initial)
	}
	last := (*reports)[len(*reports)-1].Doc.XML()
	if !strings.Contains(last, "hidden0.xml") {
		t.Errorf("report = %s", last)
	}
}

func TestWarehousePersistenceAcrossSystems(t *testing.T) {
	dir := t.TempDir()
	sys1, _, _ := newSystem(t, Options{DataDir: dir})
	sys1.PushXML("http://w.example/a.xml", "", "shopping", `<c><p>radio</p></c>`)
	sys1.PushXML("http://w.example/a.xml", "", "shopping", `<c><p>radio</p><p>tv</p></c>`)
	if err := sys1.SaveWarehouse(""); err != nil {
		t.Fatalf("SaveWarehouse: %v", err)
	}

	sys2, _, reports := newSystem(t, Options{DataDir: dir})
	if sys2.Store.Len() != 1 {
		t.Fatalf("restored pages = %d", sys2.Store.Len())
	}
	// Change detection continues against the restored state: the same
	// content is unchanged, different content raises updated.
	if _, err := sys2.Subscribe(`subscription W
monitoring select <U url=URL/> where URL extends "http://w.example/" and modified self
report when immediate`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	n, err := sys2.PushXML("http://w.example/a.xml", "", "shopping", `<c><p>radio</p><p>tv</p></c>`)
	if err != nil || n != 0 {
		t.Fatalf("unchanged push after restore: n=%d err=%v", n, err)
	}
	n, err = sys2.PushXML("http://w.example/a.xml", "", "shopping", `<c><p>radio</p></c>`)
	if err != nil || n != 1 || len(*reports) != 1 {
		t.Fatalf("changed push after restore: n=%d err=%v reports=%d", n, err, len(*reports))
	}
	// SaveWarehouse without any directory fails.
	sys3, _, _ := newSystem(t, Options{})
	if err := sys3.SaveWarehouse(""); err == nil {
		t.Error("SaveWarehouse without DataDir should fail")
	}
}

// TestSubscribeRefreshHints: Subscribe hands the crawler only the new
// subscription's refresh statements, and the crawler remembers them. The
// crawler must end up exactly where a full re-application of the base's
// hints after every Subscribe leaves it.
func TestSubscribeRefreshHints(t *testing.T) {
	site := SiteSpec{BaseURL: "http://hint.example/", Pages: 4, Products: 5, Seed: 3}
	sys, _, _ := newSystem(t, Options{})
	ref, _, _ := newSystem(t, Options{})
	sys.AddSite(NewSite(site))
	ref.AddSite(NewSite(site))
	urls := NewSite(site).XMLURLs()
	base := sys.Crawler.Period(urls[0])

	plain := func(name string) string {
		return "subscription " + name + "\nmonitoring\nselect <P url=URL/>\n" +
			"where URL extends \"http://hint.example/\" and modified self\nreport when immediate\n"
	}
	steps := []string{
		plain("A"),
		plain("B") + "refresh \"" + urls[0] + "\" daily\n",
		plain("C"),
		plain("D") + "refresh \"" + urls[1] + "\" hourly\nrefresh \"" + urls[0] + "\" weekly\n",
		plain("E"),
	}
	for i, src := range steps {
		if _, err := sys.Subscribe(src); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if _, err := ref.Manager.Subscribe(src); err != nil {
			t.Fatalf("step %d (reference): %v", i, err)
		}
		ref.Crawler.ApplyRefreshHints(ref.Manager.RefreshHints())
		for _, u := range urls {
			if got, want := sys.Crawler.Period(u), ref.Crawler.Period(u); got != want {
				t.Errorf("step %d: period of %s = %v, full re-application gives %v", i, u, got, want)
			}
		}
	}
	if d, h := sys.Crawler.Period(urls[0]), sys.Crawler.Period(urls[1]); d != 24*time.Hour || h != time.Hour || d >= base {
		t.Errorf("hinted periods = %v and %v (unhinted %v), want a day and an hour", d, h, base)
	}
	if p := sys.Crawler.Period(urls[2]); p != base {
		t.Errorf("unhinted page moved from %v to %v", base, p)
	}
}

// TestSubscribeRefreshHintsLateDiscovery: a hint for a page the crawler
// does not know yet — a hidden page, found later through an HTML link —
// takes effect when the page is discovered, and a later plain Subscribe
// leaves the crawler where a full re-application would.
func TestSubscribeRefreshHintsLateDiscovery(t *testing.T) {
	spec := SiteSpec{BaseURL: "http://late.example", Pages: 1, HTMLShare: 1, HiddenPages: 1, Seed: 33}
	hidden := NewSite(spec).HiddenURLs()[0]
	sys, c, _ := newSystem(t, Options{})
	ref, rc, _ := newSystem(t, Options{})
	plain := func(name string) string {
		return "subscription " + name + "\nmonitoring\nselect <P url=URL/>\n" +
			"where URL extends \"http://late.example/\" and modified self\nreport when immediate\n"
	}
	subscribe := func(src string) {
		t.Helper()
		if _, err := sys.Subscribe(src); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		if _, err := ref.Manager.Subscribe(src); err != nil {
			t.Fatalf("Subscribe (reference): %v", err)
		}
		ref.Crawler.ApplyRefreshHints(ref.Manager.RefreshHints())
	}
	sys.AddSite(NewSite(spec))
	ref.AddSite(NewSite(spec))
	subscribe(plain("A") + "refresh \"" + hidden + "\" hourly\n")
	if p := sys.Crawler.Period(hidden); p != 0 {
		t.Fatalf("hidden page known before discovery (period %v)", p)
	}
	for i := 0; i < 10 && sys.Stats().Crawler.Discovered == 0; i++ {
		c.advance(8 * 24 * time.Hour)
		rc.advance(8 * 24 * time.Hour)
		sys.Crawl()
		ref.Crawl()
	}
	if sys.Stats().Crawler.Discovered == 0 || ref.Stats().Crawler.Discovered == 0 {
		t.Fatal("no discovery happened")
	}
	if p := sys.Crawler.Period(hidden); p != time.Hour {
		t.Errorf("period of the discovered page = %v, want its hint of an hour", p)
	}
	subscribe(plain("B"))
	if got, want := sys.Crawler.Period(hidden), ref.Crawler.Period(hidden); got != want || got != time.Hour {
		t.Errorf("after a plain Subscribe: period = %v, full re-application gives %v, want an hour", got, want)
	}
}

// TestContinuousResultIsOwnedPayload: the Reporter keeps the element a
// continuous query hands it without copying, so the Trigger Engine must
// hand over a tree of its own — not warehouse nodes, not the result it
// keeps for the next delta. Re-evaluations must leave delivered reports and
// the warehouse as they were.
func TestContinuousResultIsOwnedPayload(t *testing.T) {
	sys, c, reports := newSystem(t, Options{})
	push := func(titles ...string) {
		t.Helper()
		doc := "<culture><museum><address>Amsterdam</address>"
		for _, title := range titles {
			doc += "<painting><title>" + title + "</title></painting>"
		}
		if _, err := sys.PushXML("http://museums.example/ams.xml", "", "culture", doc+"</museum></culture>"); err != nil {
			t.Fatalf("PushXML: %v", err)
		}
	}
	push("Night Watch")
	for _, mode := range []string{"", "delta "} {
		name := "Plain"
		if mode != "" {
			name = "Delta"
		}
		if _, err := sys.Subscribe("subscription " + name + "\ncontinuous " + mode + "Paintings\n" +
			"select p/title from culture/museum m, m/painting p\nwhen daily\nreport when immediate"); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
	}
	intact := func(when string) {
		t.Helper()
		for _, root := range sys.Store.AllRoots() {
			if root.Parent != nil {
				t.Fatalf("%s: a warehouse document was re-parented under <%s>", when, root.Parent.Tag)
			}
			root.PreOrder(func(n *xmldom.Node) bool {
				for _, ch := range n.Children {
					if ch.Parent != n {
						t.Fatalf("%s: warehouse node <%s> moved out of its document", when, ch.Tag)
					}
				}
				return true
			})
		}
	}
	sys.Tick()
	if len(*reports) != 2 {
		t.Fatalf("first evaluation: %d reports, want 2", len(*reports))
	}
	intact("after the first evaluation")
	var before []string
	for _, rep := range *reports {
		before = append(before, rep.Doc.XML())
		for _, ch := range rep.Doc.Children {
			if ch.Parent != rep.Doc {
				t.Errorf("%s: payload not moved under its report", rep.Subscription)
			}
		}
	}
	push("Night Watch", "Milkmaid")
	c.advance(25 * time.Hour)
	sys.Tick()
	if len(*reports) != 4 {
		t.Fatalf("second evaluation: %d reports, want 4", len(*reports))
	}
	intact("after the second evaluation")
	for i, xml := range before {
		if got := (*reports)[i].Doc.XML(); got != xml {
			t.Errorf("report %d changed under a later evaluation:\n before %s\n after  %s", i, xml, got)
		}
	}
	for _, rep := range (*reports)[2:] {
		out := rep.Doc.XML()
		if !strings.Contains(out, "Milkmaid") || (rep.Subscription == "Delta") == strings.Contains(out, "Night Watch") {
			t.Errorf("%s second report = %s", rep.Subscription, out)
		}
	}
}

// TestGateAllocCeiling holds the front door of a crawl round to zero
// allocations: refusing an untracked page that carries no watched word is
// the only code such a page ever runs, once per fetch, and it works on
// pooled scratch over the fetched bytes. (The base here holds presence
// conditions only; a registered `URL extends` pattern adds the two
// objects of URLAlerter.CouldAlert's probe closure.)
func TestGateAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sys, _, _ := newSystem(t, Options{})
	if _, err := sys.Subscribe(`subscription Rare
monitoring
select <Hit url=URL/>
where product contains "zyzzyva"
report when immediate`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	site := NewSite(SiteSpec{BaseURL: "http://mall.example/", Pages: 1, Products: 100, Seed: 1})
	url := site.XMLURLs()[0]
	page := site.FetchXMLBytes(url, 1)
	refuse := func() {
		if sys.Crawler.Gate(url, site.Spec().DTD, "shopping", page) {
			t.Fatal("the gate passed a page nobody wants")
		}
	}
	refuse() // fill the pools
	if allocs := testing.AllocsPerRun(200, refuse); allocs != 0 {
		t.Errorf("Gate allocates %.1f objects refusing a %d-byte page, want 0", allocs, len(page))
	}
}
