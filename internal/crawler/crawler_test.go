package crawler

import (
	"testing"
	"time"

	"xymon/internal/alerter"
	"xymon/internal/sublang"
	"xymon/internal/warehouse"
	"xymon/internal/webgen"
)

type rig struct {
	clock time.Time
	store *warehouse.Store
	crawl *Crawler
	docs  []*alerter.Doc
}

func newRig() *rig {
	r := &rig{clock: time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)}
	now := func() time.Time { return r.clock }
	r.store = warehouse.NewStore(warehouse.WithClock(now))
	r.crawl = New(r.store, func(d *alerter.Doc) { r.docs = append(r.docs, d) }, now)
	return r
}

func TestDiscoveryFetch(t *testing.T) {
	r := newRig()
	site := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://s.example", Pages: 3, HTMLShare: 2, Seed: 1})
	r.crawl.AddSite(site)
	if r.crawl.Stats().Pages != 5 {
		t.Fatalf("Pages = %d", r.crawl.Stats().Pages)
	}
	n := r.crawl.Step()
	if n != 5 || len(r.docs) != 5 {
		t.Fatalf("Step fetched %d, sink got %d", n, len(r.docs))
	}
	for _, d := range r.docs {
		if d.Status != warehouse.StatusNew {
			t.Errorf("%s status = %v, want new", d.Meta.URL, d.Status)
		}
	}
	st := r.crawl.Stats()
	if st.Fetches != 5 || st.New != 5 {
		t.Errorf("stats = %+v", st)
	}
	// Nothing is due right after.
	if n := r.crawl.Step(); n != 0 {
		t.Errorf("second Step fetched %d, want 0", n)
	}
}

func TestRefreshDetectsChanges(t *testing.T) {
	r := newRig()
	site := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://s.example", Pages: 1, Seed: 2})
	r.crawl.AddSite(site)
	r.crawl.Step()
	r.docs = nil

	// After the default period, the page is re-read; the synthetic page
	// changes daily, so the content differs.
	r.clock = r.clock.Add(r.crawl.DefaultPeriod + time.Hour)
	n := r.crawl.Step()
	if n != 1 || len(r.docs) != 1 {
		t.Fatalf("refetch: %d fetched", n)
	}
	if r.docs[0].Status != warehouse.StatusUpdated {
		t.Errorf("status = %v, want updated", r.docs[0].Status)
	}
	if r.docs[0].Delta.Empty() {
		t.Error("update must carry a delta")
	}
}

func TestUnchangedRefetch(t *testing.T) {
	r := newRig()
	site := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://s.example", Pages: 1, Seed: 3})
	r.crawl.AddSite(site)
	r.crawl.ChangeEvery = 365 * 24 * time.Hour // effectively static
	// Re-register to pick up the new ChangeEvery.
	r.crawl = New(r.store, func(d *alerter.Doc) { r.docs = append(r.docs, d) }, func() time.Time { return r.clock })
	r.crawl.ChangeEvery = 365 * 24 * time.Hour
	r.crawl.AddSite(site)
	r.crawl.Step()
	r.docs = nil
	r.clock = r.clock.Add(r.crawl.DefaultPeriod + time.Hour)
	r.crawl.Step()
	if len(r.docs) != 1 || r.docs[0].Status != warehouse.StatusUnchanged {
		t.Fatalf("docs = %+v", r.docs)
	}
}

func TestRefreshHintsBoostFrequency(t *testing.T) {
	r := newRig()
	site := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://s.example", Pages: 2, Seed: 4})
	r.crawl.AddSite(site)
	r.crawl.Step()
	r.docs = nil
	hinted := site.XMLURLs()[0]
	r.crawl.ApplyRefreshHints(map[string]sublang.Frequency{
		hinted:               sublang.Daily,
		"http://unknown.url": sublang.Hourly, // ignored
	})
	// Re-fetch the hinted page sooner. Hints apply from the next cycle, so
	// step once right after the boost window.
	r.clock = r.clock.Add(r.crawl.DefaultPeriod + time.Hour)
	r.crawl.Step()
	r.docs = nil
	r.clock = r.clock.Add(25 * time.Hour)
	n := r.crawl.Step()
	if n != 1 || len(r.docs) != 1 || r.docs[0].Meta.URL != hinted {
		t.Fatalf("hinted refetch: n=%d docs=%v", n, r.docs)
	}
}

func TestFetchAll(t *testing.T) {
	r := newRig()
	site := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://s.example", Pages: 4, Seed: 5})
	r.crawl.AddSite(site)
	if n := r.crawl.FetchAll(); n != 4 {
		t.Fatalf("FetchAll = %d", n)
	}
	if n := r.crawl.FetchAll(); n != 4 {
		t.Fatalf("FetchAll ignores schedule, got %d", n)
	}
	st := r.crawl.Stats()
	if st.Fetches != 8 || st.New != 4 || st.Unchanged != 4 {
		t.Errorf("stats = %+v", st)
	}
	if r.store.Len() != 4 {
		t.Errorf("warehouse = %d pages", r.store.Len())
	}
}

func TestHTMLFlow(t *testing.T) {
	r := newRig()
	site := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://s.example", Pages: 1, HTMLShare: 1, Seed: 6})
	r.crawl.AddSite(site)
	r.crawl.Step()
	var html *alerter.Doc
	for _, d := range r.docs {
		if d.Meta.Type == warehouse.HTML {
			html = d
		}
	}
	if html == nil || len(html.Content) == 0 || html.Doc != nil {
		t.Fatalf("html doc = %+v", html)
	}
	// HTML pages change version: signature detection flags the update.
	r.docs = nil
	r.clock = r.clock.Add(r.crawl.DefaultPeriod + 30*time.Hour)
	r.crawl.Step()
	for _, d := range r.docs {
		if d.Meta.Type == warehouse.HTML && d.Status != warehouse.StatusUpdated {
			t.Errorf("html refetch status = %v", d.Status)
		}
	}
}

func TestAdaptiveRefreshConverges(t *testing.T) {
	r := newRig()
	r.crawl.Adaptive = true
	r.crawl.DefaultPeriod = 4 * 24 * time.Hour
	// One fast-changing site (hourly) and one effectively static site.
	fast := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://fast.example", Pages: 1, Seed: 8})
	slow := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://slow.example", Pages: 1, Seed: 9})
	r.crawl.AddSite(fast)
	r.crawl.AddSite(slow)
	// fast changes every 6h, slow every 1000 days: tweak page states via
	// ChangeEvery before discovery by re-adding with custom crawler.
	c2 := New(r.store, nil, func() time.Time { return r.clock })
	c2.Adaptive = true
	c2.DefaultPeriod = 4 * 24 * time.Hour
	c2.ChangeEvery = 6 * time.Hour
	c2.AddSite(fast)
	c2.ChangeEvery = 1000 * 24 * time.Hour
	c2.AddSite(slow)

	fastURL := fast.XMLURLs()[0]
	slowURL := slow.XMLURLs()[0]
	for i := 0; i < 40; i++ {
		c2.Step()
		r.clock = r.clock.Add(12 * time.Hour)
	}
	fastPeriod := c2.Period(fastURL)
	slowPeriod := c2.Period(slowURL)
	if fastPeriod >= slowPeriod {
		t.Errorf("adaptive refresh did not converge: fast=%v slow=%v", fastPeriod, slowPeriod)
	}
	if slowPeriod <= c2.DefaultPeriod {
		t.Errorf("static page period should grow beyond default: %v", slowPeriod)
	}
}

// TestAdaptiveBeatsFixedUsefulShare is TAB-CRAWL (Section 2.1, [19]): two
// populations of pages, one changing every 6 virtual hours and one
// every 50 days, crawled for 60 virtual days with a fixed 2-day period and
// with adaptive change-rate refresh. A useful fetch is one that observed a
// change; adaptive refresh must spend a larger share of its fetches on
// them. The simulation is deterministic, so the logged rows are the ones
// EXPERIMENTS.md quotes; -short and the race detector run 20 pages each.
func TestAdaptiveBeatsFixedUsefulShare(t *testing.T) {
	pages := 200
	if testing.Short() || raceEnabled {
		pages = 20
	}
	useful := func(adaptive bool) float64 {
		r := newRig()
		c := New(r.store, nil, func() time.Time { return r.clock })
		c.DefaultPeriod = 2 * 24 * time.Hour
		c.Adaptive = adaptive
		c.ChangeEvery = 6 * time.Hour
		c.AddSite(webgen.NewSite(webgen.SiteSpec{BaseURL: "http://fast.example", Pages: pages, Seed: 1}))
		c.ChangeEvery = 50 * 24 * time.Hour
		c.AddSite(webgen.NewSite(webgen.SiteSpec{BaseURL: "http://slow.example", Pages: pages, Seed: 2}))
		for step := 0; step < 60*4; step++ {
			c.Step()
			r.clock = r.clock.Add(6 * time.Hour)
		}
		st := c.Stats()
		share := float64(st.Updated) / float64(max(st.Fetches, 1))
		t.Logf("adaptive=%-5v fetches=%d updated=%d useful=%.0f%%", adaptive, st.Fetches, st.Updated, 100*share)
		return share
	}
	if fixed, adaptive := useful(false), useful(true); adaptive <= fixed {
		t.Errorf("adaptive useful-fetch share %.2f does not beat fixed %.2f", adaptive, fixed)
	}
}

func TestAdaptiveRespectsHintPin(t *testing.T) {
	r := newRig()
	c := New(r.store, nil, func() time.Time { return r.clock })
	c.Adaptive = true
	c.ChangeEvery = 1000 * 24 * time.Hour // static content
	site := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://pin.example", Pages: 1, Seed: 10})
	c.AddSite(site)
	url := site.XMLURLs()[0]
	c.ApplyRefreshHints(map[string]sublang.Frequency{url: sublang.Daily})
	for i := 0; i < 20; i++ {
		c.Step()
		r.clock = r.clock.Add(24 * time.Hour)
	}
	if got := c.Period(url); got != sublang.Daily.Duration() {
		t.Errorf("hinted page period drifted to %v, want pinned daily", got)
	}
}

func TestPageDeletionFlow(t *testing.T) {
	r := newRig()
	site := webgen.NewSite(webgen.SiteSpec{
		BaseURL: "http://mort.example", Pages: 1, Seed: 11, Lifetime: 2,
	})
	r.crawl.AddSite(site)
	url := site.XMLURLs()[0]
	r.crawl.Step() // discovery at version 1
	if _, err := r.store.Get(url); err != nil {
		t.Fatalf("page not warehoused: %v", err)
	}
	// Advance well past the page's lifetime and refetch.
	deadline := 20
	for i := 0; i < deadline; i++ {
		r.clock = r.clock.Add(r.crawl.DefaultPeriod + time.Hour)
		r.docs = nil
		r.crawl.Step()
		if len(r.docs) == 1 && r.docs[0].Status == warehouse.StatusDeleted {
			break
		}
		if i == deadline-1 {
			t.Fatal("page never reported deleted")
		}
	}
	d := r.docs[0]
	if d.Meta.URL != url || d.Doc == nil {
		t.Errorf("deleted doc = %+v, want last version attached", d)
	}
	if _, err := r.store.Get(url); err != warehouse.ErrUnknownURL {
		t.Errorf("warehouse still has the page: %v", err)
	}
	if r.crawl.Stats().Pages != 0 {
		t.Errorf("deleted page still scheduled")
	}
	if st := r.crawl.Stats(); st.Deleted != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAliveStaggering(t *testing.T) {
	site := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://m.example", Pages: 8, Seed: 12, Lifetime: 5})
	urls := site.XMLURLs()
	for _, u := range urls {
		if !site.Alive(u, 1) {
			t.Errorf("%s dead at version 1", u)
		}
		if site.Alive(u, 100) {
			t.Errorf("%s alive at version 100", u)
		}
	}
	immortal := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://im.example", Pages: 1, Seed: 13})
	if !immortal.Alive(immortal.XMLURLs()[0], 1<<30) {
		t.Error("immortal site died")
	}
}

func TestLinkDiscovery(t *testing.T) {
	r := newRig()
	site := webgen.NewSite(webgen.SiteSpec{
		BaseURL: "http://disc.example", Pages: 2, HTMLShare: 1, HiddenPages: 2, Seed: 20,
	})
	r.crawl.AddSite(site)
	if r.crawl.Stats().Pages != 3 {
		t.Fatalf("initial pages = %d (hidden pages must not be pre-registered)", r.crawl.Stats().Pages)
	}
	// Discovery crawl: the HTML page at version 1 links only to the
	// catalogs; hidden0 appears from version 2.
	r.crawl.Step()
	if st := r.crawl.Stats(); st.Discovered != 0 {
		t.Fatalf("discovered too early: %+v", st)
	}
	// A week later the HTML page is at a later version and links hidden
	// pages; following the links schedules them, and the next step (same
	// instant, now due) fetches them.
	r.clock = r.clock.Add(r.crawl.DefaultPeriod + time.Hour)
	r.docs = nil
	r.crawl.Step()
	st := r.crawl.Stats()
	if st.Discovered == 0 {
		t.Fatalf("no pages discovered: %+v", st)
	}
	r.docs = nil
	r.crawl.Step() // fetch the newly discovered pages
	foundNew := false
	for _, d := range r.docs {
		if d.Status == warehouse.StatusNew && d.Doc != nil {
			foundNew = true
		}
	}
	if !foundNew {
		t.Fatalf("discovered pages not fetched as new: %+v", r.docs)
	}
}

func TestExtractLinks(t *testing.T) {
	content := []byte(`<a href="http://a/x.xml">x</a> text <a href="http://b/y.html">y</a> <a href="broken`)
	links := webgen.ExtractLinks(content)
	if len(links) != 2 || links[0] != "http://a/x.xml" || links[1] != "http://b/y.html" {
		t.Errorf("links = %v", links)
	}
	if webgen.ExtractLinks([]byte("no links")) != nil {
		t.Error("no links expected")
	}
}
