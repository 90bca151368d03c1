package xymon

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestGoldenScenario drives the complete system through a deterministic
// six-week simulation — crawl, elements changing, continuous queries,
// report conditions — and pins the exact counters. Any behavioural drift
// anywhere in the chain (diff, alerters, matcher, reporter) shows up here.
func TestGoldenScenario(t *testing.T) {
	sys, c, reports := newSystem(t, Options{})

	subs := []string{
		`subscription Cameras
monitoring
select <NewCamera url=URL/>
where URL extends "http://golden.example/" and new product contains "camera"
report when notifications.count > 2`,
		`subscription Prices
monitoring
select <PriceMove url=URL/>
where URL extends "http://golden.example/" and updated price
report when weekly`,
		`subscription Stock
continuous delta AllProducts
select p/name from catalog/product p
when weekly
report when immediate`,
	}
	for _, src := range subs {
		if _, err := sys.Subscribe(src); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
	}

	sys.AddSite(NewSite(SiteSpec{
		BaseURL: "http://golden.example", Pages: 3, Products: 10, Churn: 2,
		Seed: 4242, Domain: "shopping",
	}))

	for day := 0; day < 42; day++ {
		sys.Crawl()
		sys.Tick()
		c.advance(24 * time.Hour)
	}

	st := sys.Stats()
	// Pin the counters. These values are deterministic functions of the
	// seed and the pipeline's semantics.
	if st.Crawler.Fetches != 18 || st.Crawler.New != 3 || st.Crawler.Updated != 15 {
		t.Errorf("crawler stats = %+v", st.Crawler)
	}
	if st.Manager.Subscriptions != 3 || st.Manager.ComplexEvents != 2 {
		t.Errorf("manager stats = %+v", st.Manager)
	}
	bySub := map[string]int{}
	for _, r := range *reports {
		bySub[r.Subscription]++
	}
	if len(*reports) == 0 {
		t.Fatal("no reports in six weeks")
	}
	// The weekly continuous query reports on its first evaluation and then
	// only when the product set changes (delta mode); price-only weeks stay
	// silent. The price monitor reports weekly when it has notifications.
	if bySub["Stock"] == 0 || bySub["Prices"] == 0 {
		t.Errorf("report distribution = %v", bySub)
	}
	// Cross-check a structural invariant rather than just counts: every
	// Prices report contains only PriceMove notifications.
	for _, r := range *reports {
		if r.Subscription != "Prices" {
			continue
		}
		for _, child := range r.Doc.Children {
			if child.Data != "PriceMove" {
				t.Errorf("Prices report contains %s", child.Data)
			}
		}
	}
	t.Logf("reports by subscription: %v (total %d), notifications %d",
		bySub, len(*reports), st.Manager.Notifications)
}

// TestConcurrentPushes exercises the full chain from many goroutines
// simultaneously (run with -race): distinct URLs, shared subscription base.
func TestConcurrentPushes(t *testing.T) {
	sys, _, _ := newSystem(t, Options{})
	if _, err := sys.Subscribe(`subscription Load
monitoring
select <Hit url=URL/>
where URL extends "http://load.example/" and modified self
report when notifications.count > 1000000`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			url := fmt.Sprintf("http://load.example/page%d.xml", g)
			for v := 1; v <= 50; v++ {
				if _, err := sys.PushXML(url, "", "", fmt.Sprintf("<p><v>%d</v></p>", v)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent push: %v", err)
	}
	st := sys.Stats()
	if st.Manager.DocsProcessed != 400 {
		t.Errorf("DocsProcessed = %d, want 400", st.Manager.DocsProcessed)
	}
	// 49 updates per page × 8 pages.
	if st.Manager.Notifications != 392 {
		t.Errorf("Notifications = %d, want 392", st.Manager.Notifications)
	}
}

// TestManySubscriptionsSharedEvents registers a thousand subscriptions
// over fifty shared URL prefixes and checks event deduplication keeps the
// atomic-event space small — the k-concentration the paper's analysis
// rests on.
func TestManySubscriptionsSharedEvents(t *testing.T) {
	sys, _, _ := newSystem(t, Options{})
	for i := 0; i < 1000; i++ {
		src := fmt.Sprintf(`subscription S%d
monitoring
select <H url=URL/>
where URL extends "http://shared%d.example/" and modified self
report when immediate`, i, i%50)
		if _, err := sys.Subscribe(src); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
	}
	st := sys.Stats()
	if st.Manager.AtomicEvents != 51 { // 50 prefixes + 1 shared "modified self"
		t.Errorf("AtomicEvents = %d, want 51", st.Manager.AtomicEvents)
	}
	if st.Manager.ComplexEvents != 1000 {
		t.Errorf("ComplexEvents = %d", st.Manager.ComplexEvents)
	}
	// One changed page matches exactly the 20 subscriptions on its prefix.
	sys.PushXML("http://shared7.example/x.xml", "", "", "<a><v>1</v></a>")
	n, err := sys.PushXML("http://shared7.example/x.xml", "", "", "<a><v>2</v></a>")
	if err != nil || n != 20 {
		t.Errorf("notifications = %d, want 20 (err %v)", n, err)
	}
}

// TestReportContentEndToEnd pins the exact XML of a report through the
// whole chain, including the report query post-processing.
func TestReportContentEndToEnd(t *testing.T) {
	sys, _, reports := newSystem(t, Options{})
	if _, err := sys.Subscribe(`subscription Exact
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://exact.example/" and modified self
report
select distinct p from Report/UpdatedPage p
when notifications.count > 2`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	pages := []string{"a.xml", "b.xml", "a.xml"} // a updated twice
	for _, p := range pages {
		url := "http://exact.example/" + p
		sys.PushXML(url, "", "", "<d><v>0</v></d>")
	}
	v := 1
	for len(*reports) == 0 {
		for _, p := range pages {
			url := "http://exact.example/" + p
			sys.PushXML(url, "", "", fmt.Sprintf("<d><v>%d</v></d>", v))
			v++
		}
	}
	got := (*reports)[0].Doc.XML()
	// distinct removed the duplicate UpdatedPage for a.xml.
	if strings.Count(got, "UpdatedPage") != 2 {
		t.Errorf("report = %s", got)
	}
}
