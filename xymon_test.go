package xymon

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"xymon/internal/alerter"
	"xymon/internal/faults"
	"xymon/internal/manager"
	"xymon/internal/wal"
	"xymon/internal/webgen"
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

// TestContinuousQueryMarksAcrossRestart: a continuous query's evaluation
// marks ride the reporter journal, and a System restarted on the same
// DurableDir resumes each periodic query's schedule from them. Each row
// is a script: tick; restart (Close, then New on the same directory);
// checkpoint; unsubscribe (every subscription); subscribe (the row's);
// +D advances the clock by D; =N requires N evaluations so far, over
// every System of the row.
func TestContinuousQueryMarksAcrossRestart(t *testing.T) {
	weekly := func(name string) string {
		return "subscription " + name + "\ncontinuous Q\ntry weekly\nreport when immediate"
	}
	for _, c := range []struct {
		name   string
		subs   []string
		script string
	}{
		// Two days in, the query does not re-fire; a week after its
		// mark, it fires.
		{"restart-2-days-in-does-not-refire", []string{weekly("S")}, "tick =1 +48h restart tick =1 +120h tick =2"},
		// The outage outlasts the period: the first Tick fires.
		{"restart-9-days-in-fires", []string{weekly("S")}, "tick =1 +216h restart tick =2"},
		// Marks come back from the checkpoint's snapshot, and from an
		// evaluation in the tail after it.
		{"marks-survive-checkpoint", []string{weekly("A"), weekly("B")}, "tick =2 checkpoint +48h restart tick =2 +144h tick =4 +1h restart tick =4"},
		// A subscription recycled under the same name starts a fresh
		// schedule: it has never run, so it fires at once.
		{"resubscribe-starts-fresh", []string{weekly("S")}, "tick =1 unsubscribe subscribe +1h tick =2 +1h restart tick =2"},
		// An unchanged delta reports nothing, but its mark is journaled:
		// restarted inside the period since, it does not evaluate again.
		{"unchanged-delta-does-not-reevaluate", []string{`subscription S
continuous delta Q
select p/title from culture/museum m, m/painting p
when daily
report when immediate`}, "tick =1 +25h tick =2 +2h restart tick =2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			clk := &testClock{t: time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)}
			open := func() *System {
				sys, err := New(Options{Clock: clk.now, DurableDir: dir})
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				return sys
			}
			sys := open()
			defer func() { sys.Close() }()
			subscribe := func() {
				for _, src := range c.subs {
					if _, err := sys.Subscribe(src); err != nil {
						t.Fatalf("Subscribe: %v", err)
					}
				}
			}
			subscribe()
			var before uint64 // evaluations of the Systems closed so far
			steps := strings.Fields(c.script)
			for i, step := range steps {
				switch {
				case step == "tick":
					sys.Tick()
				case step == "restart":
					before += sys.Trigger.Evaluations()
					if err := sys.Close(); err != nil {
						t.Fatal(err)
					}
					sys = open()
				case step == "checkpoint":
					if err := sys.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				case step == "unsubscribe":
					for _, name := range sys.Manager.Subscriptions() {
						if err := sys.Unsubscribe(name); err != nil {
							t.Fatal(err)
						}
					}
				case step == "subscribe":
					subscribe()
				case step[0] == '+':
					d, err := time.ParseDuration(step[1:])
					if err != nil {
						t.Fatal(err)
					}
					clk.advance(d)
				case step[0] == '=':
					want, err := strconv.ParseUint(step[1:], 10, 64)
					if err != nil {
						t.Fatal(err)
					}
					if got := before + sys.Trigger.Evaluations(); got != want {
						t.Fatalf("after %q: %d evaluations, want %d", strings.Join(steps[:i], " "), got, want)
					}
				default:
					t.Fatalf("unknown step %q", step)
				}
			}
		})
	}
}

// TestSubscriptionBaseAcrossRestart: the subscription base rides the
// reporter journal, in registration order, and a System restarted on the
// same DurableDir — across a checkpoint or not — gets back the base the
// live one had, with only the buffers and marks of the subscriptions in
// it. Each row is a script: sub:N and unsub:N subscribe and unsubscribe
// N; push:N pushes the next version of N's page; tick; checkpoint;
// restart (Close, then New on the same directory); base=A,B requires the
// base; reports:N=K requires K reports delivered to N, over every System
// of the row; buffered:N=K requires K notifications in N's buffer; and
// marked:N.Q or unmarked:N.Q whether N's continuous query Q has an
// evaluation mark.
func TestSubscriptionBaseAcrossRestart(t *testing.T) {
	watch := func(name string) string {
		return "subscription " + name + "\nmonitoring\nselect <UpdatedPage url=URL/>\nwhere URL extends \"http://" +
			strings.ToLower(name) + ".example/\" and modified self\nreport when immediate"
	}
	srcs := map[string]string{
		"Zeta":  watch("Zeta"),
		"Alpha": "subscription Alpha\nvirtual Zeta.P",
		"W": `subscription W
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://w.example/" and modified self
continuous Q
try weekly
report when notifications.count > 5`,
	}
	for _, c := range []struct{ name, script string }{
		// The follower comes back after its target, in registration
		// order, from a checkpoint too, and still follows it.
		{"virtual-before-target-across-checkpoint",
			"sub:Zeta sub:Alpha checkpoint restart base=Alpha,Zeta push:Zeta push:Zeta reports:Zeta=1 reports:Alpha=1"},
		// The target left before the checkpoint, and took the link with
		// it: the follower comes back unlinked, as it was live.
		{"orphaned-follower-across-checkpoint",
			"sub:Zeta sub:Alpha unsub:Zeta checkpoint restart base=Alpha sub:Zeta push:Zeta push:Zeta reports:Zeta=1 reports:Alpha=0"},
		// A name subscribed again starts with an empty buffer and no
		// mark; the old subscription's do not come back into it.
		{"resubscribed-name-restarts-empty",
			"sub:W tick push:W push:W buffered:W=2 marked:W.Q unsub:W sub:W buffered:W=0 unmarked:W.Q restart base=W buffered:W=0 unmarked:W.Q tick reports:W=0 buffered:W=1"},
		{"resubscribed-name-restarts-empty-across-checkpoint",
			"sub:W tick push:W push:W checkpoint unsub:W sub:W restart base=W buffered:W=0 unmarked:W.Q tick reports:W=0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			clk := &testClock{t: time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)}
			reports := make(map[string]int)
			open := func() *System {
				sys, err := New(Options{Clock: clk.now, DurableDir: dir, Delivery: DeliveryFunc(func(r *Report) error {
					reports[r.Subscription]++
					return nil
				})})
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				return sys
			}
			sys := open()
			defer func() { sys.Close() }()
			versions := make(map[string]int)
			steps := strings.Fields(c.script)
			for i, step := range steps {
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("after %q: %s", strings.Join(steps[:i], " "), fmt.Sprintf(format, args...))
				}
				op, arg, _ := strings.Cut(step, ":")
				if k, v, ok := strings.Cut(step, "="); ok {
					op, arg, _ = strings.Cut(k, ":")
					want, err := strconv.Atoi(v)
					switch {
					case op == "base":
						got := sys.Manager.Subscriptions()
						slices.Sort(got)
						if strings.Join(got, ",") != v {
							fail("base %v, want %s", got, v)
						}
					case err != nil:
						t.Fatalf("bad step %q", step)
					case op == "reports" && reports[arg] != want:
						fail("%d reports to %s, want %d", reports[arg], arg, want)
					case op == "buffered" && sys.Reporter.Buffered(arg) != want:
						fail("%d notifications buffered for %s, want %d", sys.Reporter.Buffered(arg), arg, want)
					}
					continue
				}
				switch op {
				case "sub":
					if _, err := sys.Subscribe(srcs[arg]); err != nil {
						fail("Subscribe(%s): %v", arg, err)
					}
				case "unsub":
					if err := sys.Unsubscribe(arg); err != nil {
						fail("Unsubscribe(%s): %v", arg, err)
					}
				case "push":
					versions[arg]++
					url := "http://" + strings.ToLower(arg) + ".example/p.xml"
					if _, err := sys.PushXML(url, "", "", fmt.Sprintf("<p>v%d</p>", versions[arg])); err != nil {
						fail("push %s: %v", url, err)
					}
				case "tick":
					sys.Tick()
				case "checkpoint":
					if err := sys.Checkpoint(); err != nil {
						fail("Checkpoint: %v", err)
					}
				case "restart":
					if err := sys.Close(); err != nil {
						t.Fatal(err)
					}
					sys = open()
				case "marked", "unmarked":
					name, query, _ := strings.Cut(arg, ".")
					if _, ok := sys.Reporter.Evaluated(name, query); ok != (op == "marked") {
						fail("%s.%s evaluated: %v", name, query, ok)
					}
				default:
					t.Fatalf("unknown step %q", step)
				}
			}
		})
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

// TestContinuousQuerySeesOneForest: a delta continuous query over several
// stored pages that never change reports once, on its first evaluation.
// Each evaluation must see the warehouse's roots in one fixed order
// (Store.AllRoots, DocID order); a fresh order diffs as deletes and
// inserts of the same titles, a change that did not happen.
func TestContinuousQuerySeesOneForest(t *testing.T) {
	sys, c, reports := newSystem(t, Options{})
	for i := range 8 {
		if _, err := sys.PushXML(fmt.Sprintf("http://museums.example/%d.xml", i), "", "culture",
			fmt.Sprintf("<culture><museum><address>Amsterdam</address><painting><title>P%d</title></painting></museum></culture>", i)); err != nil {
			t.Fatalf("PushXML: %v", err)
		}
	}
	if _, err := sys.Subscribe("subscription Art\ncontinuous delta Q\nselect p/title from culture/museum m, m/painting p\nwhen daily\nreport when immediate"); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	for range 20 {
		sys.Tick()
		c.advance(25 * time.Hour)
	}
	if len(*reports) == 0 {
		t.Fatal("the first evaluation delivered no report")
	}
	if n := len(*reports) - 1; n > 0 {
		t.Fatalf("%d spurious reports over 20 daily evaluations of an unchanged forest; the first:\n%s", n, (*reports)[1].Doc.XML())
	}
	if out := (*reports)[0].Doc.XML(); strings.Index(out, "P0") > strings.Index(out, "P7") {
		t.Errorf("first report lists the pages out of commit order: %s", out)
	}
}

func TestJournalPersistenceAcrossSystems(t *testing.T) {
	dir := t.TempDir()
	sys1, _, _ := newSystem(t, Options{DurableDir: dir})
	if _, err := sys1.Subscribe(`subscription Persistent
monitoring select <P url=URL/> where URL extends "http://p.example/" and modified self
report when immediate`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if err := sys1.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, _, reports2 := newSystem(t, Options{DurableDir: dir})
	defer sys2.Close()
	if got := sys2.Manager.Subscriptions(); len(got) != 1 || got[0] != "Persistent" {
		t.Fatalf("recovered subscriptions = %v", got)
	}
	sys2.PushXML("http://p.example/a.xml", "", "", `<a><v>1</v></a>`)
	sys2.PushXML("http://p.example/a.xml", "", "", `<a><v>2</v></a>`)
	if len(*reports2) != 1 {
		t.Errorf("recovered system reports = %d", len(*reports2))
	}
}

// TestSubscribeJournalFailureRollsBack: a subscription whose journal
// record failed to land is not registered — it neither fires nor blocks a
// retry — and once the journal works again the retry is recovered once.
func TestSubscribeJournalFailureRollsBack(t *testing.T) {
	dir := t.TempDir()
	in := faults.New(1)
	in.Enable(faults.Rule{Point: faults.Point(wal.OpAppend), Mode: faults.ModeError, Match: "reporter"})
	sys, _, reports := newSystem(t, Options{DurableDir: dir, Faults: in})
	src := `subscription Flaky
monitoring select <F url=URL/> where URL extends "http://f.example/" and modified self
report when immediate`
	if _, err := sys.Subscribe(src); !errors.Is(err, manager.ErrJournal) {
		t.Fatalf("Subscribe with a failing journal = %v, want manager.ErrJournal", err)
	}
	if subs := sys.Manager.Subscriptions(); len(subs) != 0 {
		t.Fatalf("subscriptions after the failed journal write = %v", subs)
	}
	sys.PushXML("http://f.example/a.xml", "", "", `<a>1</a>`)
	if n, _ := sys.PushXML("http://f.example/a.xml", "", "", `<a>2</a>`); n != 0 || len(*reports) != 0 {
		t.Fatalf("the rolled-back subscription raised %d notifications, %d reports", n, len(*reports))
	}
	in.Clear()
	if _, err := sys.Subscribe(src); err != nil {
		t.Fatalf("retry after the journal recovered: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	again, _, _ := newSystem(t, Options{DurableDir: dir})
	defer again.Close()
	if subs := again.Manager.Subscriptions(); len(subs) != 1 || subs[0] != "Flaky" {
		t.Fatalf("reopened subscriptions = %v, want Flaky once", subs)
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
	sys1, _, _ := newSystem(t, Options{DurableDir: dir})
	sys1.PushXML("http://w.example/a.xml", "", "shopping", `<c><p>radio</p></c>`)
	sys1.PushXML("http://w.example/a.xml", "", "shopping", `<c><p>radio</p><p>tv</p></c>`)
	if err := sys1.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, _, reports := newSystem(t, Options{DurableDir: dir})
	defer sys2.Close()
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
}

// TestWarehouseLogAddsNoFsync: a page's record is written to the
// warehouse log without a barrier of its own — a report-firing document
// still pays exactly one fsync, the reporter's — and only a checkpoint
// syncs the warehouse log. A continuous query's evaluation mark has no
// log of its own either: an evaluating Tick syncs the reporter journal
// alone.
func TestWarehouseLogAddsNoFsync(t *testing.T) {
	in := faults.New(1)
	// The last rule matches any key: a sync on a log not named before it
	// counts as "other".
	logs := []string{"reporter", "warehouse", ""}
	for i, log := range logs {
		in.Enable(faults.Rule{Point: faults.Point(wal.OpFileSync), Mode: faults.ModeLatency, Latency: time.Duration(i + 1), Match: log})
	}
	fsyncs := make(map[string]int)
	in.Sleep = func(d time.Duration) { fsyncs[cmp.Or(logs[d-1], "other")]++ }
	sys, _, reports := newSystem(t, Options{DurableDir: t.TempDir(), Faults: in})
	defer sys.Close()
	if _, err := sys.Subscribe(`subscription F
monitoring select <U url=URL/> where URL extends "http://f.example/" and modified self
report when immediate`); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Subscribe(`subscription P
continuous Pulse
try weekly
report when immediate`); err != nil {
		t.Fatal(err)
	}
	clear(fsyncs)
	sys.Tick()
	// The weekly query evaluates and reports: barrier (1) makes its notif
	// record, mark included, and its fired batch durable, and the
	// Reporter's Tick commits the report's done.
	if want := map[string]int{"reporter": 2}; !maps.Equal(fsyncs, want) {
		t.Errorf("evaluating Tick: fsyncs %v, want %v", fsyncs, want)
	}
	for v := 1; v <= 3; v++ {
		clear(fsyncs)
		if _, err := sys.PushXML("http://f.example/a.xml", "", "", fmt.Sprintf("<a>%d</a>", v)); err != nil {
			t.Fatal(err)
		}
		want := map[string]int{}
		if v > 1 {
			want["reporter"] = 1 // barrier (1); the New version raises nothing
		}
		if !maps.Equal(fsyncs, want) {
			t.Errorf("push v%d: fsyncs %v, want %v", v, fsyncs, want)
		}
	}
	if len(*reports) != 3 {
		t.Fatalf("%d reports, want 3", len(*reports))
	}
	clear(fsyncs)
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if fsyncs["warehouse"] == 0 {
		t.Errorf("Checkpoint synced no warehouse record: %v", fsyncs)
	}
}

// TestWarehouseNeverLeadsUnprocessedVersion: v3 of a page is processed
// while v2, committed before it, is not. The warehouse log must not move
// to v3: recovered then, the page is at v1, and pushing v2 and v3 again
// raises both updates.
func TestWarehouseNeverLeadsUnprocessedVersion(t *testing.T) {
	const sub = `subscription O
monitoring select <U url=URL/> where URL extends "http://o.example/" and modified self
report when immediate`
	dir := t.TempDir()
	url := "http://o.example/a.xml"
	sys, _, _ := newSystem(t, Options{DurableDir: dir})
	if _, err := sys.Subscribe(sub); err != nil {
		t.Fatal(err)
	}
	sys.PushXML(url, "", "", `<a>1</a>`)
	var docs []*alerter.Doc
	for _, v := range []string{`<a>2</a>`, `<a>3</a>`} {
		res, err := sys.Store.CommitXMLBytes(url, "", "", []byte(v))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, &alerter.Doc{Meta: res.Meta, Status: res.Status, Doc: res.Doc, Delta: res.Delta})
	}
	if n, err := sys.ProcessDoc(docs[1]); err != nil || n != 1 {
		t.Fatalf("ProcessDoc(v3) = %d, %v", n, err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	again, _, _ := newSystem(t, Options{DurableDir: dir})
	defer again.Close()
	if e, err := again.Store.Get(url); err != nil || e.Meta.Version != 1 {
		t.Fatalf("recovered %v, %v; want version 1, the newest processed in order", e, err)
	}
	for _, v := range []string{`<a>2</a>`, `<a>3</a>`} {
		if n, err := again.PushXML(url, "", "", v); err != nil || n != 1 {
			t.Errorf("push %s after recovery = %d, %v; want its update raised", v, n, err)
		}
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

// TestContinuousResultSharesPayload: the Reporter references the element a
// continuous query hands it, read-only — not copied, not re-parented — so
// the Trigger Engine must hand over a tree of its own, not warehouse nodes
// and not the result it keeps for the next delta. Re-evaluations must leave
// delivered reports, the payloads they hold and the warehouse as they were.
func TestContinuousResultSharesPayload(t *testing.T) {
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
				t.Fatalf("%s: a warehouse document was re-parented under <%s>", when, root.Parent.Data)
			}
			root.PreOrder(func(n *xmldom.Node) bool {
				for _, ch := range n.Children {
					if ch.Parent != n {
						t.Fatalf("%s: warehouse node <%s> moved out of its document", when, ch.Data)
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
	var payloads [][]*xmldom.Node
	unparented := func(when string) {
		t.Helper()
		for i, kids := range payloads {
			for _, ch := range kids {
				if ch.Parent != nil {
					t.Errorf("%s: a payload of %s was re-parented under <%s>", when, (*reports)[i].Subscription, ch.Parent.Data)
				}
			}
		}
	}
	for _, rep := range *reports {
		before = append(before, rep.Doc.XML())
		payloads = append(payloads, slices.Clone(rep.Doc.Children))
	}
	unparented("after the first evaluation")
	push("Night Watch", "Milkmaid")
	c.advance(25 * time.Hour)
	sys.Tick()
	if len(*reports) != 4 {
		t.Fatalf("second evaluation: %d reports, want 4", len(*reports))
	}
	intact("after the second evaluation")
	unparented("after the second evaluation")
	for i, xml := range before {
		if got := (*reports)[i].Doc.XML(); got != xml {
			t.Errorf("report %d changed under a later evaluation:\n before %s\n after  %s", i, xml, got)
		}
		if !slices.Equal((*reports)[i].Doc.Children, payloads[i]) {
			t.Errorf("report %d no longer holds the payloads it was delivered with", i)
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
// pooled scratch over the fetched bytes. A byte-identical refetch is
// refused by the page's stub; a byte-different one runs the pre-filter
// and overwrites the stub in place. (The base here holds presence
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
	refuse := func(data []byte) {
		if sys.Crawler.Gate(url, site.Spec().DTD, "shopping", data) {
			t.Fatal("the gate passed a page nobody wants")
		}
	}
	refuse(page) // fill the pools and write the stub
	hits := sys.Store.Stats().StubHits
	if allocs := testing.AllocsPerRun(200, func() { refuse(page) }); allocs != 0 {
		t.Errorf("Gate allocates %.1f objects refusing a %d-byte page, want 0", allocs, len(page))
	}
	if n := sys.Store.Stats().StubHits - hits; n != 201 {
		t.Errorf("%d of 201 identical refetches were stub hits", n)
	}

	// Two byte-different versions in turn: every call misses the stub.
	versions := [2][]byte{page, bytes.Replace(page, []byte("</catalog>"), []byte(" </catalog>"), 1)}
	next := 0
	alternate := func() {
		next ^= 1
		refuse(versions[next])
	}
	hits = sys.Store.Stats().StubHits
	if allocs := testing.AllocsPerRun(200, alternate); allocs != 0 {
		t.Errorf("Gate allocates %.1f objects screening a %d-byte page and overwriting its stub, want 0", allocs, len(page))
	}
	if n := sys.Store.Stats().StubHits - hits; n != 0 {
		t.Errorf("%d alternating refetches were stub hits, want every one screened", n)
	}
}

// TestPushXMLRetainsNoInput: PushXML reads each page through a pooled
// buffer that the next push overwrites, so nothing the chain keeps may
// point into it. After later, larger pages are pushed through the same
// buffer, page A's stored tree, the payloads delivered for it and the
// version the warehouse log recovers are all still A.
func TestPushXMLRetainsNoInput(t *testing.T) {
	dir := t.TempDir()
	sys, _, reports := newSystem(t, Options{DurableDir: dir})
	if _, err := sys.Subscribe(`subscription Products
monitoring
select X
from self//product X
where URL = "http://keep.example/a.xml" and new X
report when immediate`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	page := func(n int, name string) string {
		var b strings.Builder
		b.WriteString("<catalog>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, `<product id="%s%d"><name>%s %d</name></product>`, name, i, name, i)
		}
		return b.String() + "</catalog>"
	}
	push := func(url, content string) {
		t.Helper()
		if _, err := sys.PushXML(url, "", "shopping", content); err != nil {
			t.Fatalf("PushXML %s: %v", url, err)
		}
	}
	// The first push grows the pooled buffer past every later page, so the
	// pages after A are copied over A's bytes rather than into a new array.
	push("http://keep.example/big.xml", page(400, "filler"))
	a := page(3, "radio")
	push("http://keep.example/a.xml", a)
	if len(*reports) != 3 {
		t.Fatalf("page A raised %d reports, want one per product", len(*reports))
	}
	var delivered []string
	for _, r := range *reports {
		delivered = append(delivered, r.Doc.XML())
	}
	if !strings.Contains(strings.Join(delivered, ""), "radio 2") {
		t.Fatalf("A's reports = %s", delivered)
	}
	for i := 1; i <= 5; i++ {
		push(fmt.Sprintf("http://keep.example/b%d.xml", i), page(3+20*i, "zzzzz"))
	}

	parsed, err := xmldom.ParseBytes([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	want := parsed.XML()
	e, err := sys.Store.Get("http://keep.example/a.xml")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Doc.XML(); got != want {
		t.Errorf("A's stored tree changed under later pushes:\n got  %s\n want %s", got, want)
	}
	for i, r := range (*reports)[:3] {
		if got := r.Doc.XML(); got != delivered[i] {
			t.Errorf("A's delivered payloads changed under later pushes:\n got  %s\n was  %s", got, delivered[i])
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	again, _, _ := newSystem(t, Options{DurableDir: dir})
	defer again.Close()
	e, err = again.Store.Get("http://keep.example/a.xml")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Doc.XML(); got != want {
		t.Errorf("A recovered from the warehouse log as\n %s\nwant %s", got, want)
	}
	// The log holds A's exact bytes: a refetch of them is a tier-1 hit.
	if _, err := again.PushXML("http://keep.example/a.xml", "", "shopping", a); err != nil {
		t.Fatal(err)
	}
	if st := again.Store.Stats(); st.SkippedRawSig != 1 {
		t.Errorf("refetching A after recovery: %+v, want one tier-1 hit", st)
	}
}

// TestUnchangedPushAllocCeiling holds a byte-identical refetch, the
// commonest document of a steady crawl, to a few small objects: with
// steady-refetch's four kinds of subscription on the page's site, PushXML
// allocates at most 4 objects and under a quarter of the page's bytes.
func TestUnchangedPushAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sys, _, _ := newSystem(t, Options{})
	prefix := "http://shop0.example/"
	vocab := webgen.Vocabulary()
	for j := 0; j < 10; j++ {
		var where, report string
		switch k := j % 10; {
		case k == 0:
			where, report = "modified self", "immediate"
		case k <= 3:
			where, report = "modified self", "notifications.count > 20"
		case k <= 6:
			where, report = fmt.Sprintf("new product contains %q", vocab[j%len(vocab)]), "daily"
		default:
			where, report = "updated product", "notifications.count > 20"
		}
		if _, err := sys.Subscribe(fmt.Sprintf("subscription S%d\nmonitoring\nselect <Hit url=URL/>\nwhere URL extends %q and %s\nreport when %s", j, prefix, where, report)); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
	}
	site := NewSite(SiteSpec{BaseURL: prefix, Pages: 1, Products: 30, Seed: 7919, PerturbEvery: 3, PerturbKind: webgen.PerturbWhitespace})
	url := site.XMLURLs()[0]
	page := string(site.FetchXMLBytes(url, 1))
	refetch := func() {
		if _, err := sys.PushXML(url, site.Spec().DTD, "shopping", page); err != nil {
			t.Fatal(err)
		}
	}
	refetch() // the page is New
	refetch() // fill the pools
	before := sys.Store.Stats().SkippedRawSig
	const runs = 200
	allocs := testing.AllocsPerRun(runs, refetch)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		refetch()
	}
	runtime.ReadMemStats(&m1)
	bytesPer := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	if hits := sys.Store.Stats().SkippedRawSig - before; hits != 2*runs+1 {
		t.Fatalf("%d tier-1 hits over %d refetches; every refetch must be one", hits, 2*runs+1)
	}
	if allocs > 4 || bytesPer >= float64(len(page))/4 {
		t.Errorf("an unchanged refetch allocates %.1f objects, %.0f B; want at most 4 objects and under %d B (a quarter of the %d-byte page)",
			allocs, bytesPer, len(page)/4, len(page))
	}
	t.Logf("%.1f objects, %.0f B per refetch of a %d-byte page", allocs, bytesPer, len(page))
}
