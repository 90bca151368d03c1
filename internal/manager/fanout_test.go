package manager

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xymon/internal/alerter"
	"xymon/internal/core"
	"xymon/internal/reporter"
	"xymon/internal/trigger"
	"xymon/internal/warehouse"
)

// bareManager assembles a manager over matcher on real clocks around rep,
// with no continuous-query sink.
func bareManager(rep *reporter.Reporter, matcher Matcher) (*Manager, *warehouse.Store) {
	store := warehouse.NewStore()
	return New(Config{
		Matcher:  matcher,
		Pipeline: alerter.NewPipeline(),
		Reporter: rep,
		Trigger:  trigger.New(store.AllRoots, nil),
	}), store
}

// churnSource is a subscription whose every payload names the subscription
// and the registration (gen) that produced it, so a report can be checked
// against the buffer it came out of.
func churnSource(name string, gen int, when string) string {
	return fmt.Sprintf(`subscription %s
monitoring
select <N owner="%s" gen="%d" url=URL/>
where URL extends "http://churn.example/" and modified self
report when %s
`, name, name, gen, when)
}

// TestChurnBesideProcessAlert subscribes and unsubscribes beside document
// workers and checks what the lock-free id table and the reporter handles
// must guarantee between them:
//
//   - a payload only ever lands in the buffer of the registration that
//     produced it: every child of a report names the report's subscription,
//     and all children of one report carry one gen (a stale id or handle
//     never resolves to another subscription, nor to a later registration
//     of the same name);
//   - a document pushed after Unsubscribe returned raises nothing for the
//     registration it removed;
//   - a document pushed after Subscribe returned does reach it;
//   - for the subscriptions that stay, produced = delivered + buffered.
//
// It runs over core.Matcher and over the naive scan, which shares no
// structure with it. CI runs it under -race -count=10.
func TestChurnBesideProcessAlert(t *testing.T) {
	for _, mk := range seamMatchers {
		t.Run(mk.name, func(t *testing.T) { churnBesideProcessAlert(t, mk.new()) })
	}
}

func churnBesideProcessAlert(t *testing.T, matcher Matcher) {
	const (
		stable  = 8
		names   = 6
		rounds  = 120
		pushers = 3
	)
	var mu sync.Mutex
	deliveredStable := 0
	rep := reporter.New(reporter.DeliveryFunc(func(r *reporter.Report) error {
		mu.Lock()
		defer mu.Unlock()
		gen := ""
		for i, n := range r.Doc.Children {
			owner, _ := n.Attr("owner")
			g, _ := n.Attr("gen")
			url, _ := n.Attr("url")
			if owner != r.Subscription {
				t.Errorf("report for %s carries a payload of %s", r.Subscription, owner)
			}
			if i > 0 && g != gen {
				t.Errorf("report for %s mixes registrations %s and %s", r.Subscription, gen, g)
			}
			gen = g
			if after, ok := strings.CutPrefix(url, "http://churn.example/after/"); ok && after == g {
				t.Errorf("%s gen %s was notified of %s, pushed after its Unsubscribe returned", owner, g, url)
			}
		}
		if strings.HasPrefix(r.Subscription, "Stable") {
			deliveredStable += r.Notifications
		}
		return nil
	}))
	mgr, store := bareManager(rep, matcher)
	for i := 0; i < stable; i++ {
		when := "notifications.count > 2"
		if i%2 == 0 {
			when = "immediate"
		}
		if _, err := mgr.Subscribe(churnSource(fmt.Sprintf("Stable%d", i), -1, when)); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
	}

	// push commits two versions of url; the second is an update, which
	// every subscription here is notified of.
	var updates atomic.Int64
	push := func(url string) {
		for v := 0; v < 2; v++ {
			res, err := store.CommitXMLBytes(url, "", "", fmt.Appendf(nil, "<page><v>%d</v></page>", v))
			if err != nil {
				t.Errorf("CommitXMLBytes: %v", err)
				return
			}
			mgr.ProcessDoc(&alerter.Doc{Meta: res.Meta, Status: res.Status, Doc: res.Doc, Delta: res.Delta})
		}
		updates.Add(1)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				push(fmt.Sprintf("http://churn.example/p%d/%d", p, i))
			}
		}(p)
	}
	for i := 0; i < rounds; i++ {
		name := fmt.Sprintf("C%d", i%names)
		// Odd rounds report every other notification, so reports are built
		// from churned buffers; even rounds only buffer, so the buffer can
		// be read back (a report fired by a worker's notification would be
		// delivered on that worker's schedule, not this goroutine's).
		when := "notifications.count > 1"
		if i%2 == 0 {
			when = "notifications.count > 1000000"
		}
		if _, err := mgr.Subscribe(churnSource(name, i, when)); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		push(fmt.Sprintf("http://churn.example/during/%d", i))
		if i%2 == 0 && rep.Buffered(name) == 0 {
			t.Errorf("%s gen %d is registered, yet the document pushed next did not reach its buffer", name, i)
		}
		if err := mgr.Unsubscribe(name); err != nil {
			t.Fatalf("Unsubscribe: %v", err)
		}
		push(fmt.Sprintf("http://churn.example/after/%d", i))
	}
	close(done)
	wg.Wait()

	buffered := 0
	for i := 0; i < stable; i++ {
		buffered += rep.Buffered(fmt.Sprintf("Stable%d", i))
	}
	mu.Lock()
	defer mu.Unlock()
	if want := stable * int(updates.Load()); deliveredStable+buffered != want {
		t.Errorf("stable subscriptions: delivered %d + buffered %d, produced %d", deliveredStable, buffered, want)
	}
	if st := mgr.Stats(); st.Subscriptions != stable || st.ComplexEvents != stable {
		t.Errorf("base after churn = %+v", st)
	}
}

// TestStaleIDResolvesToNil pins the query table's contract directly: an id
// reads as its query while registered, nil before and after, and keeps
// doing so across growth.
func TestStaleIDResolvesToNil(t *testing.T) {
	var tab queryTable
	if tab.get(0) != nil || tab.get(5000) != nil {
		t.Fatal("empty table resolved an id")
	}
	tab.set(9000, nil) // clearing an id that was never published
	qs := make([]*registeredQuery, 5000)
	for i := range qs {
		qs[i] = &registeredQuery{id: core.ComplexID(i)}
		tab.set(qs[i].id, qs[i])
	}
	tab.set(7, nil)
	for i, q := range qs {
		want := q
		if i == 7 {
			want = nil
		}
		if got := tab.get(core.ComplexID(i)); got != want {
			t.Fatalf("id %d resolved to %p, want %p", i, got, want)
		}
	}
	if tab.get(core.ComplexID(len(qs))) != nil || tab.get(1<<30) != nil {
		t.Error("an id never handed out resolved to a query")
	}
	tab.set(7, qs[7]) // Resume re-publishes the same query under its id
	if tab.get(7) != qs[7] {
		t.Errorf("re-published id resolved to %p", tab.get(7))
	}
}

// TestQueryTableDropsDeadPages: ids are never reused, so under churn the
// table must not keep a slot for every id ever issued. One long-lived query
// and a window of 64 churned ones, over 200 000 ids, hold a handful of
// pages; the long-lived query and the live window still resolve.
func TestQueryTableDropsDeadPages(t *testing.T) {
	var tab queryTable
	resident := &registeredQuery{id: 0}
	tab.set(0, resident)
	const ids, window = 200_000, 64
	live := make([]*registeredQuery, 0, window)
	for id := core.ComplexID(1); id <= ids; id++ {
		if len(live) == window {
			tab.set(live[0].id, nil)
			live = append(live[:0], live[1:]...)
		}
		rq := &registeredQuery{id: id}
		tab.set(id, rq)
		live = append(live, rq)
	}
	pages := 0
	for i := range tab.pages() {
		if tab.pages()[i].Load() != nil {
			pages++
		}
	}
	if pages > 3 { // the resident's page and at most two under the window
		t.Errorf("%d pages held for %d live queries, want at most 3", pages, window+1)
	}
	if tab.get(0) != resident {
		t.Error("the long-lived query no longer resolves")
	}
	for _, rq := range live {
		if tab.get(rq.id) != rq {
			t.Fatalf("live id %d resolved to %p", rq.id, tab.get(rq.id))
		}
	}
	if tab.get(live[0].id-1) != nil || tab.get(ids/2) != nil {
		t.Error("a dropped id resolved to a query")
	}
	tab.set(ids/2, nil) // clearing an id whose page is gone
	tab.set(ids/2, resident)
	if tab.get(ids/2) != resident {
		t.Error("an id re-published onto a dropped page does not resolve")
	}
}

// fanoutAlert builds a manager that discards its reports, registers n
// subscriptions matching one page — a fifth report immediately, the rest
// past thirty notifications, the shape of the push-fanout workload — and
// returns the alert the page's update raises.
func fanoutAlert(t testing.TB, n int) (*Manager, *alerter.Alert) {
	mgr, store := bareManager(reporter.New(nil), core.NewMatcher())
	for i := 0; i < n; i++ {
		when := "notifications.count > 30"
		if i%5 == 0 {
			when = "immediate"
		}
		if _, err := mgr.Subscribe(fmt.Sprintf(`subscription F%d
monitoring
select <A url=URL/>
where URL extends "http://fan.example/" and modified self
report when %s
`, i, when)); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
	}
	var d *alerter.Doc
	for v := 0; v < 2; v++ {
		res, err := store.CommitXMLBytes("http://fan.example/a.xml", "", "", fmt.Appendf(nil, "<a><v>%d</v></a>", v))
		if err != nil {
			t.Fatalf("CommitXMLBytes: %v", err)
		}
		d = &alerter.Doc{Meta: res.Meta, Status: res.Status, Doc: res.Doc, Delta: res.Delta}
	}
	a := mgr.pipeline.Detect(d)
	if a == nil || !a.Strong {
		t.Fatalf("alert = %+v", a)
	}
	return mgr, a
}

// TestProcessAlertAllocCeiling holds the allocation win of the bound
// fan-out path. The 50 queries share one select plan, so a 50-notification
// alert builds one payload — an element, its attribute slice and the
// slice header the element points to — that every notification
// references, and costs nothing per notification beyond it. The rest is
// three objects (the report, its root element and its child slice) per
// report fired: ten immediate reports per alert, and a count report of
// each of the forty other subscriptions every 31st alert — 36 objects
// measured here. The ceiling sits below the 133 that one
// payload per notification cost, and far below the 340 of the walk over
// the parse tree, the clone at report time and the regrown buffers.
func TestProcessAlertAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const notifs = 50
	mgr, a := fanoutAlert(t, notifs)
	for i := 0; i < 64; i++ { // let every buffer reach its working capacity
		if n := mgr.ProcessAlert(a); n != notifs {
			t.Fatalf("ProcessAlert = %d notifications, want %d", n, notifs)
		}
	}
	perAlert := testing.AllocsPerRun(200, func() { mgr.ProcessAlert(a) })
	if ceiling := 0.9 * notifs; perAlert > ceiling {
		t.Errorf("ProcessAlert allocates %.0f objects for %d notifications, ceiling %.0f", perAlert, notifs, ceiling)
	}
}
