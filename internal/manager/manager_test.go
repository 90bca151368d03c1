package manager

import (
	"strings"
	"testing"
	"time"

	"xymon/internal/alerter"
	"xymon/internal/core"
	"xymon/internal/reporter"
	"xymon/internal/sublang"
	"xymon/internal/trigger"
	"xymon/internal/warehouse"
	"xymon/internal/xmldom"
)

// rig is a full subscription system over an in-memory warehouse with a
// virtual clock.
type rig struct {
	t       *testing.T
	clock   time.Time
	store   *warehouse.Store
	mgr     *Manager
	rep     *reporter.Reporter
	eng     *trigger.Engine
	reports []*reporter.Report
}

func newRig(t *testing.T, journal Journal) *rig {
	r := &rig{t: t, clock: time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)}
	now := func() time.Time { return r.clock }
	r.store = warehouse.NewStore(warehouse.WithClock(now))
	r.rep = reporter.New(reporter.DeliveryFunc(func(rep *reporter.Report) error {
		r.reports = append(r.reports, rep)
		return nil
	}), reporter.WithClock(now))
	r.eng = trigger.New(r.store.AllRoots, func(res trigger.Result) {
		r.rep.Notify(reporter.Notification{
			Subscription: res.Subscription, Label: res.Query, Element: res.Element, Time: res.Time,
		})
	}, trigger.WithClock(now))
	r.mgr = New(Config{
		Matcher:  core.NewMatcher(),
		Pipeline: alerter.NewPipeline(nil),
		Reporter: r.rep,
		Trigger:  r.eng,
		Clock:    now,
		Journal:  journal,
	})
	return r
}

// commitXML pushes a document version through warehouse + manager.
func (r *rig) commitXML(url, dtd, domain, xml string) int {
	r.t.Helper()
	res, err := r.store.CommitXML(url, dtd, domain, xmldom.MustParse(xml))
	if err != nil {
		r.t.Fatalf("CommitXML: %v", err)
	}
	return r.mgr.ProcessDoc(&alerter.Doc{
		Meta: res.Meta, Status: res.Status, Doc: res.Doc, Delta: res.Delta,
	})
}

func (r *rig) subscribe(src string) {
	r.t.Helper()
	if _, err := r.mgr.Subscribe(src); err != nil {
		r.t.Fatalf("Subscribe: %v", err)
	}
}

const watchInria = `subscription WatchInria
monitoring
select <UpdatedPage url=URL status=STATUS/>
where URL extends "http://inria.fr/Xy/"
  and modified self
report when notifications.count > 1
`

func TestMonitoringEndToEnd(t *testing.T) {
	r := newRig(t, nil)
	r.subscribe(watchInria)

	// First fetch: document is new, not modified — no notification.
	if n := r.commitXML("http://inria.fr/Xy/index.xml", "", "", `<page><t>v1</t></page>`); n != 0 {
		t.Fatalf("new doc produced %d notifications", n)
	}
	// Unchanged refetch: no notification.
	if n := r.commitXML("http://inria.fr/Xy/index.xml", "", "", `<page><t>v1</t></page>`); n != 0 {
		t.Fatalf("unchanged doc produced %d notifications", n)
	}
	// Changed: notification fires, but report needs count > 1.
	if n := r.commitXML("http://inria.fr/Xy/index.xml", "", "", `<page><t>v2</t></page>`); n != 1 {
		t.Fatalf("updated doc produced %d notifications, want 1", n)
	}
	if len(r.reports) != 0 {
		t.Fatalf("report fired early")
	}
	// A second update on another matching page triggers the report.
	r.commitXML("http://inria.fr/Xy/members.xml", "", "", `<m><x>1</x></m>`)
	if n := r.commitXML("http://inria.fr/Xy/members.xml", "", "", `<m><x>2</x></m>`); n != 1 {
		t.Fatalf("second update produced %d notifications", n)
	}
	if len(r.reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(r.reports))
	}
	out := r.reports[0].Doc.XML()
	if !strings.Contains(out, `url="http://inria.fr/Xy/index.xml"`) ||
		!strings.Contains(out, `status="updated"`) {
		t.Errorf("report = %s", out)
	}
	// A page outside the prefix never matches.
	if n := r.commitXML("http://elsewhere.org/a.xml", "", "", `<a><b>1</b></a>`); n != 0 {
		t.Errorf("outside page produced %d notifications", n)
	}
	st := r.mgr.Stats()
	if st.Subscriptions != 1 || st.ComplexEvents != 1 || st.AtomicEvents != 2 {
		t.Errorf("stats = %+v", st)
	}
}

const watchMembers = `subscription WatchMembers
monitoring
select X
from self//Member X
where URL = "http://inria.fr/Xy/members.xml"
  and new X
report when immediate
`

func TestSelectVariableNewElements(t *testing.T) {
	r := newRig(t, nil)
	r.subscribe(watchMembers)

	// New document: all members are new; one notification per member.
	n := r.commitXML("http://inria.fr/Xy/members.xml", "", "", `<Team>
		<Member><name>jouglet</name></Member>
		<Member><name>nguyen</name></Member>
	</Team>`)
	if n != 2 {
		t.Fatalf("notifications = %d, want 2", n)
	}
	// Update adding one member: exactly the new one is reported.
	n = r.commitXML("http://inria.fr/Xy/members.xml", "", "", `<Team>
		<Member><name>jouglet</name></Member>
		<Member><name>nguyen</name></Member>
		<Member><name>preda</name></Member>
	</Team>`)
	if n != 1 {
		t.Fatalf("notifications = %d, want 1", n)
	}
	last := r.reports[len(r.reports)-1].Doc.XML()
	if !strings.Contains(last, "preda") || strings.Contains(last, "jouglet") {
		t.Errorf("report = %s", last)
	}
	// Price-style update inside an existing member: no new members.
	n = r.commitXML("http://inria.fr/Xy/members.xml", "", "", `<Team>
		<Member><name>jouglet</name></Member>
		<Member><name>nguyen</name></Member>
		<Member><name>preda-renamed</name></Member>
	</Team>`)
	if n != 0 {
		t.Fatalf("rename produced %d new-member notifications", n)
	}
}

func TestAtomicEventDeduplication(t *testing.T) {
	r := newRig(t, nil)
	r.subscribe(`subscription A
monitoring select <PA/> where URL extends "http://shared.example/" and modified self
report when immediate`)
	r.subscribe(`subscription B
monitoring select <PB/> where URL extends "http://shared.example/" and new self
report when immediate`)
	st := r.mgr.Stats()
	// URL prefix is shared; "modified self" and "new self" are distinct.
	if st.AtomicEvents != 3 {
		t.Errorf("AtomicEvents = %d, want 3 (shared prefix deduplicated)", st.AtomicEvents)
	}
	if st.ComplexEvents != 2 {
		t.Errorf("ComplexEvents = %d", st.ComplexEvents)
	}
	// Removing A must keep B working.
	if err := r.mgr.Unsubscribe("A"); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	if n := r.commitXML("http://shared.example/x.xml", "", "", `<a><b>1</b></a>`); n != 1 {
		t.Fatalf("B notifications = %d, want 1", n)
	}
	st = r.mgr.Stats()
	if st.AtomicEvents != 2 || st.ComplexEvents != 1 {
		t.Errorf("stats after unsubscribe = %+v", st)
	}
}

func TestUnsubscribeErrors(t *testing.T) {
	r := newRig(t, nil)
	if err := r.mgr.Unsubscribe("nope"); err != ErrUnknownSubscription {
		t.Errorf("Unsubscribe(nope) = %v", err)
	}
	r.subscribe(watchInria)
	if _, err := r.mgr.Subscribe(watchInria); err != ErrDuplicateSubscription {
		t.Errorf("duplicate Subscribe = %v", err)
	}
}

func TestWeakSuppression(t *testing.T) {
	r := newRig(t, nil)
	r.subscribe(`subscription W
monitoring select <P/> where URL extends "http://inria.fr/" and modified self
report when immediate`)
	// A page outside the prefix that was modified raises only the weak
	// event; the alert must be suppressed before reaching the processor.
	r.commitXML("http://elsewhere.org/p.xml", "", "", `<a><b>1</b></a>`)
	if n := r.commitXML("http://elsewhere.org/p.xml", "", "", `<a><b>2</b></a>`); n != 0 {
		t.Fatalf("weak-only alert produced %d notifications", n)
	}
	st := r.mgr.Stats()
	if st.WeakSuppress != 1 {
		t.Errorf("WeakSuppress = %d, want 1", st.WeakSuppress)
	}
}

func TestVirtualSubscription(t *testing.T) {
	r := newRig(t, nil)
	r.subscribe(watchInria)
	r.subscribe(`subscription Follower
virtual WatchInria.UpdatedPage`)
	r.commitXML("http://inria.fr/Xy/a.xml", "", "", `<a><b>1</b></a>`)
	r.commitXML("http://inria.fr/Xy/a.xml", "", "", `<a><b>2</b></a>`)
	r.commitXML("http://inria.fr/Xy/a.xml", "", "", `<a><b>3</b></a>`)
	recipients := map[string]int{}
	for _, rep := range r.reports {
		recipients[rep.Subscription]++
	}
	if recipients["WatchInria"] != 1 || recipients["Follower"] != 1 {
		t.Errorf("recipients = %v", recipients)
	}
	// Virtual reference to a missing subscription fails.
	if _, err := r.mgr.Subscribe(`subscription Bad
virtual Missing.Query`); err == nil {
		t.Error("virtual reference to missing subscription should fail")
	}
}

func TestNotificationTriggeredContinuousQuery(t *testing.T) {
	r := newRig(t, nil)
	r.commitXML("http://market.example/data.xml", "", "market",
		`<market><competitor><name>acme</name></competitor></market>`)
	r.reports = nil
	r.subscribe(`subscription XylemeCompetitors
monitoring
select <ChangeInMyProducts/>
where URL = "http://www.xyleme.com/products.xml"
  and modified self
continuous MyCompetitors
select c/name from market/competitor c
when XylemeCompetitors.ChangeInMyProducts
report when immediate`)
	r.commitXML("http://www.xyleme.com/products.xml", "", "", `<p><v>1</v></p>`)
	if len(r.reports) != 0 {
		t.Fatal("nothing should fire on the first (new) fetch")
	}
	r.commitXML("http://www.xyleme.com/products.xml", "", "", `<p><v>2</v></p>`)
	// Two notifications: the monitoring one and the triggered continuous
	// query result; report is immediate so two reports.
	if len(r.reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(r.reports))
	}
	var joined strings.Builder
	for _, rep := range r.reports {
		joined.WriteString(rep.Doc.XML())
	}
	if !strings.Contains(joined.String(), "ChangeInMyProducts") ||
		!strings.Contains(joined.String(), "acme") {
		t.Errorf("reports = %s", joined.String())
	}
	if r.eng.Evaluations() != 1 {
		t.Errorf("continuous evaluations = %d", r.eng.Evaluations())
	}
}

func TestRefreshHints(t *testing.T) {
	r := newRig(t, nil)
	r.subscribe(`subscription R1
monitoring select <P/> where URL extends "http://a.example/"
refresh "http://a.example/x.xml" weekly`)
	r.subscribe(`subscription R2
monitoring select <P/> where URL extends "http://a.example/x"
refresh "http://a.example/x.xml" daily
refresh "http://a.example/y.xml" monthly`)
	hints := r.mgr.RefreshHints()
	if hints["http://a.example/x.xml"] != sublang.Daily {
		t.Errorf("x.xml hint = %v, want daily (smallest wins)", hints["http://a.example/x.xml"])
	}
	if hints["http://a.example/y.xml"] != sublang.Monthly {
		t.Errorf("y.xml hint = %v", hints["http://a.example/y.xml"])
	}
}

func TestJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	j := newWALJournal(t, dir)
	r := newRig(t, j)
	r.subscribe(watchInria)
	r.subscribe(`subscription Gone
monitoring select <G/> where URL extends "http://gone.example/"
report when immediate`)
	if err := r.mgr.Unsubscribe("Gone"); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}

	// A fresh system recovers the base from the journal.
	j.Close()
	j2 := newWALJournal(t, dir)
	r2 := newRig(t, nil)
	if err := r2.mgr.Recover(j2); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	subs := r2.mgr.Subscriptions()
	if len(subs) != 1 || subs[0] != "WatchInria" {
		t.Fatalf("recovered subs = %v", subs)
	}
	// And it behaves identically.
	r2.commitXML("http://inria.fr/Xy/a.xml", "", "", `<a><b>1</b></a>`)
	if n := r2.commitXML("http://inria.fr/Xy/a.xml", "", "", `<a><b>2</b></a>`); n != 1 {
		t.Errorf("recovered system notifications = %d, want 1", n)
	}
}

func TestSubscriptionLookup(t *testing.T) {
	r := newRig(t, nil)
	r.subscribe(watchInria)
	if subs := r.mgr.Subscriptions(); len(subs) != 1 || subs[0] != "WatchInria" {
		t.Errorf("Subscriptions = %v", subs)
	}
	if err := r.mgr.Unsubscribe("nope"); err != ErrUnknownSubscription {
		t.Errorf("Unsubscribe(nope) = %v", err)
	}
}

func TestMemJournal(t *testing.T) {
	j := &MemJournal{}
	j.Append(Record{Op: "subscribe", Name: "A", Source: "src"})
	recs, err := j.Records()
	if err != nil || len(recs) != 1 || recs[0].Name != "A" {
		t.Errorf("records = %v, %v", recs, err)
	}
}

func TestDisjunctionDeduplicatesNotifications(t *testing.T) {
	r := newRig(t, nil)
	// Both disjuncts match the same document; the subscriber must get the
	// notification once (Section 7 disjunction extension).
	r.subscribe(`subscription D
monitoring
select <Hit url=URL/>
where URL extends "http://a.example/" and modified self
   or filename = "page.xml" and modified self
report when immediate`)
	r.commitXML("http://a.example/page.xml", "", "", `<a><v>1</v></a>`)
	if n := r.commitXML("http://a.example/page.xml", "", "", `<a><v>2</v></a>`); n != 1 {
		t.Fatalf("notifications = %d, want 1 (deduplicated)", n)
	}
	st := r.mgr.Stats()
	if st.ComplexEvents != 2 {
		t.Errorf("ComplexEvents = %d, want 2 (one per disjunct)", st.ComplexEvents)
	}
	// A document matching only the second disjunct still notifies.
	r.commitXML("http://b.example/page.xml", "", "", `<a><v>1</v></a>`)
	if n := r.commitXML("http://b.example/page.xml", "", "", `<a><v>2</v></a>`); n != 1 {
		t.Fatalf("second-disjunct notifications = %d, want 1", n)
	}
}

func TestLiteralBuiltinVariables(t *testing.T) {
	r := newRig(t, nil)
	r.subscribe(`subscription Builtins
monitoring
select <Full url=URL date=DATE id=DOCID dtd=DTD dom=DOMAIN st=STATUS lit="fixed"/>
where URL extends "http://b.example/" and modified self
report when immediate`)
	r.commitXML("http://b.example/x.xml", "http://b.example/x.dtd", "shopping", `<a><v>1</v></a>`)
	if n := r.commitXML("http://b.example/x.xml", "http://b.example/x.dtd", "shopping", `<a><v>2</v></a>`); n != 1 {
		t.Fatalf("notifications = %d", n)
	}
	out := r.reports[len(r.reports)-1].Doc.XML()
	for _, want := range []string{
		`url="http://b.example/x.xml"`,
		`date="2001-05-21T00:00:00Z"`,
		`id="1"`,
		`dtd="http://b.example/x.dtd"`,
		`dom="shopping"`,
		`st="updated"`,
		`lit="fixed"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %s: %s", want, out)
		}
	}
}

func TestSelectVariableUpdatedAndDeleted(t *testing.T) {
	r := newRig(t, nil)
	r.subscribe(`subscription Upd
monitoring
select X
from self//item X
where URL = "http://v.example/i.xml" and updated X
report when immediate`)
	r.subscribe(`subscription Del
monitoring
select X
from self//item X
where URL = "http://v.example/i.xml" and deleted X
report when immediate`)
	r.commitXML("http://v.example/i.xml", "", "", `<list>
		<item><n>a</n></item><item><n>b</n></item></list>`)
	// Update item a's text, delete item b.
	n := r.commitXML("http://v.example/i.xml", "", "", `<list>
		<item><n>a2</n></item></list>`)
	if n != 2 {
		t.Fatalf("notifications = %d, want updated-a + deleted-b", n)
	}
	var joined strings.Builder
	for _, rep := range r.reports {
		joined.WriteString(rep.Doc.XML())
	}
	if !strings.Contains(joined.String(), "a2") || !strings.Contains(joined.String(), "b") {
		t.Errorf("reports = %s", joined.String())
	}
}

func TestFullSelectClauseWithContent(t *testing.T) {
	r := newRig(t, nil)
	r.subscribe(`subscription Full
monitoring
select <Offer url=URL>"new member:" X</Offer>
from self//Member X
where URL = "http://inria.fr/Xy/members.xml" and new X
report when immediate`)
	r.commitXML("http://inria.fr/Xy/members.xml", "", "", `<Team>
		<Member><name>nguyen</name></Member></Team>`)
	n := r.commitXML("http://inria.fr/Xy/members.xml", "", "", `<Team>
		<Member><name>nguyen</name></Member>
		<Member><name>preda</name></Member></Team>`)
	if n != 1 {
		t.Fatalf("notifications = %d, want 1 (single literal wrapping the elements)", n)
	}
	out := r.reports[len(r.reports)-1].Doc.XML()
	if !strings.Contains(out, `<Offer url="http://inria.fr/Xy/members.xml">`) ||
		!strings.Contains(out, "new member:") ||
		!strings.Contains(out, "<Member><name>preda</name></Member>") ||
		strings.Contains(out, "nguyen") {
		t.Errorf("report = %s", out)
	}
}

func TestSubscribeParsedAndDefaultSelect(t *testing.T) {
	r := newRig(t, nil)
	// Hand-built subscription with no select clause at all: the manager's
	// default notification payload kicks in.
	sub := &sublang.Subscription{
		Name: "Programmatic",
		Monitoring: []*sublang.MonitoringQuery{{
			Where: []sublang.Condition{
				{Kind: sublang.CondURLExtends, Str: "http://prog.example/"},
				{Kind: sublang.CondSelfChange, Change: sublang.OpUpdated},
			},
		}},
	}
	if err := sublang.Validate(sub); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := r.mgr.SubscribeParsed(sub); err != nil {
		t.Fatalf("SubscribeParsed: %v", err)
	}
	r.commitXML("http://prog.example/a.xml", "", "", `<a><v>1</v></a>`)
	if n := r.commitXML("http://prog.example/a.xml", "", "", `<a><v>2</v></a>`); n != 1 {
		t.Fatalf("notifications = %d", n)
	}
	out := r.reports[len(r.reports)-1].Doc.XML()
	if !strings.Contains(out, `<notification url="http://prog.example/a.xml" status="updated"/>`) {
		t.Errorf("default notification = %s", out)
	}
}

func TestNopJournal(t *testing.T) {
	var j NopJournal
	if err := j.Append(Record{Op: "subscribe"}); err != nil {
		t.Errorf("Append: %v", err)
	}
	recs, err := j.Records()
	if err != nil || recs != nil {
		t.Errorf("Records = %v, %v", recs, err)
	}
}

func TestEstimateSelectivityCoverage(t *testing.T) {
	// One subscription touching every condition kind: the estimate must be
	// finite and positive and dominated by the weak self condition's rate
	// being masked by the stronger ones.
	src := `subscription All
monitoring select <A/> where URL extends "http://averyspecificsiteprefix.example/with/path/" and modified self
monitoring select <B/> where URL = "http://x.example/p.xml"
monitoring select <C/> where filename = "a.xml"
monitoring select <D/> where DTDID = 3
monitoring select <E/> where DOCID = 4
monitoring select <F/> where domain = "bio"
monitoring select <G/> where LastUpdate > "2001-01-01"
monitoring select <H/> where self contains "genome"
monitoring select <I/> where new Product contains "camera"
monitoring select <J/> where Product contains "camera"
monitoring select <K/> where new Product
report when immediate`
	cost := Estimate(mustParse(t, src))
	if cost.PerDoc <= 0 || cost.Total() <= 0 {
		t.Errorf("cost = %+v", cost)
	}
}

func TestSelectVariableWithContainsFilter(t *testing.T) {
	r := newRig(t, nil)
	r.subscribe(`subscription Cameras
monitoring
select X
from self//product X
where URL = "http://f.example/c.xml" and new X contains "camera"
report when immediate`)
	r.commitXML("http://f.example/c.xml", "", "", `<catalog><seed><s>1</s></seed></catalog>`)
	// Two new products; only one contains the word — exactly one
	// notification, carrying the camera product.
	n := r.commitXML("http://f.example/c.xml", "", "", `<catalog><seed><s>1</s></seed>
		<product><name>digital camera</name></product>
		<product><name>radio</name></product></catalog>`)
	if n != 1 {
		t.Fatalf("notifications = %d, want 1", n)
	}
	out := r.reports[len(r.reports)-1].Doc.XML()
	if !strings.Contains(out, "camera") || strings.Contains(out, "radio") {
		t.Errorf("report = %s", out)
	}
}
