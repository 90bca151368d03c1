package manager

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"xymon/internal/alerter"
	"xymon/internal/core"
	"xymon/internal/reporter"
	"xymon/internal/stream"
	"xymon/internal/sublang"
	"xymon/internal/trigger"
	"xymon/internal/warehouse"
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

func newRig(t *testing.T, opts ...reporter.Option) *rig {
	return newRigOver(t, core.NewMatcher(), opts...)
}

// newRigOver is newRig with the Manager matching through m.
func newRigOver(t *testing.T, m Matcher, opts ...reporter.Option) *rig {
	r := &rig{t: t, clock: time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)}
	now := func() time.Time { return r.clock }
	r.store = warehouse.NewStore(warehouse.WithClock(now))
	r.rep = reporter.New(reporter.DeliveryFunc(func(rep *reporter.Report) error {
		r.reports = append(r.reports, rep)
		return nil
	}), append(opts, reporter.WithClock(now))...)
	r.eng = trigger.New(r.store.AllRoots, func(res trigger.Result) {
		r.rep.Notify(reporter.Notification{
			Subscription: res.Subscription, Label: res.Query, Element: res.Element, Time: res.Time, Mark: true,
		})
	}, trigger.WithClock(now))
	r.mgr = New(Config{
		Matcher:  m,
		Pipeline: alerter.NewPipeline(),
		Reporter: r.rep,
		Trigger:  r.eng,
		Clock:    now,
	})
	return r
}

// journalRig is a rig whose Reporter journals into a stream log at dir,
// the log the subscription base is persisted in. The log is closed when
// the test ends, if the test has not closed it.
func journalRig(t *testing.T, dir string) (*rig, *stream.Log) {
	t.Helper()
	l, err := stream.Open(dir, stream.Options{})
	if err != nil {
		t.Fatalf("stream.Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return newRig(t, reporter.WithWAL(l)), l
}

// journalBytes is the size of the journal's segments at dir.
func journalBytes(t *testing.T, dir string) int64 {
	t.Helper()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	var n int64
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// commitXML pushes a document version through warehouse + manager.
func (r *rig) commitXML(url, dtd, domain, xml string) int {
	r.t.Helper()
	res, err := r.store.CommitXMLBytes(url, dtd, domain, []byte(xml))
	if err != nil {
		r.t.Fatalf("CommitXMLBytes: %v", err)
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
	r := newRig(t)
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
	r := newRig(t)
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
	r := newRig(t)
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

// TestRepeatedConditionReleasedOnUnsubscribe pins that a where clause
// naming one condition twice holds one reference to its atomic event, so
// Unsubscribe takes the event out of the alerters.
func TestRepeatedConditionReleasedOnUnsubscribe(t *testing.T) {
	r := newRig(t)
	r.subscribe(`subscription Twice
monitoring select <P/>
where URL extends "http://a.example/" and URL extends "http://a.example/" and modified self
report when immediate`)
	if st := r.mgr.Stats(); st.AtomicEvents != 2 {
		t.Fatalf("AtomicEvents = %d, want 2", st.AtomicEvents)
	}
	if err := r.mgr.Unsubscribe("Twice"); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	st := r.mgr.Stats()
	if st.AtomicEvents != 0 {
		t.Errorf("after Unsubscribe: AtomicEvents = %d, want 0", st.AtomicEvents)
	}
	r.commitXML("http://a.example/p.xml", "", "", `<a>1</a>`)
	if got := r.mgr.Stats().AlertsSent; got != st.AlertsSent {
		t.Errorf("AlertsSent = %d after a page under the unsubscribed prefix, want %d", got, st.AlertsSent)
	}
}

func TestUnsubscribeErrors(t *testing.T) {
	r := newRig(t)
	if err := r.mgr.Unsubscribe("nope"); err != ErrUnknownSubscription {
		t.Errorf("Unsubscribe(nope) = %v", err)
	}
	r.subscribe(watchInria)
	if _, err := r.mgr.Subscribe(watchInria); err != ErrDuplicateSubscription {
		t.Errorf("duplicate Subscribe = %v", err)
	}
}

func TestWeakSuppression(t *testing.T) {
	r := newRig(t)
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
	r := newRig(t)
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
	r := newRig(t)
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
	r := newRig(t)
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
	r, l := journalRig(t, dir)
	r.subscribe(watchInria)
	r.subscribe(`subscription Gone
monitoring select <G/> where URL extends "http://gone.example/"
report when immediate`)
	if err := r.mgr.Unsubscribe("Gone"); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}

	// A fresh system recovers the base from the journal.
	l.Close()
	r2, _ := journalRig(t, dir)
	if err := r2.mgr.Recover(); err != nil {
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
	r := newRig(t)
	r.subscribe(watchInria)
	if subs := r.mgr.Subscriptions(); len(subs) != 1 || subs[0] != "WatchInria" {
		t.Errorf("Subscriptions = %v", subs)
	}
	if err := r.mgr.Unsubscribe("nope"); err != ErrUnknownSubscription {
		t.Errorf("Unsubscribe(nope) = %v", err)
	}
}

// TestRecoverTwiceIsIdempotent pins the replay contract: recovering the
// same journal twice — a harness restarting a half-recovered system —
// must not duplicate the subscription base or error out.
func TestRecoverTwiceIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	r, l := journalRig(t, dir)
	r.subscribe(watchInria)
	r.subscribe(`subscription Second
monitoring select <S/> where URL extends "http://second.example/"
report when immediate`)
	l.Close()

	r2, _ := journalRig(t, dir)
	if err := r2.mgr.Recover(); err != nil {
		t.Fatalf("first Recover: %v", err)
	}
	if err := r2.mgr.Recover(); err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	if subs := r2.mgr.Subscriptions(); len(subs) != 2 {
		t.Fatalf("after double recovery: %v", subs)
	}
	// The base still behaves: one notification per change, not two.
	r2.commitXML("http://inria.fr/Xy/a.xml", "", "", `<a><b>1</b></a>`)
	if n := r2.commitXML("http://inria.fr/Xy/a.xml", "", "", `<a><b>2</b></a>`); n != 1 {
		t.Errorf("notifications after double recovery = %d, want 1", n)
	}
}

// TestManagerCheckpointCompactsJournal drives a checkpoint end to end
// under the manager: the reporter's checkpoint reclaims the segments
// holding a subscribe/unsubscribe pair, and recovery from the compacted
// journal rebuilds the live base alone.
func TestManagerCheckpointCompactsJournal(t *testing.T) {
	dir := t.TempDir()
	r, l := journalRig(t, dir)
	r.subscribe(watchInria)
	r.subscribe(`subscription Gone
monitoring select <G/> where URL extends "http://gone.example/"
report when immediate`)
	if err := r.mgr.Unsubscribe("Gone"); err != nil {
		t.Fatal(err)
	}
	before := journalBytes(t, dir)
	if err := r.rep.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// No stream record is owed to any consumer, so only the fresh
	// segment after the checkpoint boundary stays.
	if after := journalBytes(t, dir); after >= before {
		t.Fatalf("journal %d bytes after checkpoint, %d before: not compacted", after, before)
	}
	l.Close()

	r2, _ := journalRig(t, dir)
	if err := r2.mgr.Recover(); err != nil {
		t.Fatalf("Recover from checkpoint: %v", err)
	}
	if subs := r2.mgr.Subscriptions(); len(subs) != 1 || subs[0] != "WatchInria" {
		t.Fatalf("recovered subs = %v", subs)
	}
}

// TestWALJournalCompactPlusTail: recovery takes the base from the
// checkpoint's snapshot and replays the journal's tail after it, so a
// subscription made after the checkpoint comes back beside the ones the
// snapshot holds, and one that left before it does not.
func TestWALJournalCompactPlusTail(t *testing.T) {
	src := func(name string) string {
		return fmt.Sprintf(`subscription %s
monitoring select <%s/> where URL extends "http://%s.example/" and modified self
report when immediate`, name, name, strings.ToLower(name))
	}
	dir := t.TempDir()
	r, l := journalRig(t, dir)
	r.subscribe(src("A"))
	r.subscribe(src("B"))
	if err := r.mgr.Unsubscribe("B"); err != nil {
		t.Fatal(err)
	}
	if err := r.rep.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	r.subscribe(src("C"))
	l.Close()

	r2, _ := journalRig(t, dir)
	if err := r2.mgr.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	subs := r2.mgr.Subscriptions()
	slices.Sort(subs)
	if !slices.Equal(subs, []string{"A", "C"}) {
		t.Fatalf("recovered subs = %v, want [A C]", subs)
	}
	// Each recovered subscription watches its own site; B's is unwatched.
	for name, want := range map[string]int{"A": 1, "B": 0, "C": 1} {
		url := "http://" + strings.ToLower(name) + ".example/page.xml"
		r2.commitXML(url, "", "", `<a><v>1</v></a>`)
		if n := r2.commitXML(url, "", "", `<a><v>2</v></a>`); n != want {
			t.Errorf("%s: notifications = %d, want %d", name, n, want)
		}
	}
}

func TestDisjunctionDeduplicatesNotifications(t *testing.T) {
	r := newRig(t)
	// Both disjuncts match the same document; each subscriber must get the
	// notification once (Section 7 disjunction extension). D and E share
	// one select plan and so one payload: the dedup key must still tell
	// the subscribers apart.
	for _, name := range []string{"D", "E"} {
		r.subscribe(`subscription ` + name + `
monitoring
select <Hit url=URL/>
where URL extends "http://a.example/" and modified self
   or filename = "page.xml" and modified self
report when immediate`)
	}
	perSub := func(want int) {
		t.Helper()
		got := map[string]int{}
		for _, rep := range r.reports {
			got[rep.Subscription] += rep.Notifications
		}
		if got["D"] != want || got["E"] != want || len(got) != 2 {
			t.Errorf("notifications per subscription = %v, want %d each for D and E", got, want)
		}
	}
	r.commitXML("http://a.example/page.xml", "", "", `<a><v>1</v></a>`)
	if n := r.commitXML("http://a.example/page.xml", "", "", `<a><v>2</v></a>`); n != 2 {
		t.Fatalf("notifications = %d, want 2 (one per subscription, deduplicated)", n)
	}
	perSub(1)
	st := r.mgr.Stats()
	if st.ComplexEvents != 4 {
		t.Errorf("ComplexEvents = %d, want 4 (one per disjunct per subscription)", st.ComplexEvents)
	}
	// A document matching only the second disjunct still notifies.
	r.commitXML("http://b.example/page.xml", "", "", `<a><v>1</v></a>`)
	if n := r.commitXML("http://b.example/page.xml", "", "", `<a><v>2</v></a>`); n != 2 {
		t.Fatalf("second-disjunct notifications = %d, want 2", n)
	}
	perSub(2)
}

// TestMatchedQueriesShareOnePayload: fifty subscriptions with one select
// clause, matched by one page, get the one payload the plan built for the
// alert — the very node, not fifty copies — and nobody re-parents it.
func TestMatchedQueriesShareOnePayload(t *testing.T) {
	r := newRig(t)
	const subs = 50
	for i := 0; i < subs; i++ {
		r.subscribe(fmt.Sprintf(`subscription S%d
monitoring
select <Hit url=URL/>
where URL extends "http://s.example/" and modified self
report when immediate`, i))
	}
	r.commitXML("http://s.example/p.xml", "", "", `<a><v>1</v></a>`)
	if n := r.commitXML("http://s.example/p.xml", "", "", `<a><v>2</v></a>`); n != subs {
		t.Fatalf("notifications = %d, want %d", n, subs)
	}
	if len(r.reports) != subs {
		t.Fatalf("reports = %d, want %d", len(r.reports), subs)
	}
	shared := r.reports[0].Doc.Children[0]
	for _, rep := range r.reports {
		if len(rep.Doc.Children) != 1 || rep.Doc.Children[0] != shared {
			t.Fatalf("%s: report does not hold the shared payload: %s", rep.Subscription, rep.Doc.XML())
		}
	}
	if shared.Parent != nil {
		t.Errorf("the shared payload was re-parented under <%s>", shared.Parent.Data)
	}
	if got := shared.XML(); got != `<Hit url="http://s.example/p.xml"/>` {
		t.Errorf("payload = %s", got)
	}
}

func TestLiteralBuiltinVariables(t *testing.T) {
	r := newRig(t)
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
	r := newRig(t)
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
	r := newRig(t)
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
	r := newRig(t)
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
	r := newRig(t)
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

// SubscribeParsed registers an already-parsed subscription (no journal
// entry is written).
func (m *Manager) SubscribeParsed(sub *sublang.Subscription) error {
	return m.register("", sub, false)
}
