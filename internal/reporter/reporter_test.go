package reporter

import (
	"strings"
	"testing"
	"time"

	"xymon/internal/sublang"
	"xymon/internal/xmldom"
	"xymon/internal/xyquery"
)

type clock struct{ t time.Time }

func (c *clock) now() time.Time          { return c.t }
func (c *clock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newClock() *clock                   { return &clock{t: time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)} }
func notif(sub, label string) Notification {
	return Notification{Subscription: sub, Label: label, Element: xmldom.Element(label)}
}

func countSpec(n int) *sublang.ReportSpec {
	return &sublang.ReportSpec{When: []sublang.ReportTerm{{Kind: sublang.TermCount, Count: n}}}
}

func collectReports(t *testing.T, opts ...Option) (*Reporter, *[]*Report) {
	t.Helper()
	var reports []*Report
	r := New(DeliveryFunc(func(rep *Report) error {
		reports = append(reports, rep)
		return nil
	}), opts...)
	return r, &reports
}

func TestCountCondition(t *testing.T) {
	c := newClock()
	r, reports := collectReports(t, WithClock(c.now))
	r.Register("S", countSpec(2)) // notifications.count > 2
	for i := 0; i < 2; i++ {
		r.Notify(notif("S", "Page"))
	}
	if len(*reports) != 0 {
		t.Fatalf("report fired early: %d", len(*reports))
	}
	r.Notify(notif("S", "Page"))
	if len(*reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(*reports))
	}
	rep := (*reports)[0]
	if rep.Notifications != 3 || rep.Subscription != "S" {
		t.Errorf("report = %+v", rep)
	}
	if len(rep.Doc.Children) != 3 || rep.Doc.Data != "Report" {
		t.Errorf("report doc = %s", rep.Doc.XML())
	}
	if r.Buffered("S") != 0 {
		t.Error("buffer must be emptied after a report")
	}
}

func TestTagCountCondition(t *testing.T) {
	c := newClock()
	r, reports := collectReports(t, WithClock(c.now))
	r.Register("S", &sublang.ReportSpec{
		When: []sublang.ReportTerm{{Kind: sublang.TermTagCount, Tag: "UpdatedPage", Count: 1}},
	})
	r.Notify(notif("S", "Other"))
	r.Notify(notif("S", "Other"))
	r.Notify(notif("S", "UpdatedPage"))
	if len(*reports) != 0 {
		t.Fatal("tag count should not have fired yet")
	}
	r.Notify(notif("S", "UpdatedPage"))
	if len(*reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(*reports))
	}
	if (*reports)[0].Notifications != 4 {
		t.Errorf("report carries %d notifications, want 4 (all labels)", (*reports)[0].Notifications)
	}
}

func TestImmediateCondition(t *testing.T) {
	c := newClock()
	r, reports := collectReports(t, WithClock(c.now))
	r.Register("S", nil) // default immediate
	r.Notify(notif("S", "X"))
	r.Notify(notif("S", "X"))
	if len(*reports) != 2 {
		t.Errorf("reports = %d, want 2", len(*reports))
	}
}

func TestPeriodicCondition(t *testing.T) {
	c := newClock()
	r, reports := collectReports(t, WithClock(c.now))
	r.Register("S", &sublang.ReportSpec{
		When: []sublang.ReportTerm{{Kind: sublang.TermPeriodic, Freq: sublang.Weekly}},
	})
	r.Notify(notif("S", "X"))
	r.Tick()
	if len(*reports) != 0 {
		t.Fatal("periodic report fired before the period elapsed")
	}
	c.advance(8 * 24 * time.Hour)
	r.Tick()
	if len(*reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(*reports))
	}
	// Empty buffer: next period passes without a report.
	c.advance(8 * 24 * time.Hour)
	r.Tick()
	if len(*reports) != 1 {
		t.Errorf("empty periodic report was sent")
	}
}

func TestDisjunction(t *testing.T) {
	c := newClock()
	r, reports := collectReports(t, WithClock(c.now))
	r.Register("S", &sublang.ReportSpec{
		When: []sublang.ReportTerm{
			{Kind: sublang.TermCount, Count: 99},
			{Kind: sublang.TermTagCount, Tag: "Rare", Count: 0},
		},
	})
	r.Notify(notif("S", "Common"))
	if len(*reports) != 0 {
		t.Fatal("neither term holds yet")
	}
	r.Notify(notif("S", "Rare"))
	if len(*reports) != 1 {
		t.Errorf("reports = %d, want 1 (second disjunct)", len(*reports))
	}
}

func TestAtMostCountStopsRegistering(t *testing.T) {
	c := newClock()
	r, reports := collectReports(t, WithClock(c.now))
	r.Register("S", &sublang.ReportSpec{
		When:        []sublang.ReportTerm{{Kind: sublang.TermPeriodic, Freq: sublang.Daily}},
		AtMostCount: 3,
	})
	for i := 0; i < 10; i++ {
		r.Notify(notif("S", "X"))
	}
	if got := r.Buffered("S"); got != 3 {
		t.Errorf("buffered = %d, want 3 (atmost)", got)
	}
	c.advance(25 * time.Hour)
	r.Tick()
	if len(*reports) != 1 || (*reports)[0].Notifications != 3 {
		t.Fatalf("reports = %v", *reports)
	}
	// After the report, registration resumes.
	r.Notify(notif("S", "X"))
	if got := r.Buffered("S"); got != 1 {
		t.Errorf("buffered after report = %d, want 1", got)
	}
}

func TestAtMostFrequencyRateLimits(t *testing.T) {
	c := newClock()
	r, reports := collectReports(t, WithClock(c.now))
	r.Register("S", &sublang.ReportSpec{
		When:       []sublang.ReportTerm{{Kind: sublang.TermImmediate}},
		AtMostFreq: sublang.Weekly,
	})
	r.Notify(notif("S", "X"))
	if len(*reports) != 1 {
		t.Fatalf("first immediate report should pass, got %d", len(*reports))
	}
	r.Notify(notif("S", "X"))
	r.Notify(notif("S", "X"))
	if len(*reports) != 1 {
		t.Fatalf("rate limit breached: %d reports", len(*reports))
	}
	// The condition stays pending; once the window passes, Tick emits.
	c.advance(8 * 24 * time.Hour)
	r.Tick()
	if len(*reports) != 2 {
		t.Fatalf("pending report not emitted after window: %d", len(*reports))
	}
	if (*reports)[1].Notifications != 2 {
		t.Errorf("second report carries %d notifications, want 2", (*reports)[1].Notifications)
	}
}

func TestReportQueryPostProcessing(t *testing.T) {
	c := newClock()
	r, reports := collectReports(t, WithClock(c.now))
	spec := countSpec(0)
	q, err := xyquery.Parse(`select p/url from Report/UpdatedPage p`)
	if err != nil {
		t.Fatalf("parse query: %v", err)
	}
	spec.Query = q
	r.Register("S", spec)
	n := notif("S", "UpdatedPage")
	n.Element.AppendChild(xmldom.Element("url", xmldom.Text("http://x/")))
	r.Notify(n)
	if len(*reports) != 1 {
		t.Fatalf("reports = %d", len(*reports))
	}
	out := (*reports)[0].Doc.XML()
	if !strings.Contains(out, "<url>http://x/</url>") || strings.Contains(out, "UpdatedPage") {
		t.Errorf("report query not applied: %s", out)
	}
}

func TestFollowVirtualSubscription(t *testing.T) {
	c := newClock()
	r, reports := collectReports(t, WithClock(c.now))
	r.Register("Owner", countSpec(0))
	if err := r.Follow("Virtual", "Owner"); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	if err := r.Follow("V2", "Missing"); err == nil {
		t.Error("Follow of unknown target should fail")
	}
	r.Notify(notif("Owner", "X"))
	if len(*reports) != 2 {
		t.Fatalf("reports = %d, want 2 (owner + virtual)", len(*reports))
	}
	subs := map[string]bool{}
	for _, rep := range *reports {
		subs[rep.Subscription] = true
	}
	if !subs["Owner"] || !subs["Virtual"] {
		t.Errorf("recipients = %v", subs)
	}
}

func TestArchive(t *testing.T) {
	c := newClock()
	r, _ := collectReports(t, WithClock(c.now))
	r.Register("S", &sublang.ReportSpec{
		When:    []sublang.ReportTerm{{Kind: sublang.TermImmediate}},
		Archive: sublang.Monthly,
	})
	r.Notify(notif("S", "X"))
	if got := len(r.Archived("S")); got != 1 {
		t.Fatalf("archived = %d, want 1", got)
	}
	c.advance(40 * 24 * time.Hour)
	r.Tick()
	if got := len(r.Archived("S")); got != 0 {
		t.Errorf("archived after expiry = %d, want 0", got)
	}
}

func TestUnregister(t *testing.T) {
	c := newClock()
	r, reports := collectReports(t, WithClock(c.now))
	r.Register("S", countSpec(0))
	r.Unregister("S")
	r.Notify(notif("S", "X"))
	if len(*reports) != 0 {
		t.Error("unregistered subscription must not report")
	}
	// Unregistering a follower must detach it.
	r.Register("T", countSpec(0))
	r.Follow("F", "T")
	r.Unregister("F")
	r.Notify(notif("T", "X"))
	if len(*reports) != 1 {
		t.Errorf("reports = %d, want 1 (follower detached)", len(*reports))
	}
}

func TestNotifyBatch(t *testing.T) {
	c := newClock()
	r, reports := collectReports(t, WithClock(c.now))
	// Many subscriptions so the batch spans several stripes.
	subs := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	for _, s := range subs {
		r.Register(s, nil) // immediate
	}
	var batch []Notification
	for _, s := range subs {
		batch = append(batch, notif(s, "Page"))
	}
	r.NotifyBatch(batch)
	if len(*reports) != len(subs) {
		t.Fatalf("reports = %d, want %d", len(*reports), len(subs))
	}
	got := make(map[string]bool)
	for _, rep := range *reports {
		got[rep.Subscription] = true
	}
	for _, s := range subs {
		if !got[s] {
			t.Errorf("no report for %q", s)
		}
	}
}

func TestNotifyBatchCountFiresMidBatch(t *testing.T) {
	c := newClock()
	r, reports := collectReports(t, WithClock(c.now))
	r.Register("S", countSpec(1)) // fires at the 2nd notification
	r.NotifyBatch([]Notification{
		notif("S", "X"), notif("S", "X"), notif("S", "X"),
	})
	// The 2nd notification fires a 2-element report; the 3rd stays buffered.
	if len(*reports) != 1 || (*reports)[0].Notifications != 2 {
		t.Fatalf("reports = %v", *reports)
	}
	if r.Buffered("S") != 1 {
		t.Errorf("buffered = %d, want 1", r.Buffered("S"))
	}
}

func TestNotifyBatchUnknownAndEmpty(t *testing.T) {
	r, reports := collectReports(t)
	r.NotifyBatch(nil)
	r.NotifyBatch([]Notification{notif("ghost", "X")})
	if len(*reports) != 0 {
		t.Fatalf("reports = %d, want 0", len(*reports))
	}
}
