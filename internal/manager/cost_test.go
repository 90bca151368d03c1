package manager

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"xymon/internal/alerter"
	"xymon/internal/core"
	"xymon/internal/sublang"
)

func mustParse(t *testing.T, src string) *sublang.Subscription {
	t.Helper()
	sub, err := sublang.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return sub
}

func TestEstimateOrdersSubscriptionsByCost(t *testing.T) {
	cheap := Estimate(mustParse(t, `subscription Cheap
monitoring select <P/> where URL = "http://one.example/page.xml" and modified self
report when immediate`))
	prefix := Estimate(mustParse(t, `subscription Prefix
monitoring select <P/> where URL extends "http://site.example/" and modified self
report when immediate`))
	broad := Estimate(mustParse(t, `subscription Broad
monitoring select <P/> where domain = "biology" and modified self
report when immediate`))
	if !(cheap.Total() < prefix.Total() && prefix.Total() < broad.Total()) {
		t.Errorf("cost ordering broken: cheap=%.1f prefix=%.1f broad=%.1f",
			cheap.Total(), prefix.Total(), broad.Total())
	}
	// Continuous queries add per-day cost; hourly is dearer than weekly.
	hourly := Estimate(mustParse(t, `subscription H
continuous Q select a from b/c a when hourly
report when immediate`))
	weekly := Estimate(mustParse(t, `subscription W
continuous Q select a from b/c a when weekly
report when immediate`))
	if hourly.PerDay <= weekly.PerDay {
		t.Errorf("hourly %.1f/day should exceed weekly %.1f/day", hourly.PerDay, weekly.PerDay)
	}
}

func newCostRig(t *testing.T, maxCost, inhibitRate float64) *rig {
	t.Helper()
	r := newRig(t)
	// Rebuild the manager with budgets.
	r.mgr = New(Config{
		Matcher:     core.NewMatcher(),
		Pipeline:    alerter.NewPipeline(),
		Reporter:    r.rep,
		Trigger:     r.eng,
		Clock:       func() time.Time { return r.clock },
		MaxCost:     maxCost,
		InhibitRate: inhibitRate,
	})
	return r
}

func TestMaxCostRejectsExpensiveSubscription(t *testing.T) {
	r := newCostRig(t, 5000, 0)
	// Cheap: exact URL.
	if _, err := r.mgr.Subscribe(`subscription Cheap
monitoring select <P/> where URL = "http://one.example/p.xml" and modified self
report when immediate`); err != nil {
		t.Fatalf("cheap subscription rejected: %v", err)
	}
	// Expensive: whole-domain monitoring.
	_, err := r.mgr.Subscribe(`subscription Broad
monitoring select <P/> where domain = "biology" and modified self
report when immediate`)
	if !errors.Is(err, ErrTooExpensive) {
		t.Errorf("broad subscription = %v, want ErrTooExpensive", err)
	}
}

func TestAPosterioriInhibition(t *testing.T) {
	r := newCostRig(t, 0, 0.5) // more than one notification per two documents is too chatty
	if _, err := r.mgr.Subscribe(`subscription Chatty
monitoring select <Hit url=URL/>
where URL extends "http://noisy.example/" and modified self
report when notifications.count > 100000`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if _, err := r.mgr.Subscribe(`subscription Quiet
monitoring select <Q url=URL/>
where URL = "http://quiet.example/only.xml" and modified self
report when notifications.count > 100000`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	// Every document matches Chatty: after the observation window it must
	// be suspended.
	url := "http://noisy.example/p.xml"
	r.commitXML(url, "", "", `<a><v>0</v></a>`)
	for v := 1; v <= 200; v++ {
		r.commitXML(url, "", "", fmt.Sprintf(`<a><v>%d</v></a>`, v))
	}
	suspended := r.mgr.Stats().Suspended
	if len(suspended) != 1 || suspended[0] != "Chatty" {
		t.Fatalf("Suspended = %v, want [Chatty]", suspended)
	}
	st := r.mgr.Stats()
	if st.Suspensions != 1 {
		t.Errorf("Suspensions = %d", st.Suspensions)
	}
	// Suspended: no more notifications.
	before := st.Notifications
	r.commitXML(url, "", "", `<a><v>final</v></a>`)
	if after := r.mgr.Stats().Notifications; after != before {
		t.Errorf("suspended subscription still notified: %d -> %d", before, after)
	}
	// Resume restores matching.
	if err := r.mgr.Resume("Chatty"); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if n := r.commitXML(url, "", "", `<a><v>resumed</v></a>`); n != 1 {
		t.Errorf("resumed subscription notifications = %d, want 1", n)
	}
	// Resume errors.
	if err := r.mgr.Resume("Quiet"); !errors.Is(err, ErrNotSuspended) {
		t.Errorf("Resume(not suspended) = %v", err)
	}
	if err := r.mgr.Resume("nope"); !errors.Is(err, ErrUnknownSubscription) {
		t.Errorf("Resume(unknown) = %v", err)
	}
}

func TestUnsubscribeSuspended(t *testing.T) {
	r := newCostRig(t, 0, 0.1)
	if _, err := r.mgr.Subscribe(`subscription Chatty
monitoring select <Hit/>
where URL extends "http://noisy.example/" and modified self
report when notifications.count > 100000`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	url := "http://noisy.example/p.xml"
	r.commitXML(url, "", "", `<a><v>0</v></a>`)
	for v := 1; v <= 200; v++ {
		r.commitXML(url, "", "", fmt.Sprintf(`<a><v>%d</v></a>`, v))
	}
	if len(r.mgr.Stats().Suspended) != 1 {
		t.Fatal("not suspended")
	}
	// Suspension keeps the compiled plan (Resume needs it); only the
	// unsubscription releases it.
	if len(r.mgr.plans) != 1 {
		t.Errorf("%d interned plans while suspended, want 1", len(r.mgr.plans))
	}
	if err := r.mgr.Unsubscribe("Chatty"); err != nil {
		t.Fatalf("Unsubscribe of suspended: %v", err)
	}
	st := r.mgr.Stats()
	if st.Subscriptions != 0 || st.AtomicEvents != 0 || len(r.mgr.plans) != 0 {
		t.Errorf("stats after unsubscribe = %+v, %d interned plans", st, len(r.mgr.plans))
	}
}

// failingMatcher is a core.Matcher whose Adds fail once ok of them have
// succeeded.
type failingMatcher struct {
	*core.Matcher
	ok int
}

func (f *failingMatcher) Add(id core.ComplexID, events []core.Event) error {
	if f.ok == 0 {
		return errors.New("matcher full")
	}
	f.ok--
	return f.Matcher.Add(id, events)
}

// TestFailingMatcherAdd holds the Manager whole over a Matcher whose Add
// fails: suspension and Resume never call Add, and a Subscribe that fails
// part-way leaves nothing behind.
func TestFailingMatcherAdd(t *testing.T) {
	rig := func(t *testing.T, ok int) *rig {
		r := newRig(t)
		r.mgr = New(Config{
			Matcher:     &failingMatcher{Matcher: core.NewMatcher(), ok: ok},
			Pipeline:    alerter.NewPipeline(),
			Reporter:    r.rep,
			Trigger:     r.eng,
			Clock:       func() time.Time { return r.clock },
			InhibitRate: 0.5,
		})
		return r
	}
	t.Run("resume", func(t *testing.T) {
		r := rig(t, 1)
		if _, err := r.mgr.Subscribe(`subscription Chatty
monitoring select <Hit url=URL/>
where URL extends "http://noisy.example/" and modified self
report when notifications.count > 100000`); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		url := "http://noisy.example/p.xml"
		for v := 0; v <= 200; v++ {
			r.commitXML(url, "", "", fmt.Sprintf(`<a><v>%d</v></a>`, v))
		}
		if s := r.mgr.Stats().Suspended; len(s) != 1 {
			t.Fatalf("Suspended = %v, want [Chatty]", s)
		}
		if err := r.mgr.Resume("Chatty"); err != nil {
			t.Fatalf("Resume: %v", err)
		}
		if n := r.commitXML(url, "", "", `<a><v>resumed</v></a>`); n != 1 {
			t.Errorf("resumed subscription notifications = %d, want 1", n)
		}
	})
	t.Run("register", func(t *testing.T) {
		r := rig(t, 1)
		_, err := r.mgr.Subscribe(`subscription Two
monitoring select <Hit url=URL/>
where URL extends "http://a.example/" and modified self
   or URL extends "http://b.example/" and modified self
report when immediate`)
		if err == nil {
			t.Fatal("Subscribe succeeded over a failing Add")
		}
		st := r.mgr.Stats()
		if st.Subscriptions != 0 || st.AtomicEvents != 0 || st.ComplexEvents != 0 || len(r.mgr.plans) != 0 {
			t.Errorf("failed Subscribe left %+v, %d interned plans", st, len(r.mgr.plans))
		}
	})
}
