package manager

import (
	"fmt"
	"sync"
	"testing"

	"xymon/internal/alerter"
	"xymon/internal/core"
	"xymon/internal/reporter"
	"xymon/internal/trigger"
	"xymon/internal/warehouse"
)

// TestManagerStress drives a full manager — real clocks, live reporter
// and trigger engine — from concurrent subscribers, document pushers and
// tickers at once. It is the integration-level race probe for the lock
// discipline xyvet enforces statically: deliveries and trigger sinks run
// outside the component locks, so everything here may overlap. Run under
// -race; CI does.
func TestManagerStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		subscribers = 3
		pushers     = 3
		subIters    = 60
		pushIters   = 120
	)

	var repMu sync.Mutex
	var delivered int
	rep := reporter.New(reporter.DeliveryFunc(func(*reporter.Report) error {
		repMu.Lock()
		delivered++
		repMu.Unlock()
		return nil
	}))
	store := warehouse.NewStore()
	eng := trigger.New(store.AllRoots, func(res trigger.Result) {
		rep.Notify(reporter.Notification{
			Subscription: res.Subscription, Label: res.Query, Element: res.Element, Time: res.Time, Mark: true,
		})
	})
	mgr := New(Config{
		Matcher:  core.NewMatcher(),
		Pipeline: alerter.NewPipeline(),
		Reporter: rep,
		Trigger:  eng,
	})

	// One subscription registered before any goroutine starts: without it
	// the scheduler can legally drain every push before the first
	// subscriber registers, and the delivered-count assertion flakes.
	if _, err := mgr.Subscribe(`subscription Stress_warm
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://stress0.example/" and modified self
report when immediate
`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})

	for s := 0; s < subscribers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < subIters; i++ {
				name := fmt.Sprintf("Stress_%d_%d", s, i)
				src := fmt.Sprintf(`subscription %s
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://stress%d.example/" and modified self
report when immediate
`, name, s)
				if _, err := mgr.Subscribe(src); err != nil {
					t.Errorf("Subscribe: %v", err)
					return
				}
				if i%2 == 1 {
					if err := mgr.Unsubscribe(name); err != nil {
						t.Errorf("Unsubscribe: %v", err)
						return
					}
				}
			}
		}(s)
	}
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < pushIters; i++ {
				url := fmt.Sprintf("http://stress%d.example/page%d.xml", p, i%7)
				xml := fmt.Sprintf(`<catalog><product id="p%d"><price>%d</price></product></catalog>`, i, 10+i)
				res, err := store.CommitXMLBytes(url, "", "stress", []byte(xml))
				if err != nil {
					t.Errorf("CommitXMLBytes: %v", err)
					return
				}
				mgr.ProcessDoc(&alerter.Doc{Meta: res.Meta, Status: res.Status, Doc: res.Doc, Delta: res.Delta})
			}
		}(p)
	}
	tickerDone := make(chan struct{})
	go func() {
		defer close(tickerDone)
		for {
			select {
			case <-done:
				return
			default:
			}
			rep.Tick()
			eng.Tick()
			mgr.Stats()
			mgr.Subscriptions()
		}
	}()

	wg.Wait()
	close(done)
	<-tickerDone

	repMu.Lock()
	defer repMu.Unlock()
	if delivered == 0 {
		t.Error("no report was delivered during the stress run")
	}
}

// TestConcurrentProcessDocChurn focuses the race probe on the de-contended
// hot path: document pushers hammer ProcessDoc — pooled scratch, atomic
// counters, batched reporter delivery — while churners add and remove the
// same subscriptions over and over. Unlike TestManagerStress it pins exact
// counter arithmetic: every ProcessDoc call must be counted exactly once
// and every alert be either sent or weak-suppressed. It runs over
// core.Matcher and over the naive scan.
func TestConcurrentProcessDocChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for _, mk := range seamMatchers {
		t.Run(mk.name, func(t *testing.T) { concurrentProcessDocChurn(t, mk.new()) })
	}
}

func concurrentProcessDocChurn(t *testing.T, matcher Matcher) {
	const (
		churners  = 2
		pushers   = 4
		churns    = 80
		pushIters = 150
	)

	rep := reporter.New(nil)
	store := warehouse.NewStore()
	eng := trigger.New(store.AllRoots, func(trigger.Result) {})
	mgr := New(Config{
		Matcher:  matcher,
		Pipeline: alerter.NewPipeline(),
		Reporter: rep,
		Trigger:  eng,
	})

	// Pre-commit the documents so pushers only exercise ProcessDoc.
	docs := make([]*alerter.Doc, 0, 32)
	for i := 0; i < 32; i++ {
		url := fmt.Sprintf("http://churn.example/page%d.xml", i)
		xml := fmt.Sprintf(`<catalog><product id="p%d"><price>%d</price></product></catalog>`, i, i)
		res, err := store.CommitXMLBytes(url, "", "churn", []byte(xml))
		if err != nil {
			t.Fatalf("CommitXMLBytes: %v", err)
		}
		docs = append(docs, &alerter.Doc{Meta: res.Meta, Status: res.Status, Doc: res.Doc, Delta: res.Delta})
	}

	var wg sync.WaitGroup
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < churns; i++ {
				name := fmt.Sprintf("Churn_%d_%d", c, i)
				src := fmt.Sprintf(`subscription %s
monitoring
select <Price url=URL/>
where URL extends "http://churn.example/" and modified self
report when immediate
`, name)
				if _, err := mgr.Subscribe(src); err != nil {
					t.Errorf("Subscribe: %v", err)
					return
				}
				if err := mgr.Unsubscribe(name); err != nil {
					t.Errorf("Unsubscribe: %v", err)
					return
				}
			}
		}(c)
	}
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < pushIters; i++ {
				mgr.ProcessDoc(docs[(p*pushIters+i)%len(docs)])
			}
		}(p)
	}
	wg.Wait()

	st := mgr.Stats()
	if want := uint64(pushers * pushIters); st.DocsProcessed != want {
		t.Errorf("DocsProcessed = %d, want %d", st.DocsProcessed, want)
	}
	if st.AlertsSent+st.WeakSuppress > st.DocsProcessed {
		t.Errorf("AlertsSent+WeakSuppress = %d exceeds DocsProcessed = %d",
			st.AlertsSent+st.WeakSuppress, st.DocsProcessed)
	}
}
