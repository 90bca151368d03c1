package crawler

import (
	"errors"
	"strings"
	"testing"
	"time"

	"xymon/internal/faults"
	"xymon/internal/webgen"
)

// TestCommitErrorCountedAndRetried is the regression test for the silent
// commit-error drop: a failed warehouse commit must show up in Stats,
// reach the error hook, and reschedule the page with backoff instead of
// waiting out the whole refresh period.
func TestCommitErrorCountedAndRetried(t *testing.T) {
	r := newRig()
	site := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://flaky.example", Pages: 1, Seed: 3})
	r.crawl.AddSite(site)
	r.crawl.Faults = faults.New(11)
	r.crawl.Faults.Enable(faults.Rule{Point: faults.PointCommit, Mode: faults.ModeError, Count: 1})
	var hookURL string
	var hookErr error
	r.crawl.OnError = func(url string, err error) { hookURL, hookErr = url, err }

	if n := r.crawl.Step(); n != 1 {
		t.Fatalf("Step fetched %d, want 1", n)
	}
	st := r.crawl.Stats()
	if st.CommitErrors != 1 || st.Retries != 1 || st.Fetches != 0 {
		t.Fatalf("stats after failed commit = %+v", st)
	}
	if len(r.docs) != 0 {
		t.Fatal("failed commit reached the sink")
	}
	if !errors.Is(hookErr, faults.ErrInjected) || !strings.Contains(hookURL, "flaky.example") {
		t.Errorf("hook saw (%q, %v)", hookURL, hookErr)
	}
	// The retry is scheduled with backoff, far sooner than the 7-day
	// refresh period: within RetryBase±25%.
	url := site.XMLURLs()[0]
	if got := r.crawl.Fails(url); got != 1 {
		t.Errorf("Fails = %d, want 1", got)
	}
	r.clock = r.clock.Add(2 * r.crawl.RetryBase)
	if n := r.crawl.Step(); n != 1 {
		t.Fatalf("retry Step fetched %d, want 1", n)
	}
	st = r.crawl.Stats()
	if st.Fetches != 1 || st.New != 1 {
		t.Errorf("stats after retry = %+v", st)
	}
	if r.crawl.Fails(url) != 0 {
		t.Errorf("Fails after recovery = %d, want 0", r.crawl.Fails(url))
	}
	if len(r.docs) != 1 {
		t.Errorf("sink got %d docs after recovery, want 1", len(r.docs))
	}
}

// TestFetchBackoffGrowsAndCaps drives repeated fetch failures and checks
// the rescheduling delay grows exponentially and respects RetryMax.
func TestFetchBackoffGrowsAndCaps(t *testing.T) {
	r := newRig()
	site := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://down.example", Pages: 1, Seed: 4})
	r.crawl.AddSite(site)
	r.crawl.BreakerThreshold = 0 // isolate backoff from the breaker
	r.crawl.RetryBase = time.Minute
	r.crawl.RetryMax = 10 * time.Minute
	r.crawl.Faults = faults.New(12)
	r.crawl.Faults.Enable(faults.Rule{Point: faults.PointFetch, Mode: faults.ModeError})

	url := site.XMLURLs()[0]
	var delays []time.Duration
	for i := 0; i < 8; i++ {
		if n := r.crawl.Step(); n != 1 {
			t.Fatalf("attempt %d: Step fetched %d", i, n)
		}
		d := r.crawl.pages[url].nextDue.Sub(r.clock)
		delays = append(delays, d)
		r.clock = r.clock.Add(d)
	}
	// Deterministic jitter keeps each delay within ±25% of the ideal
	// base·2ⁿ⁻¹, and the cap holds.
	ideal := time.Minute
	for i, d := range delays {
		want := ideal
		if want > r.crawl.RetryMax {
			want = r.crawl.RetryMax
		}
		lo := time.Duration(float64(want) * 0.75)
		hi := time.Duration(float64(want) * 1.25)
		if hi > r.crawl.RetryMax {
			hi = r.crawl.RetryMax
		}
		if d < lo || d > hi {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", i+1, d, lo, hi)
		}
		ideal *= 2
	}
	if st := r.crawl.Stats(); st.FetchErrors != 8 || st.Retries != 8 {
		t.Errorf("stats = %+v", st)
	}
}

// TestBackoffDeterminism pins that two identical runs schedule identical
// retries (the jitter is a pure function, not shared rng state).
func TestBackoffDeterminism(t *testing.T) {
	if a, b := retryBackoff(time.Minute, time.Hour, 3, "http://x/p"), retryBackoff(time.Minute, time.Hour, 3, "http://x/p"); a != b {
		t.Errorf("same inputs, different backoff: %v vs %v", a, b)
	}
	if a, b := retryBackoff(time.Minute, time.Hour, 3, "http://x/p"), retryBackoff(time.Minute, time.Hour, 3, "http://x/q"); a == b {
		t.Errorf("different URLs, identical jitter %v — pages would stampede together", a)
	}
}

// TestCircuitBreakerDefersAndProbes opens a site's breaker through
// consecutive failures, checks that due pages are deferred while it is
// open, that exactly one probe goes through after the cooldown, and that
// a successful probe closes it for the whole site.
func TestCircuitBreakerDefersAndProbes(t *testing.T) {
	r := newRig()
	site := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://broken.example", Pages: 4, Seed: 5})
	healthy := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://fine.example", Pages: 2, Seed: 6})
	r.crawl.AddSite(site)
	r.crawl.AddSite(healthy)
	r.crawl.BreakerThreshold = 3
	r.crawl.BreakerCooldown = time.Hour
	r.crawl.RetryBase = time.Minute
	r.crawl.Faults = faults.New(13)
	r.crawl.Faults.Enable(faults.Rule{Point: faults.PointFetch, Mode: faults.ModeError, Match: "broken.example"})

	// First step: all 4 broken pages fail; the third failure trips the
	// breaker mid-step, deferring the fourth page's fetch? No — all four
	// were already admitted; the breaker gates the NEXT step.
	if n := r.crawl.Step(); n != 6 {
		t.Fatalf("Step fetched %d, want 6", n)
	}
	if !r.crawl.BreakerOpen("http://broken.example/") {
		t.Fatal("breaker should be open after 4 consecutive failures")
	}
	if r.crawl.BreakerOpen("http://fine.example/") {
		t.Fatal("healthy site's breaker opened")
	}

	// While open: due pages of the broken site are deferred.
	r.clock = r.clock.Add(10 * time.Minute) // past the retry backoff, inside the cooldown
	if n := r.crawl.Step(); n != 0 {
		t.Fatalf("Step during open breaker fetched %d, want 0", n)
	}
	if st := r.crawl.Stats(); st.Deferred == 0 {
		t.Error("no pages counted as deferred")
	}

	// After the cooldown: exactly one probe page goes through; it fails,
	// so the breaker re-opens and the rest stay deferred.
	r.clock = r.clock.Add(time.Hour)
	if n := r.crawl.Step(); n != 1 {
		t.Fatalf("half-open Step fetched %d, want 1 probe", n)
	}
	if !r.crawl.BreakerOpen("http://broken.example/") {
		t.Fatal("failed probe should re-open the breaker")
	}

	// Clear the fault; after another cooldown the probe succeeds, the
	// breaker closes, and the next step fetches the remaining pages.
	r.crawl.Faults.Clear()
	r.clock = r.clock.Add(time.Hour + time.Minute)
	if n := r.crawl.Step(); n != 1 {
		t.Fatalf("recovery probe Step fetched %d, want 1", n)
	}
	if r.crawl.BreakerOpen("http://broken.example/") {
		t.Fatal("breaker should close after a successful probe")
	}
	r.clock = r.clock.Add(time.Minute)
	if n := r.crawl.Step(); n == 0 {
		t.Fatal("remaining pages should be fetched after the breaker closed")
	}
	st := r.crawl.Stats()
	if st.BreakerOpens == 0 || st.BreakerCloses != 1 {
		t.Errorf("breaker stats = %+v", st)
	}
}

// TestFetchFaultInjection checks the fetch fault point alone: failures
// are counted as FetchErrors and never reach the warehouse or the sink.
func TestFetchFaultInjection(t *testing.T) {
	r := newRig()
	site := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://s.example", Pages: 2, Seed: 7})
	r.crawl.AddSite(site)
	r.crawl.Faults = faults.New(14)
	r.crawl.Faults.Enable(faults.Rule{Point: faults.PointFetch, Mode: faults.ModeError, Count: 1})
	if n := r.crawl.Step(); n != 2 {
		t.Fatalf("Step fetched %d", n)
	}
	st := r.crawl.Stats()
	if st.FetchErrors != 1 || st.Fetches != 1 {
		t.Errorf("stats = %+v, want 1 error + 1 success", st)
	}
	if r.store.Len() != 1 {
		t.Errorf("store has %d pages, want 1", r.store.Len())
	}
}

// BreakerOpen reports whether the circuit breaker of the site with the
// given base URL is currently open.
func (c *Crawler) BreakerOpen(baseURL string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	br := c.breakers[baseURL]
	return br != nil && br.open
}
