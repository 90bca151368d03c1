// Package crawler simulates the acquisition and refresh module of Xyleme
// (Section 2.1): it decides when to (re)read each page of a set of
// synthetic sites, fetches the due pages, commits them to the warehouse
// (which detects their change status and computes deltas) and hands the
// resulting documents to the subscription system. Refresh statements from
// subscriptions boost the refresh rate of the pages they mention, which is
// how the paper's current implementation honours them (Section 2.2).
package crawler

import (
	"sort"
	"sync"
	"time"

	"xymon/internal/alerter"
	"xymon/internal/faults"
	"xymon/internal/sublang"
	"xymon/internal/warehouse"
	"xymon/internal/webgen"
	"xymon/internal/xmldom"
)

// Sink receives each fetched document after it is committed to the
// warehouse — normally the subscription manager's ProcessDoc.
type Sink func(*alerter.Doc)

// Stats counts crawl activity.
type Stats struct {
	Fetches   uint64
	New       uint64
	Updated   uint64
	Unchanged uint64
	Deleted   uint64
	// Discovered counts pages found by following links rather than being
	// registered up front.
	Discovered uint64
	// FetchErrors and CommitErrors count failed page fetches and failed
	// warehouse commits; each one schedules a retry (counted in Retries)
	// with capped exponential backoff.
	FetchErrors  uint64
	CommitErrors uint64
	Retries      uint64
	// Deferred counts due pages skipped because their site's circuit
	// breaker was open.
	Deferred uint64
	// Skipped counts fetched XML pages the ingest gate rejected before
	// parsing: not version-tracked and unable to raise any event.
	Skipped uint64
	// BreakerOpens / BreakerCloses count circuit-breaker transitions.
	BreakerOpens  uint64
	BreakerCloses uint64
	// Pages is the number of known pages: the crawl frontier.
	Pages int
}

type pageState struct {
	url     string
	site    *webgen.Site
	html    bool
	period  time.Duration // refresh period
	pinned  bool          // period fixed by a refresh hint; no adaptation
	nextDue time.Time
	// changeEvery is how often the remote page advances a version.
	changeEvery time.Duration
	birth       time.Time
	// fails counts consecutive fetch/commit failures; it drives the
	// exponential retry backoff and resets on the first success.
	fails int
}

// siteBreaker is the per-site circuit breaker (Section 2.1's acquisition
// module faces whole sites going unreachable, not single pages): after
// BreakerThreshold consecutive failures anywhere on a site, every due page
// of that site is deferred until the cooldown passes; then a single page
// is let through as a probe (half-open), and its outcome closes or
// re-opens the breaker.
type siteBreaker struct {
	fails     int
	open      bool
	openUntil time.Time
}

// Crawler drives the fetch loop over a virtual clock.
type Crawler struct {
	mu    sync.Mutex
	store *warehouse.Store
	sink  Sink
	clock func() time.Time
	pages map[string]*pageState
	// hints remembers every refresh hint ever applied (smallest period per
	// URL), so a page that enters the schedule later — AddSite, discover —
	// starts with its hint. Hints are never retracted, as a pinned page
	// never was.
	hints    map[string]time.Duration
	sites    []*webgen.Site
	breakers map[string]*siteBreaker // by site base URL
	stats    Stats

	// DefaultPeriod is the refresh period of pages with no hints.
	DefaultPeriod time.Duration
	// ChangeEvery is how often synthetic pages change remotely.
	ChangeEvery time.Duration
	// Adaptive enables change-rate estimation: pages found updated are
	// revisited sooner, unchanged pages decay toward MaxPeriod — the
	// "estimated change rate" criterion of the acquisition module
	// (Section 2.1 and [19]). Refresh-hinted pages are never slowed down.
	Adaptive bool
	// MinPeriod / MaxPeriod bound the adaptive refresh period.
	MinPeriod time.Duration
	MaxPeriod time.Duration

	// Gate, when set, decides from the serialized bytes whether a fetched
	// XML page is worth parsing and committing — the streaming pre-filter
	// seam. Returning false drops the page before any DOM work (counted
	// in Stats.Skipped). Nil commits everything. Set before crawling.
	Gate func(url, dtd, domain string, data []byte) bool
	// Faults, when set, injects failures at the fetch and commit seams
	// (chaos tests). Nil never faults. Set before crawling.
	Faults *faults.Injector
	// OnError observes every fetch/commit failure (after the stats are
	// updated and the retry is scheduled, outside the crawler's lock).
	// Set before crawling.
	OnError func(url string, err error)
	// RetryBase / RetryMax bound the exponential retry backoff of a
	// failing page: attempt n waits base·2ⁿ⁻¹ (±25% deterministic
	// jitter), capped at RetryMax. Retries are scheduled on the virtual
	// clock by re-arming nextDue — the crawler never sleeps.
	RetryBase time.Duration
	RetryMax  time.Duration
	// BreakerThreshold consecutive failures on one site open its circuit
	// breaker for BreakerCooldown (then a single probe page half-opens
	// it). Zero threshold disables the breaker.
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

// New returns a crawler committing to store and dispatching to sink.
func New(store *warehouse.Store, sink Sink, clock func() time.Time) *Crawler {
	if clock == nil {
		clock = time.Now
	}
	return &Crawler{
		store:            store,
		sink:             sink,
		clock:            clock,
		pages:            make(map[string]*pageState),
		hints:            make(map[string]time.Duration),
		breakers:         make(map[string]*siteBreaker),
		DefaultPeriod:    7 * 24 * time.Hour,
		ChangeEvery:      24 * time.Hour,
		MinPeriod:        time.Hour,
		MaxPeriod:        30 * 24 * time.Hour,
		RetryBase:        time.Minute,
		RetryMax:         6 * time.Hour,
		BreakerThreshold: 5,
		BreakerCooldown:  time.Hour,
	}
}

// AddSite registers every page of a synthetic site; pages become due
// immediately (discovery fetch).
func (c *Crawler) AddSite(site *webgen.Site) {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sites = append(c.sites, site)
	for _, url := range site.XMLURLs() {
		c.addPageLocked(&pageState{
			url: url, site: site, period: c.DefaultPeriod,
			nextDue: now, changeEvery: c.ChangeEvery, birth: now,
		})
	}
	for _, url := range site.HTMLURLs() {
		c.addPageLocked(&pageState{
			url: url, site: site, html: true, period: c.DefaultPeriod,
			nextDue: now, changeEvery: c.ChangeEvery, birth: now,
		})
	}
}

// addPageLocked enters p into the schedule with the refresh hint its URL
// was given before it was known, if any.
func (c *Crawler) addPageLocked(p *pageState) {
	if d, ok := c.hints[p.url]; ok && d < p.period {
		p.period = d
		p.pinned = true
	}
	c.pages[p.url] = p
}

// SetSink replaces the document sink — e.g. to route fetched documents
// through a flow.Runner worker pool instead of processing them inline.
func (c *Crawler) SetSink(sink Sink) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sink = sink
}

// ApplyRefreshHints tightens the refresh period of hinted pages — the
// paper's "subscriptions influence the refreshing of pages by adding
// importance to the pages they explicitly mention". The hints are
// remembered, so applying each subscription's own hints as it arrives
// equals re-applying the whole base's: a hinted page not known yet gets its
// period when it enters the schedule.
func (c *Crawler) ApplyRefreshHints(hints map[string]sublang.Frequency) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for url, freq := range hints {
		d := freq.Duration()
		if cur, ok := c.hints[url]; !ok || d < cur {
			c.hints[url] = d
		}
		if p, ok := c.pages[url]; ok && d < p.period {
			p.period = d
			p.pinned = true
		}
	}
}

// remoteVersion computes how many times the page changed since discovery.
func (p *pageState) remoteVersion(now time.Time) int {
	if p.changeEvery <= 0 {
		return 1
	}
	return 1 + int(now.Sub(p.birth)/p.changeEvery)
}

// Step fetches every page whose refresh time has come, in URL order for
// determinism, and returns how many pages were fetched. Pages of a site
// whose circuit breaker is open are deferred (their nextDue stays in the
// past, so the next Step reconsiders them); once the cooldown passes, the
// first due page of the site goes through as the half-open probe.
func (c *Crawler) Step() int {
	now := c.clock()
	c.mu.Lock()
	var candidates []*pageState
	for _, p := range c.pages {
		if !p.nextDue.After(now) {
			candidates = append(candidates, p)
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].url < candidates[j].url })
	var due []*pageState
	var probing map[string]bool
	for _, p := range candidates {
		base := p.site.Spec().BaseURL
		if br := c.breakers[base]; br != nil && br.open {
			if now.Before(br.openUntil) || probing[base] {
				c.stats.Deferred++
				continue
			}
			if probing == nil {
				probing = make(map[string]bool)
			}
			probing[base] = true
		}
		p.nextDue = now.Add(p.period)
		due = append(due, p)
	}
	c.mu.Unlock()

	for _, p := range due {
		c.fetch(p, now)
	}
	return len(due)
}

// FetchAll forces an immediate fetch of every page, regardless of
// schedule; the crawl benchmarks and tests use it to drive deterministic
// rounds.
func (c *Crawler) FetchAll() int { //xyvet:ignore testonly drives deterministic crawl rounds in benchmarks and tests
	now := c.clock()
	c.mu.Lock()
	all := make([]*pageState, 0, len(c.pages))
	for _, p := range c.pages {
		p.nextDue = now.Add(p.period)
		all = append(all, p)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].url < all[j].url })
	c.mu.Unlock()
	for _, p := range all {
		c.fetch(p, now)
	}
	return len(all)
}

func (c *Crawler) fetch(p *pageState, now time.Time) {
	if err := c.Faults.Check(faults.PointFetch, p.url); err != nil {
		c.fetchFailed(p, now, err, false)
		return
	}
	version := p.remoteVersion(now)
	if !p.site.Alive(p.url, version) {
		c.handleGone(p)
		return
	}
	var res *warehouse.CommitResult
	var err error
	var content []byte
	if p.html {
		if err = c.Faults.Check(faults.PointCommit, p.url); err == nil {
			content = p.site.FetchHTML(p.url, version)
			res, err = c.store.CommitHTML(p.url, content)
		}
	} else {
		spec := p.site.Spec()
		content = p.site.FetchXMLBytes(p.url, version)
		if c.Gate != nil && !c.Gate(p.url, spec.DTD, spec.Domain, content) {
			// The page was fetched but can neither raise an event nor
			// extend a version chain: no parse, no commit, no sink.
			c.mu.Lock()
			c.stats.Fetches++
			c.stats.Skipped++
			c.recoverLocked(p)
			c.mu.Unlock()
			return
		}
		if err = c.Faults.Check(faults.PointCommit, p.url); err == nil {
			res, err = c.store.CommitXMLBytes(p.url, spec.DTD, spec.Domain, content)
		}
	}
	if err != nil {
		// A failed commit means the warehouse never saw this version: the
		// page is rescheduled with backoff instead of waiting a full
		// refresh period (and instead of vanishing silently, the original
		// sin of this function).
		c.fetchFailed(p, now, err, true)
		return
	}
	if p.html {
		c.discover(content, now)
	}
	c.mu.Lock()
	c.stats.Fetches++
	c.recoverLocked(p)
	switch res.Status {
	case warehouse.StatusNew:
		c.stats.New++
	case warehouse.StatusUpdated:
		c.stats.Updated++
	case warehouse.StatusUnchanged:
		c.stats.Unchanged++
	}
	if c.Adaptive && !p.pinned {
		// Multiplicative change-rate tracking: revisit changing pages
		// sooner, let stable ones decay toward MaxPeriod.
		switch res.Status {
		case warehouse.StatusUpdated:
			p.period = clampPeriod(p.period*2/3, c.MinPeriod, c.MaxPeriod)
		case warehouse.StatusUnchanged:
			p.period = clampPeriod(p.period*3/2, c.MinPeriod, c.MaxPeriod)
		}
		p.nextDue = now.Add(p.period)
	}
	sink := c.sink
	c.mu.Unlock()
	if sink != nil {
		sink(&alerter.Doc{
			Meta:    res.Meta,
			Status:  res.Status,
			Doc:     res.Doc,
			Delta:   res.Delta,
			Content: content,
		})
	}
}

// fetchFailed records a fetch or commit failure, schedules the retry with
// capped exponential backoff on the virtual clock, advances the site's
// circuit breaker, and fires the error hook (outside the lock).
func (c *Crawler) fetchFailed(p *pageState, now time.Time, err error, commit bool) {
	c.mu.Lock()
	if commit {
		c.stats.CommitErrors++
	} else {
		c.stats.FetchErrors++
	}
	p.fails++
	c.stats.Retries++
	p.nextDue = now.Add(retryBackoff(c.RetryBase, c.RetryMax, p.fails, p.url))
	if c.BreakerThreshold > 0 {
		base := p.site.Spec().BaseURL
		br := c.breakers[base]
		if br == nil {
			br = &siteBreaker{}
			c.breakers[base] = br
		}
		br.fails++
		if br.fails >= c.BreakerThreshold {
			if !br.open {
				c.stats.BreakerOpens++
			}
			br.open = true
			br.openUntil = now.Add(c.BreakerCooldown)
		}
	}
	hook := c.OnError
	c.mu.Unlock()
	if hook != nil {
		hook(p.url, err)
	}
}

// recoverLocked resets the failure state of a page after a successful
// fetch and closes its site's breaker (a successful half-open probe).
func (c *Crawler) recoverLocked(p *pageState) {
	p.fails = 0
	if br := c.breakers[p.site.Spec().BaseURL]; br != nil {
		if br.open {
			c.stats.BreakerCloses++
		}
		br.open = false
		br.fails = 0
	}
}

// retryBackoff is the capped exponential backoff of attempt n (1-based)
// with ±25% jitter. The jitter is a deterministic function of (url, n) —
// an FNV-1a hash, not a shared rng — so concurrent fetches stay
// reproducible while retries of different pages still de-synchronise
// instead of stampeding the site together.
func retryBackoff(base, max time.Duration, fails int, url string) time.Duration {
	if base <= 0 {
		base = time.Minute
	}
	if max < base {
		max = base
	}
	d := base
	for i := 1; i < fails && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	seed := xmldom.HashString(url) ^ uint64(fails)*0x9e3779b97f4a7c15
	frac := 0.75 + 0.5*float64(seed>>11)/float64(uint64(1)<<53)
	j := time.Duration(float64(d) * frac)
	if j > max {
		j = max
	}
	return j
}

func clampPeriod(d, min, max time.Duration) time.Duration {
	if d < min {
		return min
	}
	if d > max {
		return max
	}
	return d
}

// Period reports the current refresh period of a page (0 when unknown);
// the adaptive-refresh tests observe convergence through it.
func (c *Crawler) Period(url string) time.Duration { //xyvet:ignore testonly the adaptive-refresh tests observe convergence through it
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.pages[url]; ok {
		return p.period
	}
	return 0
}

// discover registers pages found through HTML links — the way the real
// crawler grows its URL frontier. Newly discovered pages become due
// immediately.
func (c *Crawler) discover(content []byte, now time.Time) {
	links := webgen.ExtractLinks(content)
	if len(links) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, url := range links {
		if _, known := c.pages[url]; known {
			continue
		}
		for _, site := range c.sites {
			if !site.Owns(url) {
				continue
			}
			c.addPageLocked(&pageState{
				url: url, site: site, html: site.IsHTML(url),
				period: c.DefaultPeriod, nextDue: now,
				changeEvery: c.ChangeEvery, birth: now,
			})
			c.stats.Discovered++
			break
		}
	}
}

// handleGone processes a page that disappeared from its site: the
// warehouse entry is dropped and a deleted-status document (carrying the
// last warehoused version, so element-level `deleted` conditions can
// still inspect it) flows to the sink. The page leaves the crawl schedule.
func (c *Crawler) handleGone(p *pageState) {
	res, err := c.store.Delete(p.url)
	c.mu.Lock()
	delete(c.pages, p.url)
	if err == nil {
		c.stats.Fetches++
		c.stats.Deleted++
	}
	sink := c.sink
	hook := c.OnError
	c.mu.Unlock()
	if err != nil {
		if hook != nil {
			hook(p.url, err)
		}
		return
	}
	if sink == nil {
		return
	}
	sink(&alerter.Doc{Meta: res.Meta, Status: warehouse.StatusDeleted, Doc: res.Doc})
}

// Stats snapshots crawl counters.
func (c *Crawler) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Pages = len(c.pages)
	return st
}

// Fails reports the consecutive-failure count of a page (0 when unknown
// or healthy); retry tests observe backoff growth through it.
func (c *Crawler) Fails(url string) int { //xyvet:ignore testonly the retry and chaos tests observe backoff through it
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.pages[url]; ok {
		return p.fails
	}
	return 0
}
