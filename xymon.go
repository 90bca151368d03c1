// Package xymon is a from-scratch reproduction of the subscription system
// of "Monitoring XML Data on the Web" (Nguyen, Abiteboul, Cobéna, Preda;
// SIGMOD 2001): the change-monitoring half of the Xyleme XML web
// warehouse.
//
// A System bundles the paper's architecture (Figure 3): alerters detect
// atomic events on every fetched document, the Monitoring Query Processor
// (the paper's "Atomic Event Sets" hash-tree) matches them against
// millions of registered conjunctions, the Trigger Engine evaluates
// continuous queries, and the Reporter buffers notifications and emits XML
// reports according to each subscription's report conditions.
//
// Quick start:
//
//	sys, _ := xymon.New(xymon.Options{})
//	sys.Subscribe(`subscription Watch
//	    monitoring
//	    select <UpdatedPage url=URL/>
//	    where URL extends "http://inria.fr/Xy/" and modified self
//	    report when immediate`)
//	sys.PushXML("http://inria.fr/Xy/index.xml", "", "", "<page>v1</page>")
//	sys.PushXML("http://inria.fr/Xy/index.xml", "", "", "<page>v2</page>")
//	// the second push raises UpdatedPage and delivers a report
package xymon

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"xymon/internal/alerter"
	"xymon/internal/core"
	"xymon/internal/crawler"
	"xymon/internal/faults"
	"xymon/internal/manager"
	"xymon/internal/reporter"
	"xymon/internal/semantic"
	"xymon/internal/stream"
	"xymon/internal/sublang"
	"xymon/internal/trigger"
	"xymon/internal/wal"
	"xymon/internal/warehouse"
	"xymon/internal/webgen"
)

// Re-exported types of the public surface.
type (
	// Report is a generated subscription report; its Doc is read-only.
	Report = reporter.Report
	// Notification is one entry of a notification stream.
	Notification = reporter.Notification
	// Delivery receives finished reports.
	Delivery = reporter.Delivery
	// DeliveryFunc adapts a function to Delivery.
	DeliveryFunc = reporter.DeliveryFunc
	// Subscription is a parsed subscription.
	Subscription = sublang.Subscription
	// Site is a synthetic web site usable with AddSite.
	Site = webgen.Site
	// SiteSpec configures a synthetic site.
	SiteSpec = webgen.SiteSpec
	// PerturbKind selects a SiteSpec's refetch perturbation.
	PerturbKind = webgen.PerturbKind
)

// Re-exported SiteSpec perturbation kinds.
const (
	PerturbWhitespace = webgen.PerturbWhitespace
	PerturbAttrOrder  = webgen.PerturbAttrOrder
)

// NewSite builds a synthetic site for simulated crawling.
func NewSite(spec SiteSpec) *Site { return webgen.NewSite(spec) }

// Options configures a System. The zero value is a fully in-memory system
// on the real clock that discards reports.
type Options struct {
	// Clock substitutes the time source (virtual time in tests and
	// simulations).
	Clock func() time.Time
	// Delivery receives reports; nil discards them.
	Delivery Delivery
	// DurableDir enables the crash-safe durability layer: two
	// write-ahead logs under this directory. reporter/ persists the
	// subscription base, the Reporter's notification buffers and
	// undelivered reports together with the Trigger Engine's evaluation
	// marks, each in the record of the result it produced; warehouse/
	// persists every page's current version.
	// The reporter's fired records are the notification change-stream:
	// pull consumers read <DurableDir>/reporter with durable cursors
	// (stream.OpenReader, xysub stream -dir <DurableDir>/reporter). New
	// recovers them all before returning, Checkpoint compacts them
	// (applying stream retention), and Close releases them.
	DurableDir string
	// StreamMaxBehind is the change-stream's retention floor: at most
	// this many records are kept behind the head for lagging consumers;
	// past it a consumer is truncated (stream.ErrTruncated) and must
	// re-sync. 0 keeps everything any live cursor still needs. Only
	// meaningful with DurableDir.
	StreamMaxBehind uint64
	// Faults threads a fault injector into the durability layer: rules
	// armed at faults.Point(op) for the wal.Op* and stream.Op* names
	// fire inside WAL appends, checkpoint installation and the stream's
	// writes and cursor commits (the crash harness's kill switch). Nil
	// injects nothing.
	Faults *faults.Injector
	// Domains seeds the semantic classifier (Xyleme's semantic module):
	// domain name -> typical element tags. A document pushed without a
	// domain (PushXML with domain "") is classified automatically; a
	// crawled page is committed under its site's domain as it is.
	Domains map[string][]string
	// MaxCost rejects subscriptions whose a priori cost estimate exceeds
	// the budget, and InhibitRate suspends subscriptions that flood the
	// notification stream — the resource controls of Section 5.4. Zero
	// disables each.
	MaxCost     float64
	InhibitRate float64
	// AlwaysParse disables the crawler's streaming ingest gate, so every
	// fetched XML page is parsed and committed even when it is untracked
	// and cannot raise any event. The default (gate on) runs the
	// pre-filter over the serialized bytes and skips the DOM for pages
	// nobody could possibly be notified about; benchmarks use this switch
	// to measure the gate's effect.
	AlwaysParse bool
	// AlwaysDiff disables the warehouse's unchanged fast paths (the raw
	// byte signature and the streaming structural hash), so every
	// refetched XML page pays the full parse and canonical comparison.
	// Benchmarks use this switch as the baseline the tiered change
	// detection is measured against.
	AlwaysDiff bool
}

// System is the assembled subscription system.
type System struct {
	Store      *warehouse.Store
	Manager    *manager.Manager
	Reporter   *reporter.Reporter
	Trigger    *trigger.Engine
	Crawler    *crawler.Crawler
	Matcher    *core.Matcher
	Pipeline   *alerter.Pipeline
	Classifier *semantic.Classifier
	// Stream is the Reporter's journal, whose fired records are the
	// durable notification change-stream (nil without
	// Options.DurableDir): open a stream.Reader on its directory to
	// consume reports at your own pace with a durable cursor.
	Stream *stream.Log
	clock  func() time.Time
	// pages logs the warehouse's versions (nil without DurableDir).
	pages *warehouse.Journal
	// closers releases the durability layer's logs.
	closers []io.Closer
}

// New assembles a System.
func New(opts Options) (*System, error) {
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	s := &System{clock: clock}
	s.Classifier = semantic.NewClassifier()
	for name, tags := range opts.Domains {
		s.Classifier.AddDomain(name, tags...)
	}
	storeOpts := []warehouse.Option{warehouse.WithClock(clock)}
	if opts.AlwaysDiff {
		storeOpts = append(storeOpts, warehouse.WithAlwaysDiff())
	}
	s.Store = warehouse.NewStore(storeOpts...)

	// The durability layer: one WAL per stateful module, all consulting
	// the same fault injector (the hook reports the log's durability
	// points under the wal.Op names, which double as faults.Point names).
	fail := func(err error) (*System, error) {
		_ = s.Close() // best-effort release; the construction error wins
		return nil, err
	}
	var hook wal.Hook
	if opts.Faults != nil {
		in := opts.Faults
		hook = func(op, key string) error { return in.Check(faults.Point(op), key) }
	}
	if opts.DurableDir != "" {
		// Logs of the earlier layouts, refused rather than read: the
		// change-stream counted offsets its own way (a consumer still
		// reading it would see nothing new), and the trigger and
		// subscription logs held the evaluation marks and the base that
		// now ride the reporter journal.
		streamDir := filepath.Join(opts.DurableDir, "stream")
		for _, legacy := range [][2]string{
			{streamDir, fmt.Sprintf("a change-stream of the earlier layout; the stream is now %s/reporter. Drain it with `xysub stream replay -dir %s`, then remove it", opts.DurableDir, streamDir)},
			{filepath.Join(opts.DurableDir, "trigger"), "continuous-query evaluation marks of the earlier layout; they now ride the reporter journal. Remove it: each periodic query then evaluates once more"},
			{filepath.Join(opts.DurableDir, "subs"), "a subscription base of the earlier layout; the base now rides the reporter journal. Remove it, then subscribe the base again"},
		} {
			if logs, _ := filepath.Glob(filepath.Join(legacy[0], "*.wal")); len(logs) > 0 {
				return fail(fmt.Errorf("xymon: %s holds %s", legacy[0], legacy[1]))
			}
		}
		var err error
		if s.Stream, err = stream.Open(filepath.Join(opts.DurableDir, "reporter"), stream.Options{
			Hook:      hook,
			MaxBehind: opts.StreamMaxBehind,
		}); err != nil {
			return fail(err)
		}
		s.closers = append(s.closers, s.Stream)
		if s.pages, err = warehouse.OpenJournal(filepath.Join(opts.DurableDir, "warehouse"), hook); err != nil {
			return fail(err)
		}
		s.closers = append(s.closers, s.pages)
	}

	repOpts := []reporter.Option{reporter.WithClock(clock)}
	if s.Stream != nil {
		repOpts = append(repOpts, reporter.WithWAL(s.Stream))
	}
	s.Reporter = reporter.New(opts.Delivery, repOpts...)
	s.Trigger = trigger.New(s.Store.AllRoots, func(r trigger.Result) {
		// r.Element is read-only once handed over: the Reporter's reports
		// reference it. It is built for this result alone (a fresh element,
		// the query's clones, or a rendered delta), so nothing the engine
		// or the warehouse keeps is shared; a nil one (an unchanged delta)
		// makes the notification a mark alone.
		s.Reporter.Notify(reporter.Notification{
			Subscription: r.Subscription, Label: r.Query, Element: r.Element, Time: r.Time, Mark: true,
		})
	}, trigger.WithClock(clock))
	s.Pipeline = alerter.NewPipeline()
	s.Matcher = core.NewMatcher()
	s.Manager = manager.New(manager.Config{
		Matcher:     s.Matcher,
		Pipeline:    s.Pipeline,
		Reporter:    s.Reporter,
		Trigger:     s.Trigger,
		Clock:       clock,
		MaxCost:     opts.MaxCost,
		InhibitRate: opts.InhibitRate,
	})
	if s.Stream != nil {
		// One replay of the reporter journal restores the subscription
		// base, then the buffers and marks that belong to it; the
		// continuous queries' schedules come from those marks.
		if err := s.Manager.Recover(); err != nil {
			return fail(err)
		}
		s.Trigger.Restore(s.Reporter.Evaluated)
		if err := s.pages.Recover(s.Store); err != nil {
			return fail(err)
		}
	}
	// A failed warehouse record only leaves the log behind (see ProcessDoc).
	s.Crawler = crawler.New(s.Store, func(d *alerter.Doc) { _, _ = s.ProcessDoc(d) }, clock)
	if !opts.AlwaysParse {
		// The streaming ingest gate (the zero-copy alerter path): a fetched
		// XML page is parsed only if it is version-tracked, some condition
		// class needs every document (continuous queries, element change
		// conditions, URL-level conditions that could match), or the
		// pre-filter, through the warehouse's stubs, finds a watched word.
		match := alerter.NewPrefilter(s.Pipeline.XML).Match
		s.Crawler.Gate = func(url, dtd, domain string, data []byte) bool {
			if s.Store.Tracked(url) || s.Trigger.Len() > 0 {
				return true
			}
			if s.Pipeline.XML.HasChangeConds() {
				return true
			}
			if s.Pipeline.URL.CouldAlert(url, warehouse.Filename(url), dtd, domain) {
				return true
			}
			// Read before the screen: a later word makes its stub miss.
			gen, empty := s.Pipeline.XML.WordGen()
			return !empty && s.Store.Screen(url, data, gen, match)
		}
	}
	return s, nil
}

// Checkpoint compacts the durability layer: each log's owner snapshots its
// state (the Reporter the subscription base, buffered notifications,
// undelivered reports and evaluation marks; the warehouse every page's
// current version) and truncates the journal records the snapshot covers —
// the Reporter's keeping the segments a stream consumer still needs (every
// live cursor's, bounded below by StreamMaxBehind). The warehouse goes last
// and runs whatever the Reporter returned, as the Reporter's error for a
// consumer's unreadable cursor must not stop it. A no-op without
// Options.DurableDir.
func (s *System) Checkpoint() error {
	err := s.Reporter.Checkpoint()
	if s.pages != nil {
		err = errors.Join(err, s.pages.Checkpoint())
	}
	return err
}

// Close flushes and releases the durability layer. The System must not
// be used afterwards; its on-disk state recovers on the next New.
func (s *System) Close() error {
	var first error
	for _, c := range s.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	return first
}

// Subscribe registers a subscription written in the subscription language
// of Section 5 and returns its parsed form.
func (s *System) Subscribe(src string) (*Subscription, error) {
	sub, err := s.Manager.Subscribe(src)
	if err != nil {
		return nil, err
	}
	if len(sub.Refresh) > 0 {
		// Only this subscription's hints: the crawler remembers the ones it
		// was given before and applies them to pages it learns of later, so
		// the base need not be rescanned under the manager's lock.
		hints := make(map[string]sublang.Frequency, len(sub.Refresh))
		for _, r := range sub.Refresh {
			if cur, ok := hints[r.URL]; !ok || r.Freq < cur {
				hints[r.URL] = r.Freq
			}
		}
		s.Crawler.ApplyRefreshHints(hints)
	}
	return sub, nil
}

// Unsubscribe removes a subscription.
func (s *System) Unsubscribe(name string) error {
	return s.Manager.Unsubscribe(name)
}

// pushBufPool recycles PushXML's byte copies of its pages; a copy above
// maxPooledPush goes to the collector instead of staying pinned.
var pushBufPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledPush = 1 << 20

// PushXML feeds one fetched XML page through the full notification chain
// (warehouse commit, change detection, alerters, matching, reporting) and
// returns the number of notifications produced.
//
// The chain reads content through a pooled byte copy that is reused once
// PushXML returns. Nothing keeps that copy past the call: ParseBytes copies
// every tag, attribute and text into strings, the warehouse log copies the
// bytes into its record, and the classifier and the warehouse's tier-1 and
// tier-2 hashes read them synchronously.
func (s *System) PushXML(url, dtd, domain, content string) (int, error) {
	buf := pushBufPool.Get().(*[]byte)
	data := append((*buf)[:0], content...)
	defer func() {
		if cap(data) <= maxPooledPush {
			*buf = data[:0]
			pushBufPool.Put(buf)
		}
	}()
	if domain == "" {
		// The semantic module classifies unlabelled documents (Figure 1)
		// by their start tags: an unlabelled push pays one tokenizer pass
		// up front, and no tree.
		var err error
		if domain, _, err = s.Classifier.Classify(data); err != nil {
			return 0, err
		}
	}
	res, err := s.Store.CommitXMLBytes(url, dtd, domain, data)
	if err != nil {
		return 0, err
	}
	return s.ProcessDoc(&alerter.Doc{
		Meta: res.Meta, Status: res.Status, Doc: res.Doc, Delta: res.Delta, Content: data,
	})
}

// PushHTML feeds one fetched HTML page through the notification chain.
func (s *System) PushHTML(url string, content []byte) (int, error) {
	res, err := s.Store.CommitHTML(url, content)
	if err != nil {
		return 0, err
	}
	return s.ProcessDoc(&alerter.Doc{
		Meta: res.Meta, Status: res.Status, Content: content,
	})
}

// ProcessDoc runs the notification chain on a committed document and
// returns the notifications produced. Every committed document must come
// through here: only after the chain ran (past the Reporter's barrier) is
// its version written to the warehouse log, which so lags the
// notifications, never leads them. The error is the log's.
func (s *System) ProcessDoc(d *alerter.Doc) (int, error) {
	n := s.Manager.ProcessDoc(d)
	if s.pages == nil {
		return n, nil
	}
	return n, s.pages.Note(d.Status, d.Meta, d.Doc, d.Content)
}

// AddSite registers a synthetic site with the crawler.
func (s *System) AddSite(site *Site) {
	s.Crawler.AddSite(site)
	s.Crawler.ApplyRefreshHints(s.Manager.RefreshHints())
}

// Crawl fetches every page whose refresh time has come and returns the
// number of pages fetched.
func (s *System) Crawl() int {
	return s.Crawler.Step()
}

// Tick advances the time-based machinery: scheduled continuous queries,
// periodic report conditions, rate-limit windows and archive expiry. Call
// it regularly (per simulated hour or day).
func (s *System) Tick() {
	s.Trigger.Tick()
	s.Reporter.Tick()
}

// Stats aggregates the counters of every module; the two logs' are zero
// without Options.DurableDir.
type Stats struct {
	Manager      manager.Stats
	Crawler      crawler.Stats
	Matcher      core.Stats
	Warehouse    warehouse.Stats
	Pages        int
	Reporter     reporter.Stats
	Stream       stream.Stats // the reporter journal's
	WarehouseLog wal.Stats
	Evaluations  uint64 // continuous-query evaluations
}

// Stats snapshots the system counters.
func (s *System) Stats() Stats {
	st := Stats{
		Manager:     s.Manager.Stats(),
		Crawler:     s.Crawler.Stats(),
		Matcher:     s.Matcher.Stats(),
		Warehouse:   s.Store.Stats(),
		Pages:       s.Store.Len(),
		Reporter:    s.Reporter.Stats(),
		Evaluations: s.Trigger.Evaluations(),
	}
	if s.Stream != nil {
		st.Stream, st.WarehouseLog = s.Stream.Stats(), s.pages.Stats()
	}
	return st
}
