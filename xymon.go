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
	"os"
	"path/filepath"
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
	"xymon/internal/xmldom"
)

// Re-exported types of the public surface.
type (
	// Report is a generated subscription report.
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
	// JournalPath persists the subscription base to a JSON-lines file for
	// recovery; empty keeps it in memory only. DurableDir supersedes it.
	JournalPath string
	// DurableDir enables the crash-safe durability layer: write-ahead
	// logs under this directory persist the subscription base (subs/),
	// the Reporter's notification buffers and undelivered reports
	// (reporter/), and the Trigger Engine's evaluation marks (trigger/).
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
	// armed at the faults.PointWAL* points fire inside WAL appends and
	// checkpoint installation (the crash harness's kill switch). Nil
	// injects nothing.
	Faults *faults.Injector
	// TriePrefixes selects the trie structure for `URL extends` patterns
	// instead of the default hash structure (the Section 6.2 ablation).
	TriePrefixes bool
	// Domains seeds the semantic classifier (Xyleme's semantic module):
	// domain name -> typical element tags. Documents pushed or crawled
	// without an explicit domain are classified automatically.
	Domains map[string][]string
	// DataDir, when set, loads a warehouse snapshot from the directory at
	// startup (if one exists) and enables SaveWarehouse.
	DataDir string
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
	Stream  *stream.Log
	clock   func() time.Time
	dataDir string
	// closers releases the durability layer (journal + WAL logs).
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
	var walTrig *wal.Log
	var journal manager.Journal
	if opts.DurableDir != "" {
		// The change-stream used to be a log of its own, counting offsets
		// its own way: a consumer still reading it would see nothing new.
		legacy := filepath.Join(opts.DurableDir, "stream")
		if segs, _ := filepath.Glob(filepath.Join(legacy, "seg-*.wal")); len(segs) > 0 {
			return fail(fmt.Errorf("xymon: %s is a change-stream of the earlier layout; the stream is now %s/reporter. Drain it with `xysub stream replay -dir %s`, then remove it", legacy, opts.DurableDir, legacy))
		}
		walSubs, err := wal.Open(filepath.Join(opts.DurableDir, "subs"), wal.Options{Hook: hook})
		if err != nil {
			return fail(err)
		}
		wj := manager.NewWALJournal(walSubs)
		journal = wj
		s.closers = append(s.closers, wj)
		if s.Stream, err = stream.Open(filepath.Join(opts.DurableDir, "reporter"), stream.Options{
			Hook:      hook,
			MaxBehind: opts.StreamMaxBehind,
		}); err != nil {
			return fail(err)
		}
		s.closers = append(s.closers, s.Stream)
		if walTrig, err = wal.Open(filepath.Join(opts.DurableDir, "trigger"), wal.Options{Hook: hook}); err != nil {
			return fail(err)
		}
		s.closers = append(s.closers, walTrig)
	} else if opts.JournalPath != "" {
		fj, err := manager.NewFileJournal(opts.JournalPath)
		if err != nil {
			return nil, err
		}
		journal = fj
		s.closers = append(s.closers, fj)
	}

	repOpts := []reporter.Option{reporter.WithClock(clock)}
	if s.Stream != nil {
		repOpts = append(repOpts, reporter.WithWAL(s.Stream))
	}
	s.Reporter = reporter.New(opts.Delivery, repOpts...)
	trigOpts := []trigger.Option{trigger.WithClock(clock)}
	if walTrig != nil {
		trigOpts = append(trigOpts, trigger.WithWAL(walTrig))
	}
	s.Trigger = trigger.New(s.Store.AllRoots, func(r trigger.Result) {
		// r.Element is built for this result alone (a fresh element, the
		// query's clones, or a rendered delta), so the Reporter can own it.
		s.Reporter.Notify(reporter.Notification{
			Subscription: r.Subscription, Label: r.Query, Element: r.Element, Time: r.Time,
		})
	}, trigOpts...)
	var prefixes alerter.PrefixIndex
	if opts.TriePrefixes {
		prefixes = alerter.NewTriePrefixIndex()
	}
	s.Pipeline = alerter.NewPipeline(prefixes)
	s.Matcher = core.NewMatcher()
	s.Manager = manager.New(manager.Config{
		Matcher:     s.Matcher,
		Pipeline:    s.Pipeline,
		Reporter:    s.Reporter,
		Trigger:     s.Trigger,
		Clock:       clock,
		Journal:     journal,
		MaxCost:     opts.MaxCost,
		InhibitRate: opts.InhibitRate,
	})
	if journal != nil {
		// Recovery order matters: trigger marks first (Register consults
		// them as the subscription base comes back), then the base itself,
		// then the Reporter (its recovery drops the buffers of
		// subscriptions that no longer exist, so registration must be
		// done).
		if err := s.Trigger.Recover(); err != nil {
			return fail(err)
		}
		if err := s.Manager.Recover(journal); err != nil {
			return fail(err)
		}
		if err := s.Reporter.Recover(); err != nil {
			return fail(err)
		}
	}
	s.Crawler = crawler.New(s.Store, func(d *alerter.Doc) { s.Manager.ProcessDoc(d) }, clock)
	if !opts.AlwaysParse {
		// The streaming ingest gate (the zero-copy alerter path): a fetched
		// XML page is parsed only if it is version-tracked, some condition
		// class needs every document (continuous queries, element change
		// conditions, URL-level conditions that could match), or the
		// pre-filter finds an interesting word in the byte stream.
		prefilter := alerter.NewPrefilter(s.Pipeline.XML)
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
			return prefilter.Match(data)
		}
	}
	if opts.DataDir != "" {
		s.dataDir = opts.DataDir
		if _, err := os.Stat(filepath.Join(opts.DataDir, "manifest.json")); err == nil {
			if err := s.Store.Load(opts.DataDir); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// SaveWarehouse snapshots the warehouse into Options.DataDir (or the given
// directory when DataDir was not set).
func (s *System) SaveWarehouse(dir string) error {
	if dir == "" {
		dir = s.dataDir
	}
	if dir == "" {
		return errors.New("xymon: no data directory configured")
	}
	return s.Store.Save(dir)
}

// Checkpoint compacts the durability layer: each module snapshots its
// state (live subscription base, buffered notifications plus undelivered
// reports, evaluation marks) and truncates the journal records the
// snapshot covers — the Reporter's keeping the segments a stream
// consumer still needs (every live cursor's, bounded below by
// StreamMaxBehind), last, as its error for a consumer's unreadable cursor
// must not stop the others. A no-op without Options.DurableDir.
func (s *System) Checkpoint() error {
	if err := s.Manager.Checkpoint(); err != nil {
		return err
	}
	if err := s.Trigger.Checkpoint(); err != nil {
		return err
	}
	return s.Reporter.Checkpoint()
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

// PushXML feeds one fetched XML page through the full notification chain
// (warehouse commit, change detection, alerters, matching, reporting) and
// returns the number of notifications produced.
func (s *System) PushXML(url, dtd, domain, content string) (int, error) {
	data := []byte(content)
	if domain == "" {
		// The semantic module classifies unlabelled documents (Figure 1).
		// Classification needs a tree, so an unlabelled push pays a parse
		// up front; labelled pushes go straight to the byte-level commit
		// and its unchanged fast paths.
		doc, err := xmldom.ParseBytes(data)
		if err != nil {
			return 0, err
		}
		domain, _ = s.Classifier.Classify(doc)
	}
	res, err := s.Store.CommitXMLBytes(url, dtd, domain, data)
	if err != nil {
		return 0, err
	}
	return s.Manager.ProcessDoc(&alerter.Doc{
		Meta: res.Meta, Status: res.Status, Doc: res.Doc, Delta: res.Delta,
	}), nil
}

// PushHTML feeds one fetched HTML page through the notification chain.
func (s *System) PushHTML(url string, content []byte) (int, error) {
	res, err := s.Store.CommitHTML(url, content)
	if err != nil {
		return 0, err
	}
	return s.Manager.ProcessDoc(&alerter.Doc{
		Meta: res.Meta, Status: res.Status, Content: content,
	}), nil
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

// Stats aggregates the counters of every module.
type Stats struct {
	Manager   manager.Stats
	Crawler   crawler.Stats
	Matcher   core.Stats
	Warehouse warehouse.Stats
	Pages     int
}

// Stats snapshots the system counters.
func (s *System) Stats() Stats {
	return Stats{
		Manager:   s.Manager.Stats(),
		Crawler:   s.Crawler.Stats(),
		Matcher:   s.Matcher.Stats(),
		Warehouse: s.Store.Stats(),
		Pages:     s.Store.Len(),
	}
}
