package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"xymon"
	"xymon/internal/alerter"
	"xymon/internal/reporter"
	"xymon/internal/sublang"
	"xymon/internal/webgen"
	"xymon/internal/xmldom"
	"xymon/internal/xydiff"
)

// benchResult is one row of the JSON benchmark trajectory: the numbers the
// de-contention work is judged by. DocsPerSec is zero for measurements
// where a document rate makes no sense (e.g. reporter notifications).
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	DocsPerSec  float64 `json:"docs_per_sec,omitempty"`
	// Counters carries scenario-specific totals (e.g. the warehouse's
	// tiered skip counters) so a row is self-accounting: the throughput
	// claim and the mechanism behind it live in the same record.
	Counters map[string]uint64 `json:"counters,omitempty"`
}

type benchReport struct {
	Date       string        `json:"date"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Results    []benchResult `json:"results"`
}

// measure runs op like timeIt and additionally reports the mean heap
// allocations per operation, from the runtime's Mallocs counter.
func measure(name string, minDur time.Duration, minIters int, op func(i int)) benchResult {
	warm := minIters / 4
	if warm < 8 {
		warm = 8
	}
	for i := 0; i < warm; i++ {
		op(i)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	iters := 0
	start := time.Now()
	for time.Since(start) < minDur || iters < minIters {
		op(iters)
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return benchResult{
		Name:        name,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
	}
}

// withDocsRate fills in the documents-per-second figure from ns/op.
func (r benchResult) withDocsRate() benchResult {
	if r.NsPerOp > 0 {
		r.DocsPerSec = 1e9 / r.NsPerOp
	}
	return r
}

// runJSON measures the benchmark trajectory — the fixed set of hot-path
// measurements tracked across PRs — and writes BENCH_<date>.json. The
// scales are moderate on purpose: the trajectory is for trend comparison
// (same machine, before vs after), not for reproducing the paper's
// full-scale figures; use the named experiments for those.
func runJSON() {
	var results []benchResult

	// Matcher, serial: the Figure 5 reference point (p=20) and the
	// Section 4.2 throughput point at a large complex-event base.
	{
		w := webgen.GenEventWorkload(5, 100000, scale(100000), 3, 20, 1024)
		m := buildMatcher(w)
		results = append(results, measure("matcher/C=100000/p=20", 500*time.Millisecond, 512, func(i int) {
			m.Match(w.Docs[i%len(w.Docs)])
		}).withDocsRate())
	}
	{
		w := webgen.GenEventWorkload(8, 100000, scale(1000000), 3, 20, 2048)
		m := buildMatcher(w)
		results = append(results, measure("matcher/C=1000000/p=20", 500*time.Millisecond, 512, func(i int) {
			m.Match(w.Docs[i%len(w.Docs)])
		}).withDocsRate())
	}

	// Matcher, parallel: 8 goroutines sharing one structure — the
	// contention profile the sharded stats counters target.
	{
		w := webgen.GenEventWorkload(14, 100000, scale(200000), 3, 20, 2048)
		m := buildMatcher(w)
		const workers = 8
		results = append(results, measure("matcher/parallel/workers=8", 500*time.Millisecond, 64, func(i int) {
			done := make(chan struct{}, workers)
			for g := 0; g < workers; g++ {
				go func(g int) {
					for j := 0; j < 8; j++ {
						m.Match(w.Docs[(i*workers+g*8+j)%len(w.Docs)])
					}
					done <- struct{}{}
				}(g)
			}
			for g := 0; g < workers; g++ {
				<-done
			}
		}))
		// One op is workers*8 matches; normalise to per-match numbers.
		last := &results[len(results)-1]
		last.NsPerOp /= workers * 8
		last.AllocsPerOp /= workers * 8
		*last = last.withDocsRate()
	}

	// Manager hot path: replay pre-committed documents through ProcessDoc
	// (alerters, matching, notification building, batched delivery).
	{
		sys, err := xymon.New(xymon.Options{Delivery: xymon.DeliveryFunc(func(*xymon.Report) error { return nil })})
		if err != nil {
			panic(err)
		}
		vocab := webgen.Vocabulary()
		for i := 0; i < scale(200); i++ {
			src := fmt.Sprintf(`subscription Sub%d
monitoring
select <Hit url=URL/>
where URL extends "http://shop%d.example/"
  and new product contains %q
report when notifications.count > 1000000`, i, i%50, vocab[i%len(vocab)])
			if _, err := sys.Subscribe(src); err != nil {
				panic(err)
			}
		}
		site := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://shop7.example", Pages: 1, Products: 30, Seed: 13})
		url := site.XMLURLs()[0]
		var docs []*alerter.Doc
		for i := 0; i < 64; i++ {
			res, err := sys.Store.CommitXML(url, "", "shopping", site.FetchXML(url, 1+i))
			if err != nil {
				panic(err)
			}
			docs = append(docs, &alerter.Doc{Meta: res.Meta, Status: res.Status, Doc: res.Doc, Delta: res.Delta})
		}
		results = append(results, measure("manager/processdoc", 500*time.Millisecond, 128, func(i int) {
			sys.Manager.ProcessDoc(docs[i%len(docs)])
		}).withDocsRate())
	}

	// Ingest parse path: ParseBytes, the byte tokenizer with arena node
	// allocation, over a serialized catalog.
	{
		site := webgen.NewSite(webgen.SiteSpec{Products: 100, Seed: 12})
		data := site.FetchXMLBytes(site.XMLURLs()[0], 5)
		results = append(results, measure("xmldom/parsebytes", 300*time.Millisecond, 256, func(i int) {
			if _, err := xmldom.ParseBytes(data); err != nil {
				panic(err)
			}
		}).withDocsRate())
	}

	// Crawl→alert ingest: full crawl rounds over a corpus where roughly
	// one page in twenty carries the subscribed word (webgen's RareWord),
	// with the streaming pre-filter gate on vs off. Numbers are per page;
	// the ratio is the gate's effect. The subscriptions are presence-only
	// on purpose — a URL clause or an element change condition would be a
	// standing reason to parse every page, disabling the gate.
	for _, mode := range []struct {
		name        string
		alwaysParse bool
	}{
		{"e2e/crawl-alert/prefilter", false},
		{"e2e/crawl-alert/alwaysdom", true},
	} {
		start := time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)
		now := start
		sys, err := xymon.New(xymon.Options{
			Clock:       func() time.Time { return now },
			Delivery:    xymon.DeliveryFunc(func(*xymon.Report) error { return nil }),
			AlwaysParse: mode.alwaysParse,
		})
		if err != nil {
			panic(err)
		}
		for i := 0; i < 50; i++ {
			src := fmt.Sprintf(`subscription Watch%d
monitoring
select <Hit/>
where product contains "zyzzyva"
report when notifications.count > 1000000`, i)
			if _, err := sys.Subscribe(src); err != nil {
				panic(err)
			}
		}
		for i := 0; i < scale(20); i++ {
			sys.AddSite(xymon.NewSite(xymon.SiteSpec{
				BaseURL: fmt.Sprintf("http://mall%d.example", i),
				Pages:   50, Products: 30, Seed: int64(i),
				RareWord: "zyzzyva", RareEvery: 20,
			}))
		}
		pages := sys.Crawler.Pages()
		r := measure(mode.name, 500*time.Millisecond, 8, func(i int) {
			// Cycle the virtual clock over a bounded version window so
			// every round re-crawls changed content without webgen's
			// per-version churn replay growing with the iteration count.
			now = start.Add(time.Duration(i%8) * sys.Crawler.ChangeEvery)
			sys.Crawler.FetchAll()
		})
		// One op crawls every page; normalise to per-page numbers.
		r.NsPerOp /= float64(pages)
		r.AllocsPerOp /= float64(pages)
		results = append(results, r.withDocsRate())
	}

	// Refetch of unchanged tracked pages: every round serves the same
	// content in a different byte form (webgen's PerturbEvery whitespace
	// reflow), so the raw-signature tier never hits and the cost is the
	// structural-hash tier (one streaming tokenize+hash per page) against
	// the always-diff baseline (full parse + canonical comparison). The
	// gate is off in both modes — this row isolates the warehouse
	// cascade, and the tiered/alwaysdiff ratio is the tier-2 effect.
	for _, mode := range []struct {
		name       string
		alwaysDiff bool
	}{
		{"e2e/refetch-unchanged/tiered", false},
		{"e2e/refetch-unchanged/alwaysdiff", true},
	} {
		start := time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)
		now := start
		sys, err := xymon.New(xymon.Options{
			Clock:       func() time.Time { return now },
			Delivery:    xymon.DeliveryFunc(func(*xymon.Report) error { return nil }),
			AlwaysParse: true,
			AlwaysDiff:  mode.alwaysDiff,
		})
		if err != nil {
			panic(err)
		}
		for i := 0; i < 20; i++ {
			src := fmt.Sprintf(`subscription Watch%d
monitoring
select <Hit/>
where product contains "zyzzyva"
report when notifications.count > 1000000`, i)
			if _, err := sys.Subscribe(src); err != nil {
				panic(err)
			}
		}
		for i := 0; i < scale(10); i++ {
			sys.AddSite(xymon.NewSite(xymon.SiteSpec{
				BaseURL: fmt.Sprintf("http://still%d.example", i),
				Pages:   20, Products: 100, Seed: int64(i),
				PerturbEvery: 1 << 16, PerturbKind: xymon.PerturbWhitespace,
			}))
		}
		pages := sys.Crawler.Pages()
		r := measure(mode.name, 500*time.Millisecond, 8, func(i int) {
			// Cycle the virtual clock over a version window: each round
			// refetches a byte-different serialization of the same content,
			// so neither the raw-signature tier nor the crawler's own
			// signature check short-circuits the measurement.
			now = start.Add(time.Duration(i%8) * sys.Crawler.ChangeEvery)
			sys.Crawler.FetchAll()
		})
		// One op crawls every page; normalise to per-page numbers.
		r.NsPerOp /= float64(pages)
		r.AllocsPerOp /= float64(pages)
		ws := sys.Store.Stats()
		r.Counters = map[string]uint64{
			"skipped_rawsig":     ws.SkippedRawSig,
			"skipped_structhash": ws.SkippedStructHash,
			"parsed":             ws.Parsed,
			"diffed":             ws.Diffed,
		}
		results = append(results, r.withDocsRate())
	}

	// Diff path: version-chain delta computation with the warehouse's
	// hash-caching discipline (old version's vector cached, new tree
	// hashed each iteration), and the once-per-doc classification.
	{
		site := webgen.NewSite(webgen.SiteSpec{Products: 100, Seed: 12})
		url := site.XMLURLs()[0]
		base := site.FetchXML(url, 5)
		next := site.FetchXML(url, 6)
		results = append(results, measure("diff/smalledit", 300*time.Millisecond, 256, func(i int) {
			next.InvalidateHashes()
			if _, err := xydiff.Diff(base, next); err != nil {
				panic(err)
			}
		}).withDocsRate())
		delta, err := xydiff.Diff(base, next)
		if err != nil {
			panic(err)
		}
		results = append(results, measure("diff/classify", 300*time.Millisecond, 256, func(i int) {
			xydiff.Classify(next, delta)
		}).withDocsRate())
	}

	// Reporter ingestion: per-notification locking vs the batched path.
	{
		rep := reporter.New(nil)
		const subs = 1000
		for i := 0; i < subs; i++ {
			rep.Register(fmt.Sprintf("S%d", i), &sublang.ReportSpec{
				When: []sublang.ReportTerm{{Kind: sublang.TermCount, Count: 99}},
			})
		}
		results = append(results, measure("reporter/notify", 300*time.Millisecond, 1024, func(i int) {
			rep.Notify(reporter.Notification{Subscription: fmt.Sprintf("S%d", i%subs), Label: "UpdatedPage"})
		}))
		batch := make([]reporter.Notification, 16)
		results = append(results, measure("reporter/notifybatch16", 300*time.Millisecond, 256, func(i int) {
			for j := range batch {
				batch[j] = reporter.Notification{Subscription: fmt.Sprintf("S%d", (i*16+j)%subs), Label: "UpdatedPage"}
			}
			rep.NotifyBatch(batch)
		}))
		// One op ingests 16 notifications; normalise per notification.
		last := &results[len(results)-1]
		last.NsPerOp /= 16
		last.AllocsPerOp /= 16
	}

	rpt := benchReport{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Results:    results,
	}
	out, err := json.MarshalIndent(rpt, "", "  ")
	if err != nil {
		panic(err)
	}
	out = append(out, '\n')
	// Never clobber an already-committed trajectory entry: a second run on
	// the same day gets a numbered suffix.
	path := fmt.Sprintf("BENCH_%s.json", rpt.Date)
	for n := 2; ; n++ {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			break
		}
		path = fmt.Sprintf("BENCH_%s.%d.json", rpt.Date, n)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "xybench: write %s: %v\n", path, err)
		os.Exit(1)
	}
	os.Stdout.Write(out)
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}
