// Benchmarks regenerating the paper's figures and capacity tables. Each
// benchmark corresponds to one experiment ID of DESIGN.md / EXPERIMENTS.md
// (TAB-CRAWL, a deterministic simulation, is the crawler test
// TestAdaptiveBeatsFixedUsefulShare). Regenerate one figure with
//
//	go test -run '^$' -bench <Name> .
//
// and add -short for the reduced scale the CI smoke runs.
package xymon

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"xymon/internal/alerter"
	"xymon/internal/baseline"
	"xymon/internal/cluster"
	"xymon/internal/core"
	"xymon/internal/reporter"
	"xymon/internal/sublang"
	"xymon/internal/warehouse"
	"xymon/internal/webgen"
	"xymon/internal/xmldom"
	"xymon/internal/xydiff"
)

// loadMatcher builds a matcher from a workload.
func loadMatcher(b *testing.B, w *webgen.EventWorkload) *core.Matcher {
	b.Helper()
	m := core.NewMatcher()
	if err := w.Load(m.Add); err != nil {
		b.Fatalf("load workload: %v", err)
	}
	return m
}

func matchLoop(b *testing.B, m interface {
	Match(core.EventSet) []core.ComplexID
}, docs []core.EventSet) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(docs[i%len(docs)])
	}
}

// shortScale trims a benchmark's parameter space in -short mode so the CI
// bench smoke (`go test -short -run=NONE -bench=. -benchtime=1x`) still
// executes every benchmark body without paying full-scale workload
// generation.
func shortScale[T any](full []T, short []T) []T {
	if testing.Short() {
		return short
	}
	return full
}

// BenchmarkFig5 reproduces Figure 5: time to process one document as a
// function of p = Card(S), one series per Card(C). The paper reports a
// linear dependence on p and about 1 ms per document at p = 100 with a
// million complex events (2001 hardware).
func BenchmarkFig5(b *testing.B) {
	const (
		cardA = 100000
		m     = 3
		nDocs = 1024
	)
	for _, cardC := range shortScale([]int{10000, 100000, 1000000}, []int{10000}) {
		for _, p := range shortScale([]int{10, 20, 40, 60, 80, 100}, []int{10, 100}) {
			w := webgen.GenEventWorkload(5, cardA, cardC, m, p, nDocs)
			matcher := loadMatcher(b, w)
			b.Run(fmt.Sprintf("C=%d/p=%d", cardC, p), func(b *testing.B) {
				matchLoop(b, matcher, w.Docs)
			})
		}
	}
}

// BenchmarkFig6 reproduces Figure 6: time per document against log k,
// where k (mean complex events per atomic event) is controlled by varying
// Card(C) at fixed Card(A). The paper observes O(p·log k).
func BenchmarkFig6(b *testing.B) {
	const (
		cardA = 100000
		m     = 3
		p     = 20
		nDocs = 1024
	)
	for _, cardC := range shortScale([]int{10000, 33000, 100000, 330000, 1000000}, []int{10000}) {
		w := webgen.GenEventWorkload(6, cardA, cardC, m, p, nDocs)
		matcher := loadMatcher(b, w)
		b.Run(fmt.Sprintf("C=%d/k=%.1f", cardC, w.K()), func(b *testing.B) {
			matchLoop(b, matcher, w.Docs)
		})
	}
}

// BenchmarkMSweep reproduces the Section 4.2 claim that the cost is
// independent of m (the atomic events per complex event) for m in 2..10
// when p >= m.
func BenchmarkMSweep(b *testing.B) {
	const (
		cardA = 100000
		cardC = 100000
		p     = 20
		nDocs = 1024
	)
	for _, m := range shortScale([]int{2, 4, 6, 8, 10}, []int{2}) {
		w := webgen.GenEventWorkload(7, cardA, cardC, m, p, nDocs)
		matcher := loadMatcher(b, w)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			matchLoop(b, matcher, w.Docs)
		})
	}
}

// BenchmarkThroughput reproduces the capacity claim of Section 4.2: the
// processor sustains "several thousand sets of atomic events per second",
// enough for ~100 crawlers of 50 documents/second each.
func BenchmarkThroughput(b *testing.B) {
	cardC := shortScale([]int{1000000}, []int{10000})[0]
	w := webgen.GenEventWorkload(8, 100000, cardC, 3, 20, 4096)
	matcher := loadMatcher(b, w)
	b.Run(fmt.Sprintf("C=%d/p=20", cardC), func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			matcher.Match(w.Docs[i%len(w.Docs)])
		}
		elapsed := time.Since(start)
		if elapsed > 0 {
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "docs/s")
		}
	})
}

// BenchmarkBaselines is the Section 4.1 ablation: the Atomic Event Sets
// structure against the naive scan and the counting (inverted index)
// algorithm, at a subscription scale where all three finish.
func BenchmarkBaselines(b *testing.B) {
	const (
		cardA = 10000
		cardC = 10000
		m     = 3
		p     = 20
		nDocs = 1024
	)
	w := webgen.GenEventWorkload(9, cardA, cardC, m, p, nDocs)
	impls := []struct {
		name string
		m    baseline.Matcher
	}{
		{"aes", core.NewMatcher()},
		{"counting", baseline.NewCounting()},
		{"naive", baseline.NewNaive()},
	}
	for _, impl := range impls {
		if err := w.Load(impl.m.Add); err != nil {
			b.Fatalf("load: %v", err)
		}
		b.Run(impl.name, func(b *testing.B) {
			matchLoop(b, impl.m, w.Docs)
		})
	}
}

// BenchmarkURLAlerter is the Section 6.2 ablation: hash-table prefix
// lookup against the dictionary (trie) structure the paper measured as
// ~30% faster but too memory-hungry.
func BenchmarkURLAlerter(b *testing.B) {
	const patterns = 100000
	urls := make([]string, 1024)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://site%d.example/path/sub%d/page%d.xml", i%500, i%37, i)
	}
	for _, impl := range []struct {
		name string
		idx  alerter.PrefixIndex
	}{
		{"hash", alerter.NewHashPrefixIndex()},
		{"trie", alerter.NewTriePrefixIndex()},
	} {
		for i := 0; i < patterns; i++ {
			impl.idx.Add(fmt.Sprintf("http://site%d.example/path/sub%d/", i%500, i%37), core.Event(i))
		}
		b.Run(impl.name, func(b *testing.B) {
			b.ReportMetric(float64(impl.idx.MemoryEstimate())/1e6, "MB")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				impl.idx.Lookup(urls[i%len(urls)], func(core.Event) {})
			}
		})
	}
}

// BenchmarkXMLAlerter measures the Section 6.3 postorder word-detection
// algorithm across document sizes and depths (the paper bounds the cost
// by Size × Depth and reports the alerters keep up with the crawl rate).
func BenchmarkXMLAlerter(b *testing.B) {
	xa := alerter.NewXMLAlerter()
	vocab := webgen.Vocabulary()
	for i, w := range vocab {
		xa.Register(core.Event(i+1), sublang.Condition{
			Kind: sublang.CondElement, Tag: fmt.Sprintf("e%d", i%20), Str: w,
		})
	}
	for _, cfg := range []struct{ size, depth int }{
		{100, 5}, {1000, 5}, {1000, 20}, {10000, 5}, {10000, 20},
	} {
		doc := webgen.RandomTree(11, cfg.size, cfg.depth)
		d := &alerter.Doc{
			Meta:   warehouse.Metadata{URL: "http://x/", Type: warehouse.XML},
			Status: warehouse.StatusUnchanged,
			Doc:    doc,
		}
		b.Run(fmt.Sprintf("size=%d/depth=%d", cfg.size, cfg.depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				xa.Detect(d, func(core.Event) {})
			}
		})
	}
}

// BenchmarkXMLDiff measures delta computation between successive catalog
// versions — the change-detection cost the XML alerter depends on.
func BenchmarkXMLDiff(b *testing.B) {
	site := webgen.NewSite(webgen.SiteSpec{Products: 100, Seed: 12})
	url := site.XMLURLs()[0]
	old := site.FetchXML(url, 5)
	new := site.FetchXML(url, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := old.Clone()
		n := new.Clone()
		if _, err := xydiff.Diff(o, n); err != nil {
			b.Fatalf("Diff: %v", err)
		}
	}
}

// diffChain builds the version-pair workloads for BenchmarkDiff: a small
// edit (adjacent versions), a child reorder (rotated catalog), and a
// rewrite (distant versions, most products changed).
func diffChain() (base, small, reorder, rewrite *xmldom.Document) {
	site := webgen.NewSite(webgen.SiteSpec{Products: 100, Seed: 12})
	url := site.XMLURLs()[0]
	base = site.FetchXML(url, 5)
	small = site.FetchXML(url, 6)
	rewrite = site.FetchXML(url, 40)
	reorder = base.Clone()
	kids := reorder.Root.Children
	rot := make([]*xmldom.Node, 0, len(kids))
	rot = append(rot, kids[len(kids)/2:]...)
	rot = append(rot, kids[:len(kids)/2]...)
	reorder.Root.Children = rot
	reorder.Root.PreOrder(func(n *xmldom.Node) bool { n.XID = 0; return true })
	return base, small, reorder, rewrite
}

// BenchmarkDiff measures delta computation over webgen version chains with
// the warehouse's hash-caching discipline: the old version keeps its
// cached structural hash vector across iterations (as a committed version
// does), while the new version's is invalidated every iteration — so each
// iteration pays exactly what a commit pays, hashing the new tree plus the
// anchor-based alignment.
func BenchmarkDiff(b *testing.B) {
	base, small, reorder, rewrite := diffChain()
	for _, c := range []struct {
		name string
		new  *xmldom.Document
	}{
		{"smalledit", small},
		{"reorder", reorder},
		{"rewrite", rewrite},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.new.InvalidateHashes()
				if _, err := xydiff.Diff(base, c.new); err != nil {
					b.Fatalf("Diff: %v", err)
				}
			}
		})
	}
}

// BenchmarkClassify measures projecting a delta onto the new version — the
// per-document cost the manager and XML alerter now share via
// alerter.Doc.Classification instead of paying once per matched query.
func BenchmarkClassify(b *testing.B) {
	base, small, _, _ := diffChain()
	delta, err := xydiff.Diff(base, small)
	if err != nil {
		b.Fatalf("Diff: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xydiff.Classify(small, delta)
	}
}

// BenchmarkReporter reproduces the Section 3 capacity claim: the
// subscription system processes over 2.4 million notifications per day on
// one PC (≈ 28/s sustained; the burst rate here is far higher).
func BenchmarkReporter(b *testing.B) {
	rep := reporter.New(nil)
	const subs = 1000
	for i := 0; i < subs; i++ {
		rep.Register(fmt.Sprintf("S%d", i), &sublang.ReportSpec{
			When: []sublang.ReportTerm{{Kind: sublang.TermCount, Count: 99}},
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.Notify(reporter.Notification{
			Subscription: fmt.Sprintf("S%d", i%subs),
			Label:        "UpdatedPage",
		})
	}
}

// BenchmarkEndToEnd measures the full notification chain — warehouse
// commit, alerters, weak/strong filter, matching, reporting — in
// documents per second, the unit behind "millions of pages per day with
// millions of subscriptions" (Section 1).
func BenchmarkEndToEnd(b *testing.B) {
	sys, err := New(Options{Delivery: DeliveryFunc(func(*Report) error { return nil })})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	// A subscription base over 200 sites with varied conditions.
	for i := 0; i < 200; i++ {
		src := fmt.Sprintf(`subscription Sub%d
monitoring
select <Hit url=URL/>
where URL extends "http://shop%d.example/"
  and new product contains %q
report when notifications.count > 1000000`, i, i%50, webgen.Vocabulary()[i%28])
		if _, err := sys.Subscribe(src); err != nil {
			b.Fatalf("Subscribe: %v", err)
		}
	}
	site := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://shop7.example", Pages: 1, Products: 30, Seed: 13})
	url := site.XMLURLs()[0]
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		doc := site.FetchXML(url, 1+i%50)
		res, err := sys.Store.CommitXML(url, "", "shopping", doc)
		if err != nil {
			b.Fatalf("CommitXML: %v", err)
		}
		sys.Manager.ProcessDoc(&alerter.Doc{
			Meta: res.Meta, Status: res.Status, Doc: res.Doc, Delta: res.Delta,
		})
	}
	elapsed := time.Since(start)
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "docs/s")
	}
}

// BenchmarkProcessDoc isolates the manager's per-document hot path —
// alerter detection, matching, notification building, batched reporter
// delivery — from warehouse commit and version generation: the documents
// are committed once up front and then replayed through ProcessDoc. This
// is the path the de-contention work (pooled scratch, atomic counters,
// NotifyBatch) targets, so allocations per document are the headline
// number here.
func BenchmarkProcessDoc(b *testing.B) {
	sys, err := New(Options{Delivery: DeliveryFunc(func(*Report) error { return nil })})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	for i := 0; i < 200; i++ {
		src := fmt.Sprintf(`subscription Sub%d
monitoring
select <Hit url=URL/>
where URL extends "http://shop%d.example/"
  and new product contains %q
report when notifications.count > 1000000`, i, i%50, webgen.Vocabulary()[i%28])
		if _, err := sys.Subscribe(src); err != nil {
			b.Fatalf("Subscribe: %v", err)
		}
	}
	site := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://shop7.example", Pages: 1, Products: 30, Seed: 13})
	url := site.XMLURLs()[0]
	docs := make([]*alerter.Doc, 0, 64)
	for i := 0; i < 64; i++ {
		res, err := sys.Store.CommitXML(url, "", "shopping", site.FetchXML(url, 1+i))
		if err != nil {
			b.Fatalf("CommitXML: %v", err)
		}
		docs = append(docs, &alerter.Doc{
			Meta: res.Meta, Status: res.Status, Doc: res.Doc, Delta: res.Delta,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		sys.Manager.ProcessDoc(docs[i%len(docs)])
	}
	elapsed := time.Since(start)
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "docs/s")
	}
}

// BenchmarkFlowParallel measures the "Processing speed" distribution of
// Section 4.2: splitting the document flow across workers that share the
// Monitoring Query Processor (matching takes only a read lock).
func BenchmarkFlowParallel(b *testing.B) {
	cardC := shortScale([]int{200000}, []int{20000})[0]
	w := webgen.GenEventWorkload(14, 100000, cardC, 3, 20, 4096)
	matcher := loadMatcher(b, w)
	for _, workers := range shortScale([]int{1, 2, 4, 8}, []int{1}) {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetParallelism(workers)
			var i int64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := atomic.AddInt64(&i, 1)
					matcher.Match(w.Docs[int(n)%len(w.Docs)])
				}
			})
		})
	}
}

// BenchmarkMatcherMemory reproduces the Section 4.2 sizing point: the
// paper fits Card(C) = 10^7 complex events (Card(A) = 10^6, m = 10) in
// ~500 MB. It reports the live heap the structure holds per complex event
// (measured across two forced collections around the build), the
// structure's own estimate, and the measured figure extrapolated to 10^7.
func BenchmarkMatcherMemory(b *testing.B) {
	const (
		cardA = 100000
		m     = 10
		p     = 20
	)
	for _, cardC := range shortScale([]int{10000, 100000, 500000}, []int{10000}) {
		w := webgen.GenEventWorkload(5000, cardA, cardC, m, p, 1024)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		matcher := loadMatcher(b, w)
		runtime.GC()
		runtime.ReadMemStats(&after)
		perComplex := float64(after.HeapAlloc-before.HeapAlloc) / float64(cardC)
		b.Run(fmt.Sprintf("C=%d", cardC), func(b *testing.B) {
			matchLoop(b, matcher, w.Docs) // resets the timer, which drops reported metrics
			b.ReportMetric(perComplex, "B/complex")
			b.ReportMetric(float64(matcher.MemoryEstimate())/float64(cardC), "est-B/complex")
			b.ReportMetric(perComplex*1e7/1e9, "GB@C=1e7")
		})
	}
}

// BenchmarkSubscriptionBaseMemory sizes the whole subscription base, where
// BenchmarkMatcherMemory sizes the matcher alone: push-fanout-shaped
// subscriptions (a site prefix and a content condition, then a path
// prefix, a content condition and `modified self`, two literal select
// clauses) loaded through System.Subscribe, the source text built in the
// loop so it counts. B/subscription and B/complex are the live heap the
// loaded base holds — source text, manager, matcher, alerter, reporter —
// across forced collections; ns/op is one subscribe and unsubscribe beside
// it.
func BenchmarkSubscriptionBaseMemory(b *testing.B) {
	const sites = 450
	subs := shortScale([]int{40000}, []int{2000})[0]
	kinds := []string{"product contains %q", "catalog contains %q", "self contains %q", "name contains %q",
		"category contains %q", "updated product contains %q", "new product contains %q"}
	whens := []string{"immediate", "notifications.count > 30", "notifications.count > 30", "notifications.count > 30", "daily"}
	vocab, rng := webgen.Vocabulary(), rand.New(rand.NewSource(1))
	source := func(name, when string) string {
		cond := func() string { return fmt.Sprintf(kinds[rng.Intn(len(kinds))], vocab[rng.Intn(len(vocab))]) }
		site := rng.Intn(sites)
		return fmt.Sprintf("subscription %s\nmonitoring\nselect <A url=URL/>\nwhere URL extends \"http://f%d.example/\" and %s\n"+
			"monitoring\nselect <B url=URL/>\nwhere URL extends \"http://f%d.example/c/\" and %s and modified self\nreport when %s",
			name, site, cond(), site, cond(), when)
	}
	sys, err := New(Options{Delivery: DeliveryFunc(func(*Report) error { return nil })})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < subs; i++ {
		if _, err := sys.Subscribe(source(fmt.Sprintf("S%d", i), whens[i%len(whens)])); err != nil {
			b.Fatalf("Subscribe: %v", err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	complexN := sys.Manager.Stats().ComplexEvents
	churn := source("Churn", "immediate")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Subscribe(churn); err != nil {
			b.Fatalf("Subscribe: %v", err)
		}
		if err := sys.Unsubscribe("Churn"); err != nil {
			b.Fatalf("Unsubscribe: %v", err)
		}
	}
	b.StopTimer()
	b.ReportMetric(live/float64(subs), "B/subscription")
	b.ReportMetric(live/float64(complexN), "B/complex")
	runtime.KeepAlive(sys)
}

// BenchmarkMatcherFanoutShape loads the shape the event order decides the
// cost of — many sites, each watched by subscriptions that pair its `URL
// extends` prefix with a word shared by the subscriptions of every other
// site, half of them with `modified self` — through Manager.Subscribe, so
// the codes are the ones the manager allocates, and replays the alerts of
// one updated page per site through the matcher. probes/doc is the figure
// to watch: it is a property of the order, not of the machine.
func BenchmarkMatcherFanoutShape(b *testing.B) {
	sys, err := New(Options{Delivery: DeliveryFunc(func(*Report) error { return nil })})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	sites, vocab := shortScale([]int{200}, []int{20})[0], webgen.Vocabulary()
	kinds := []string{"product contains %q", "self contains %q", "name contains %q", "updated product contains %q"}
	cond := func(i int) string { return fmt.Sprintf(kinds[i%len(kinds)], vocab[i*7%len(vocab)]) }
	var docs []core.EventSet
	for s := 0; s < sites; s++ {
		for k := 0; k < 40; k++ {
			src := fmt.Sprintf("subscription F%d_%d\nmonitoring\nselect <A url=URL/>\nwhere %s and URL extends \"http://f%d.example/\"\n"+
				"monitoring\nselect <B url=URL/>\nwhere %s and modified self and URL extends \"http://f%d.example/c/\"\nreport when daily",
				s, k, cond(s+3*k), s, cond(s+5*k+1), s)
			if _, err := sys.Manager.Subscribe(src); err != nil {
				b.Fatalf("Subscribe: %v", err)
			}
		}
		site := webgen.NewSite(webgen.SiteSpec{BaseURL: fmt.Sprintf("http://f%d.example/c/", s), Pages: 1, Products: 8, Seed: int64(s)})
		url := site.XMLURLs()[0]
		for v := 1; v <= 2; v++ {
			res, err := sys.Store.CommitXMLBytes(url, site.Spec().DTD, "shopping", site.FetchXMLBytes(url, v))
			if err != nil {
				b.Fatalf("CommitXMLBytes: %v", err)
			}
			a := sys.Pipeline.Detect(&alerter.Doc{Meta: res.Meta, Status: res.Status, Doc: res.Doc, Delta: res.Delta})
			if v == 2 && a != nil {
				docs = append(docs, a.Events)
			}
		}
	}
	before := sys.Matcher.Stats()
	var dst []core.ComplexID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = sys.Matcher.MatchAppend(dst[:0], docs[i%len(docs)])
	}
	b.StopTimer()
	st := sys.Matcher.Stats()
	b.ReportMetric(float64(st.CellProbes-before.CellProbes)/float64(st.MatchCalls-before.MatchCalls), "probes/doc")
}

// BenchmarkChurn measures dynamic changes to the subscription base — the
// paper's future-work item on subscription churn: registrations and
// removals per second against a loaded structure.
func BenchmarkChurn(b *testing.B) {
	w := webgen.GenEventWorkload(16, 100000, shortScale([]int{200000}, []int{20000})[0], 3, 20, 1)
	matcher := loadMatcher(b, w)
	base := core.ComplexID(len(w.Complex))
	b.Run("add+remove", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			id := base + core.ComplexID(i)
			events := w.Complex[i%len(w.Complex)]
			if err := matcher.Add(id, events); err != nil {
				b.Fatalf("Add: %v", err)
			}
			if err := matcher.Remove(id); err != nil {
				b.Fatalf("Remove: %v", err)
			}
		}
	})
}

// BenchmarkChurnWhileMatching interleaves matching with live updates: the
// reader/writer contention a running system sees when users subscribe.
// The churn goroutine records its first Add/Remove error instead of
// discarding it — a silently failing writer would turn the benchmark into
// an uncontended read loop and overstate match throughput.
func BenchmarkChurnWhileMatching(b *testing.B) {
	w := webgen.GenEventWorkload(17, 100000, shortScale([]int{200000}, []int{20000})[0], 3, 20, 1024)
	matcher := loadMatcher(b, w)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		id := core.ComplexID(len(w.Complex))
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := matcher.Add(id, w.Complex[int(id)%len(w.Complex)]); err != nil {
				done <- fmt.Errorf("churn Add(%d): %w", id, err)
				return
			}
			if err := matcher.Remove(id); err != nil {
				done <- fmt.Errorf("churn Remove(%d): %w", id, err)
				return
			}
			id++
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matcher.Match(w.Docs[i%len(w.Docs)])
	}
	b.StopTimer()
	close(stop)
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSubscribe measures full subscription registration through the
// manager: parsing, validation, event interning, alerter registration.
func BenchmarkSubscribe(b *testing.B) {
	sys, err := New(Options{})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	vocab := webgen.Vocabulary()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := fmt.Sprintf(`subscription Bench%d
monitoring
select <Hit url=URL/>
where URL extends "http://shop%d.example/" and new product contains %q
report when notifications.count > 1000`, i, i%1000, vocab[i%len(vocab)])
		if _, err := sys.Subscribe(src); err != nil {
			b.Fatalf("Subscribe: %v", err)
		}
	}
}

// BenchmarkParse measures ParseBytes, the byte tokenizer with arena node
// allocation the crawler ingests through, over a generated catalog; its
// comparison against the stdlib decoder is internal/xmldom's
// BenchmarkParse.
func BenchmarkParse(b *testing.B) {
	site := webgen.NewSite(webgen.SiteSpec{Products: 100, Seed: 12})
	url := site.XMLURLs()[0]
	data := site.FetchXMLBytes(url, 5)
	b.Run("bytes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := xmldom.ParseBytes(data); err != nil {
				b.Fatalf("ParseBytes: %v", err)
			}
		}
	})
}

// BenchmarkCrawlAlert measures a full crawl→alert round over a corpus
// where few pages can interest anybody: the subscriptions watch a word
// carried by roughly one page in twenty (webgen's RareWord), so the
// streaming ingest gate can reject the rest from the serialized bytes
// before any DOM exists. The prefilter/alwaysdom ratio is the headline
// number of the zero-copy path. The subscriptions are presence-only on
// purpose — a URL clause or an element change condition is a standing
// reason to parse everything, which would disable the gate (see the
// gate construction in New).
func BenchmarkCrawlAlert(b *testing.B) {
	const word = "zyzzyva" // outside webgen's vocabulary: only RareWord pages match
	for _, mode := range []struct {
		name        string
		alwaysParse bool
	}{
		{"prefilter", false},
		{"alwaysdom", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			start := time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)
			now := start
			sys, err := New(Options{
				Clock:       func() time.Time { return now },
				Delivery:    DeliveryFunc(func(*Report) error { return nil }),
				AlwaysParse: mode.alwaysParse,
			})
			if err != nil {
				b.Fatalf("New: %v", err)
			}
			for i := 0; i < 50; i++ {
				src := fmt.Sprintf(`subscription Watch%d
monitoring
select <Hit/>
where product contains %q
report when notifications.count > 1000000`, i, word)
				if _, err := sys.Subscribe(src); err != nil {
					b.Fatalf("Subscribe: %v", err)
				}
			}
			for i := 0; i < shortScale([]int{20}, []int{2})[0]; i++ {
				sys.AddSite(NewSite(SiteSpec{
					BaseURL: fmt.Sprintf("http://mall%d.example", i),
					Pages:   50, Products: 30, Seed: int64(i),
					RareWord: word, RareEvery: 20,
				}))
			}
			pages := sys.Crawler.Pages()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Cycle the virtual clock over a bounded version window so
				// every round re-crawls changed content without webgen's
				// per-version churn replay growing with b.N.
				now = start.Add(time.Duration(i%8) * sys.Crawler.ChangeEvery)
				sys.Crawler.FetchAll()
			}
			b.StopTimer()
			st := sys.Stats()
			if st.Crawler.Fetches > 0 {
				b.ReportMetric(100*float64(st.Crawler.Skipped)/float64(st.Crawler.Fetches), "skip%")
			}
			b.ReportMetric(float64(b.N*pages)/b.Elapsed().Seconds(), "pages/s")
		})
	}
}

// BenchmarkRefetchUnchanged measures the warehouse's tiered change
// detection on the monitoring loop's dominant case: refetches of tracked
// pages whose bytes differ (webgen whitespace reflow) but whose content
// did not change. The tiered mode resolves them with one streaming
// tokenize+hash (no DOM, no diff); the alwaysdiff baseline pays the full
// parse and canonical comparison per page.
func BenchmarkRefetchUnchanged(b *testing.B) {
	for _, mode := range []struct {
		name       string
		alwaysDiff bool
	}{
		{"tiered", false},
		{"alwaysdiff", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			start := time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)
			now := start
			sys, err := New(Options{
				Clock:       func() time.Time { return now },
				Delivery:    DeliveryFunc(func(*Report) error { return nil }),
				AlwaysParse: true, // gate off: every page reaches the warehouse
				AlwaysDiff:  mode.alwaysDiff,
			})
			if err != nil {
				b.Fatalf("New: %v", err)
			}
			for i := 0; i < shortScale([]int{10}, []int{2})[0]; i++ {
				sys.AddSite(NewSite(SiteSpec{
					BaseURL: fmt.Sprintf("http://still%d.example", i),
					Pages:   20, Products: 100, Seed: int64(i),
					PerturbEvery: 1 << 16, PerturbKind: PerturbWhitespace,
				}))
			}
			pages := sys.Crawler.Pages()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Each round serves a byte-different serialization of the
				// same content: tier 1 misses, tier 2 decides.
				now = start.Add(time.Duration(i%8) * sys.Crawler.ChangeEvery)
				sys.Crawler.FetchAll()
			}
			b.StopTimer()
			ws := sys.Store.Stats()
			total := ws.SkippedRawSig + ws.SkippedStructHash + ws.Parsed
			if total > 0 {
				b.ReportMetric(100*float64(ws.SkippedStructHash)/float64(total), "structskip%")
			}
			b.ReportMetric(float64(b.N*pages)/b.Elapsed().Seconds(), "pages/s")
		})
	}
}

// BenchmarkClusterMatch measures distributed matching over loopback TCP —
// the per-document cost of the Section 4.2 distribution when blocks live
// in other processes (here: other goroutines behind real sockets), the
// base sharded over the blocks by the R = 1 ring client.
func BenchmarkClusterMatch(b *testing.B) {
	w := webgen.GenEventWorkload(18, 10000, shortScale([]int{100000}, []int{10000})[0], 3, 20, 1024)
	for _, blocks := range shortScale([]int{1, 4}, []int{1}) {
		addrs := make([]string, blocks)
		var servers []*cluster.Server
		for i := range addrs {
			srv, err := cluster.ServeDynamic("127.0.0.1:0", nil)
			if err != nil {
				b.Fatalf("ServeDynamic: %v", err)
			}
			servers = append(servers, srv)
			addrs[i] = srv.Addr()
		}
		client := cluster.NewRingClientWithMap(cluster.BuildMap(1, 1, addrs))
		for id, events := range w.Complex {
			if err := client.Add(core.ComplexID(id), events); err != nil {
				b.Fatalf("Add: %v", err)
			}
		}
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := client.Match(w.Docs[i%len(w.Docs)]); err != nil {
					b.Fatalf("Match: %v", err)
				}
			}
		})
		client.Close()
		for _, s := range servers {
			s.Close()
		}
	}
}
