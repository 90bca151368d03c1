package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"xymon"
	"xymon/internal/alerter"
	"xymon/internal/warehouse"
	"xymon/internal/xmldom"
	"xymon/internal/xydiff"
)

// What the workloads that drive a whole xymon.System share: the virtual
// clock, the harness's Delivery with its notification bookkeeping, and the
// shadow calls that price the alerters and the matcher.

var epoch = time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)

// virtualClock is the system's time source: the harness advances it one
// hour per round, so periodic report conditions fire on a schedule the tape
// fixes instead of on wall time.
type virtualClock struct{ hours atomic.Int64 }

func (c *virtualClock) now() time.Time {
	return epoch.Add(time.Duration(c.hours.Load()) * time.Hour)
}

// sinkSlot is one client's document in flight, padded so two clients do
// not share a cache line.
type sinkSlot struct {
	cl   *client
	url  string
	root int32 // the document's root span when traced
	imm  int   // immediate reports delivered for it
	_    [24]byte
}

// sink is the harness's Delivery. Every report is counted; a report of an
// immediate subscription (named I…) must arrive on the goroutine, and
// during the call, of the document that raised it and carry its URL — that
// is what "arrives exactly once" is checked against, together with the
// conservation check at the end of the run.
type sink struct {
	slots      []sinkSlot
	route      func(url string) int // client a URL belongs to
	armed      bool                 // set-up is over: immediate reports must match a document in flight
	deliveredN atomic.Int64         // notifications carried by delivered reports
	reports    atomic.Int64
	stray      atomic.Int64 // immediate reports outside their document
	produced   atomic.Int64 // notifications the system said it produced
}

func newSink(clients int, route func(string) int) *sink {
	if route == nil {
		route = func(string) int { return 0 }
	}
	return &sink{slots: make([]sinkSlot, clients), route: route}
}

// begin marks url as client c's document in flight.
func (s *sink) begin(c int, cl *client, url string) *sinkSlot {
	sl := &s.slots[c]
	sl.cl, sl.url, sl.imm, sl.root = cl, url, 0, -1
	return sl
}

func (s *sink) deliver(rep *xymon.Report) error {
	s.deliveredN.Add(int64(rep.Notifications))
	s.reports.Add(1)
	if !s.armed || rep.Subscription[0] != 'I' {
		return nil
	}
	url := ""
	if rep.Doc != nil && len(rep.Doc.Children) > 0 {
		url, _ = rep.Doc.Children[0].Attr("url")
	}
	sl := &s.slots[s.route(url)]
	if sl.cl == nil || sl.url != url {
		s.stray.Add(1)
		return nil
	}
	sl.imm++
	sl.cl.noteDelivery()
	if tr := sl.cl.tr; tr != nil {
		at := now()
		tr.add("delivery", sl.root, at, at, false)
	}
	return nil
}

// settle is the end-of-run half of the oracle: every notification the
// system said it produced was delivered in a report or is still buffered,
// none twice, and no immediate report strayed from its document.
func (s *sink) settle(sys *xymon.System, docs int64, out *report) {
	buffered := int64(0)
	for _, name := range sys.Manager.Subscriptions() {
		buffered += int64(sys.Reporter.Buffered(name))
	}
	if p, d := s.produced.Load(), s.deliveredN.Load(); p != d+buffered {
		out.fail("notifications produced %d ≠ delivered %d + buffered %d", p, d, buffered)
	}
	if n := s.stray.Load(); n > 0 {
		out.fail("%d immediate reports arrived outside their document", n)
	}
	if r := s.reports.Load(); r > 0 && docs > 0 {
		out.set("reporter.reports_per_doc", float64(r)/float64(docs))
		out.set("reporter.notifs_per_report", float64(s.deliveredN.Load())/float64(r))
	}
}

// shadowAlert prices the alerters and the matcher for one document: Detect
// on a fresh alerter.Doc (so its classification cache is not the real
// document's) and MatchAppend on the resulting event set. It returns the
// shadowed time, which the caller subtracts from ProcessDoc's span to get
// the manager's and reporter's own.
func shadowAlert(tr *tracer, sys *xymon.System, d *alerter.Doc) int64 {
	s0 := now()
	a := sys.Pipeline.Detect(d)
	s1 := now()
	tr.shadow("alerter.detect_us", s0, s1)
	below := s1 - s0
	events, strong := 0, false
	if a != nil {
		events, strong = len(a.Events), a.Strong
	}
	tr.obs("alerter.events_per_doc", float64(events))
	tr.obs("alerter.alert_share", float64(boolInt(strong)))
	tr.obs("alerter.weak_share", float64(boolInt(a != nil && !strong)))
	if strong {
		s0 = now()
		matched := sys.Matcher.MatchAppend(nil, a.Events)
		s1 = now()
		tr.shadow("core.match_us", s0, s1)
		tr.obs("core.matched_per_doc", float64(len(matched)))
		below += s1 - s0
	}
	return below
}

// tracedPush is PushXML taken apart, for a labelled document: the commit
// and ProcessDoc, each under a child span of root. The caller has called
// cl.start and opened root; tracedPush calls cl.stop when ProcessDoc returns
// and reports the time each of the two calls took.
func tracedPush(cl *client, root int32, sys *xymon.System, url, dtd string, raw []byte) (res *warehouse.CommitResult, n int, commitNs, processNs int64, err error) {
	ta := now()
	res, err = sys.Store.CommitXMLBytes(url, dtd, "shopping", raw)
	tb := now()
	if err != nil {
		cl.stop()
		return nil, 0, tb - ta, 0, err
	}
	doc := &alerter.Doc{Meta: res.Meta, Status: res.Status, Doc: res.Doc, Delta: res.Delta}
	tc := now()
	n = sys.Manager.ProcessDoc(doc)
	cl.stop()
	cl.tr.child("warehouse.commit_us", root, ta, tb)
	cl.tr.child("manager.process_us", root, tc, cl.end)
	return res, n, tb - ta, cl.end - tc, nil
}

// shadowUpdate prices what an updating commit runs inside: the stream hash
// of the new bytes, their parse, and the diff and classification against
// the previous version — on freshly parsed copies, not on the documents the
// warehouse owns. The old copy's hash vector is primed first, as a stored
// version's is, so the diff hashes only the new tree. It returns the new
// document and delta for the alerter shadow, and the time of the calls that
// sit inside CommitXMLBytes (classification runs later, in Detect).
func shadowUpdate(tr *tracer, hasher *xmldom.StreamHasher, raw []byte, prev string) (*xmldom.Document, *xydiff.Delta, int64, error) {
	s0 := now()
	_, _, herr := hasher.Sum(raw, 1)
	s1 := now()
	tr.shadow("xmldom.streamhash_us", s0, s1)
	inner := s1 - s0
	s0 = now()
	fresh, perr := xmldom.ParseBytes(raw)
	s1 = now()
	tr.shadow("xmldom.parse_us", s0, s1)
	tr.obs("xmldom.parse_bytes", float64(len(raw)))
	inner += s1 - s0
	old, oerr := xmldom.ParseBytes([]byte(prev))
	if err := errors.Join(herr, perr, oerr); err != nil {
		return nil, nil, 0, fmt.Errorf("shadow parse: %w", err)
	}
	old.Hashes()
	s0 = now()
	delta, err := xydiff.Diff(old, fresh)
	s1 = now()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("shadow diff: %w", err)
	}
	tr.shadow("xydiff.diff_us", s0, s1)
	tr.obs("xydiff.ops_per_delta", float64(len(delta.Ops)))
	inner += s1 - s0
	s0 = now()
	xydiff.Classify(fresh, delta)
	tr.shadow("xydiff.classify_us", s0, now())
	return fresh, delta, inner, nil
}

// systemLayers turns the traced clients' sums into per-layer metrics: each
// figure summed under a metric's own name becomes its mean, plus the rates
// and shares derived from them.
func systemLayers(traced []*client, out *report) (sums layerSums, rootNs int64) {
	sums, rootNs, selfNs := mergeTracers(traced)
	for _, m := range perLayer {
		if sums.count(m.name) > 0 {
			out.set(m.name, sums.mean(m.name))
		}
	}
	if b := sums.total("xmldom.parse_bytes"); b > 0 {
		out.set("xmldom.parse_mb_per_s", b/sums.total("xmldom.parse_us"))
	}
	if b := sums.total("prefilter_bytes"); b > 0 {
		out.set("alerter.prefilter_mb_per_s", b/sums.total("alerter.prefilter_us"))
	}
	if rootNs > 0 {
		out.set("trace.unattributed_pct", 100*float64(selfNs)/float64(rootNs))
		out.set("trace.front_share", sums.total("crawler.gate_us")*1e3/float64(rootNs))
		// matcher, manager and reporter: ProcessDoc less the alerters
		below := sums.total("alerter.detect_us") * 1e3
		out.set("trace.match_report_share", (sums.total("manager.process_us")*1e3-below)/float64(rootNs))
	}
	return sums, rootNs
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
