package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"xymon"
	"xymon/internal/alerter"
	"xymon/internal/stream"
	"xymon/internal/wal"
	"xymon/internal/warehouse"
	"xymon/internal/webgen"
	"xymon/internal/xmldom"
	"xymon/internal/xydiff"
)

// The refetch workloads (steady-refetch, durable-steady) push every tracked
// page once per round. Each page has two content versions, each rendered in
// three byte forms (the canonical one and two whitespace reflows); a page's
// state is one of those six renderings and the plan says, per round and
// page, how it moves: stay (byte-identical refetch), reflow (same content,
// other bytes) or update (other content). Because the plan is relative to
// the state, it can repeat for ever and the mix stays exactly 60/25/15.
const (
	actSame   = 0
	actReflow = 1
	actUpdate = 2

	formsPerContent = 3
)

type refetchRound struct {
	order  []uint16 // pages in push order
	action []uint8  // action[i] applies to order[i]
}

type refetchTape struct {
	durable    bool
	immPerSite int // subscriptions per site that report immediately
	checkpoint int // rounds between System.Checkpoint calls

	urls  []string
	dtds  []string    // per page
	forms [][6]string // per page: content c, form f at c*3+f
	subs  []string    // subscription sources, in load order
	plan  []refetchRound
	index map[string]int // url → page, for the stream consumer

	sha   string
	bytes int64
}

func genSteady(seed int64, scale int) (tape, error) {
	return genRefetch(seed, false, max(steadySites/scale, 2), steadyPagesPerSite, steadySubsPerSite, 0)
}

func genDurable(seed int64, scale int) (tape, error) {
	return genRefetch(seed, true, max(durableSites/scale, 2), durablePagesPerSite, durableSubsPerSite, durableCheckpoint)
}

func genRefetch(seed int64, durable bool, sites, pagesPerSite, subsPerSite, checkpoint int) (tape, error) {
	t := &refetchTape{
		durable: durable, immPerSite: (subsPerSite + 9) / 10, checkpoint: checkpoint,
		index: make(map[string]int),
	}
	h := sha256.New()
	for s := 0; s < sites; s++ {
		site := webgen.NewSite(webgen.SiteSpec{
			BaseURL: fmt.Sprintf("http://shop%d.example/", s), Pages: pagesPerSite,
			Products: steadyProducts, Seed: seed*7919 + int64(s),
			PerturbEvery: formsPerContent, PerturbKind: webgen.PerturbWhitespace,
		})
		for _, u := range site.XMLURLs() {
			var f [6]string
			for v := range f {
				f[v] = string(site.FetchXMLBytes(u, v+1))
				h.Write([]byte(f[v]))
				t.bytes += int64(len(f[v]))
			}
			for c := 0; c < 2; c++ {
				b := f[c*formsPerContent:]
				if b[0] == b[1] || b[1] == b[2] || b[0] == b[2] {
					return nil, fmt.Errorf("%s: two reflows of one content are byte-identical", u)
				}
			}
			if f[0] == f[formsPerContent] {
				return nil, fmt.Errorf("%s: the two content versions are identical", u)
			}
			t.index[u] = len(t.urls)
			t.urls = append(t.urls, u)
			t.dtds = append(t.dtds, site.Spec().DTD)
			t.forms = append(t.forms, f)
		}
	}
	vocab := webgen.Vocabulary()
	for j := 0; j < subsPerSite; j++ {
		for s := 0; s < sites; s++ {
			prefix := fmt.Sprintf("http://shop%d.example/", s)
			var src string
			switch k := j % 10; {
			case k == 0:
				src = fmt.Sprintf("subscription I%d_%d\nmonitoring\nselect <UpdatedPage url=URL/>\nwhere URL extends %q and modified self\nreport when immediate", s, j, prefix)
			case k <= 3:
				src = fmt.Sprintf("subscription A%d_%d\nmonitoring\nselect <UpdatedPage url=URL/>\nwhere URL extends %q and modified self\nreport when notifications.count > 20", s, j, prefix)
			case k <= 6:
				src = fmt.Sprintf("subscription B%d_%d\nmonitoring\nselect <NewProduct url=URL/>\nwhere URL extends %q and new product contains %q\nreport when daily", s, j, prefix, vocab[(s+j)%len(vocab)])
			default:
				src = fmt.Sprintf("subscription C%d_%d\nmonitoring\nselect <Changed url=URL/>\nwhere URL extends %q and updated product\nreport when notifications.count > 20", s, j, prefix)
			}
			t.subs = append(t.subs, src)
			h.Write([]byte(src))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	n := len(t.urls)
	same, reflow := n*60/100, n*25/100
	for r := 0; r < planRounds; r++ {
		rd := refetchRound{order: make([]uint16, n), action: make([]uint8, n)}
		for i, p := range rng.Perm(n) {
			rd.order[i] = uint16(p)
		}
		for i := range rd.action {
			switch {
			case i < same:
				rd.action[i] = actSame
			case i < same+reflow:
				rd.action[i] = actReflow
			default:
				rd.action[i] = actUpdate
			}
		}
		rng.Shuffle(n, func(i, j int) { rd.action[i], rd.action[j] = rd.action[j], rd.action[i] })
		for i := range rd.order {
			h.Write([]byte{byte(rd.order[i]), byte(rd.order[i] >> 8), rd.action[i]})
		}
		t.plan = append(t.plan, rd)
	}
	t.sha = hex.EncodeToString(h.Sum(nil))
	return t, nil
}

func (t *refetchTape) sum() string        { return t.sha }
func (t *refetchTape) pageBytes() float64 { return float64(t.bytes) / float64(6*len(t.urls)) }

// nextForm applies a plan action to a page state.
func nextForm(cur, action uint8) uint8 {
	c, f := cur/formsPerContent, cur%formsPerContent
	switch action {
	case actReflow:
		f = (f + 1) % formsPerContent
	case actUpdate:
		c, f = 1-c, 0
	}
	return c*formsPerContent + f
}

type refetchInst struct {
	t     *refetchTape
	sys   *xymon.System
	clock virtualClock
	dir   string

	cur        []uint8 // rendering each page was last pushed in
	round, pos int

	// what the tape says the warehouse must have seen
	wantRaw, wantStruct, wantUpdated, wantNew uint64

	sink          *sink
	tickNs, ticks int64
	ckptNs, ckpts int64
	ckptFailed    int64
	docsSeen      int64
	hasher        xmldom.StreamHasher
	twin          *xymon.System // in-memory shadow of a durable system
	twinNs        int64

	// durable only
	handed    []atomic.Int64 // per page: hand-in time of its latest push
	reader    *stream.Reader
	nextOff   uint64
	polled    int64
	streamLat []uint32
	pollNs    int64
	polls     int64
	commitNs  int64
	commits   int64
	streamBad int64
	// bytes the process had written, and documents pushed, when the side
	// goroutine last started
	wrote0, docs0 float64
}

func (t *refetchTape) open(dir string) (instance, error) {
	in := &refetchInst{t: t, dir: dir, cur: make([]uint8, len(t.urls)), sink: newSink(1, nil)}
	opts := xymon.Options{Clock: in.clock.now, Delivery: xymon.DeliveryFunc(in.sink.deliver)}
	if t.durable {
		opts.DurableDir = filepath.Join(dir, "durable")
	}
	sys, err := t.load(opts, &in.sink.produced)
	if err != nil {
		return nil, err
	}
	in.sys, in.sink.armed = sys, true
	in.wantNew = uint64(len(t.urls))
	if t.durable {
		in.handed = make([]atomic.Int64, len(t.urls))
		if in.reader, err = stream.OpenReader(sys.Stream.Dir(), "bench", stream.ReaderOptions{}); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// load is the timed set-up: a new System, the subscription base, and the
// first commit of every tracked page.
func (t *refetchTape) load(opts xymon.Options, produced *atomic.Int64) (*xymon.System, error) {
	sys, err := xymon.New(opts)
	if err != nil {
		return nil, err
	}
	for _, src := range t.subs {
		if _, err := sys.Subscribe(src); err != nil {
			return nil, fmt.Errorf("subscribe: %w", err)
		}
	}
	for p, u := range t.urls {
		n, err := sys.PushXML(u, t.dtds[p], "shopping", t.forms[p][0])
		if err != nil {
			return nil, fmt.Errorf("first commit of %s: %w", u, err)
		}
		produced.Add(int64(n))
	}
	return sys, nil
}

func (in *refetchInst) clients() int { return 1 }
func (in *refetchInst) warmup() int  { return 2 * len(in.t.urls) }

func (in *refetchInst) step(_ int, cl *client) bool {
	t := in.t
	rd := &t.plan[in.round%len(t.plan)]
	p, act := int(rd.order[in.pos]), rd.action[in.pos]
	prev := in.cur[p]
	next := nextForm(prev, act)
	data := t.forms[p][next]
	slot := in.sink.begin(0, cl, t.urls[p])
	switch act {
	case actSame:
		in.wantRaw++
	case actReflow:
		in.wantStruct++
	default:
		in.wantUpdated++
	}
	wantImm := 0
	if act == actUpdate {
		wantImm = t.immPerSite
	}

	var n int
	var err error
	if cl.tr == nil {
		cl.start()
		if in.handed != nil {
			in.handed[p].Store(cl.t0)
		}
		n, err = in.sys.PushXML(t.urls[p], t.dtds[p], "shopping", data)
		cl.stop()
	} else {
		n, err = in.traced(cl, slot, p, act, data, t.forms[p][prev])
	}
	slot.cl = nil
	in.cur[p] = next
	in.sink.produced.Add(int64(n))
	in.docsSeen++
	ok := err == nil && slot.imm == wantImm && (act == actUpdate || n == 0) && n >= wantImm

	if in.pos++; in.pos == len(rd.order) {
		in.pos = 0
		in.round++
		in.endRound()
	}
	return ok
}

// atBoundary lets a timed phase end on a whole round, so the measured mix
// is the plan's exactly.
func (in *refetchInst) atBoundary(int) bool { return in.pos == 0 }

// endRound advances the virtual clock an hour and runs the time-driven
// machinery: Tick every round, Checkpoint every few when durable.
func (in *refetchInst) endRound() {
	in.clock.hours.Add(1)
	t0 := now()
	in.sys.Tick()
	in.tickNs += now() - t0
	in.ticks++
	if in.t.checkpoint > 0 && in.round%in.t.checkpoint == 0 {
		t0 = now()
		if err := in.sys.Checkpoint(); err != nil {
			in.ckptFailed++
		}
		in.ckptNs += now() - t0
		in.ckpts++
	}
}

// traced runs one document as the composite calls PushXML makes, each under
// a span, then prices the inner layers with shadow calls on the same input.
func (in *refetchInst) traced(cl *client, slot *sinkSlot, p int, act uint8, data, prevData string) (int, error) {
	tr, t := cl.tr, in.t
	cl.start()
	t0 := cl.t0
	if in.handed != nil {
		in.handed[p].Store(t0)
	}
	root := tr.open("doc", t0)
	slot.root = root
	raw := []byte(data)
	res, n, commitNs, processNs, err := tracedPush(cl, root, in.sys, t.urls[p], t.dtds[p], raw)
	tr.close(root, t0, cl.end, commitNs+processNs)
	if err != nil {
		return 0, err
	}
	want := warehouse.StatusUnchanged
	if act == actUpdate {
		want = warehouse.StatusUpdated
	}
	if res.Status != want {
		return n, fmt.Errorf("%s: status %s, tape says %s", t.urls[p], res.Status, want)
	}

	// Shadows. Which inner functions ran inside the commit follows from the
	// action: a byte-identical refetch stops at the SHA-256, a reflow at the
	// stream hash, an update pays stream hash, parse and diff.
	inner := int64(0)
	shadowDoc, shadowDelta := res.Doc, (*xydiff.Delta)(nil)
	switch act {
	case actReflow:
		s0 := now()
		_, _, _ = in.hasher.Sum(raw, 1)
		s1 := now()
		tr.shadow("xmldom.streamhash_us", s0, s1)
		inner = s1 - s0
	case actUpdate:
		if shadowDoc, shadowDelta, inner, err = shadowUpdate(tr, &in.hasher, raw, prevData); err != nil {
			return n, fmt.Errorf("%s: %w", t.urls[p], err)
		}
	}
	tr.obs("warehouse.self_us", float64(commitNs-inner)/1e3)

	below := shadowAlert(tr, in.sys, &alerter.Doc{Meta: res.Meta, Status: res.Status, Doc: shadowDoc, Delta: shadowDelta})
	tr.obs("manager.self_us", float64(processNs-below)/1e3)
	tr.obs("manager.notifs_per_doc", float64(n))

	if t.durable {
		if in.twin == nil {
			var discard atomic.Int64
			twin, err := t.load(xymon.Options{Clock: in.clock.now}, &discard)
			if err != nil {
				return n, err
			}
			// bring the twin's pages to the renderings the real system held
			// before this document (in.cur[p] is still its previous one)
			for q, u := range t.urls {
				if in.cur[q] != 0 {
					_, _ = twin.PushXML(u, t.dtds[q], "shopping", t.forms[q][in.cur[q]])
				}
			}
			in.twin = twin
		}
		s0 := now()
		_, _ = in.twin.PushXML(t.urls[p], t.dtds[p], "shopping", data)
		s1 := now()
		tr.shadow("twin.doc_us", s0, s1)
		in.twinNs += s1 - s0
	}
	return n, nil
}

// side reports the consumer's hand-in → Poll delays over the phase just run.
func (in *refetchInst) side(out *report) {
	if len(in.streamLat) == 0 {
		return
	}
	sortNs(in.streamLat)
	out.set("stream_p50_ms", quantile(in.streamLat, 0.50)/1e6)
	out.set("diag.stream_p99_ms", quantile(in.streamLat, 0.99)/1e6)
	// everything the process wrote in the phase went to the durable directory
	if docs := float64(in.docsSeen) - in.docs0; docs > 0 {
		out.set("wal.bytes_per_doc", (bytesWritten()-in.wrote0)/docs)
	}
}

func (in *refetchInst) aux(stop <-chan struct{}) func() {
	if in.reader == nil {
		return nil
	}
	in.streamLat = in.streamLat[:0]
	in.wrote0, in.docs0 = bytesWritten(), float64(in.docsSeen)
	done := make(chan struct{})
	go func() {
		defer close(done)
		in.consume(stop)
	}()
	return func() { <-done }
}

// consume tails the change-stream like a pull subscriber: poll, check that
// offsets are contiguous, time the reports of immediate subscriptions from
// their document's hand-in, commit the cursor. After stop it drains what is
// left, so every published report is seen before the phase ends.
func (in *refetchInst) consume(stop <-chan struct{}) {
	idle := time.NewTicker(200 * time.Microsecond) // pace of polling while caught up
	defer idle.Stop()
	stopping := false
	for {
		if !stopping {
			select {
			case <-stop:
				stopping = true
			default:
			}
		}
		t0 := now()
		recs, err := in.reader.Poll(0)
		t1 := now()
		if err != nil {
			in.streamBad++
			return
		}
		if len(recs) == 0 {
			if stopping {
				return
			}
			select {
			case <-stop:
				stopping = true
			case <-idle.C:
			}
			continue
		}
		in.pollNs += t1 - t0
		in.polls++
		for i := range recs {
			r := &recs[i]
			if r.Offset != in.nextOff {
				in.streamBad++
			}
			in.nextOff = r.Offset + 1
			in.polled++
			if r.Subscription[0] != 'I' {
				continue
			}
			if p, ok := in.t.index[attrValue(r.XML, "url")]; ok {
				in.streamLat = append(in.streamLat, clampNs(t1-in.handed[p].Load()))
			} else {
				in.streamBad++
			}
		}
		t0 = now()
		if err := in.reader.Commit(); err != nil {
			in.streamBad++
		}
		in.commitNs += now() - t0
		in.commits++
	}
}

// attrValue extracts name="value" from serialized XML.
func attrValue(xml, name string) string {
	i := strings.Index(xml, name+`="`)
	if i < 0 {
		return ""
	}
	rest := xml[i+len(name)+2:]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}

func (in *refetchInst) layers(traced []*client, out *report) {
	_, rootNs := systemLayers(traced, out)
	if in.t.durable && rootNs > 0 {
		// what the same documents cost a system without DurableDir is the
		// share that is not fsync, journal and stream
		out.set("trace.durable_share", 1-float64(in.twinNs)/float64(rootNs))
	}
	if in.ticks > 0 {
		out.set("reporter.tick_us", float64(in.tickNs)/float64(in.ticks)/1e3)
	}
	if in.ckpts > 0 {
		out.set("wal.checkpoint_ms", float64(in.ckptNs)/float64(in.ckpts)/1e6)
	}
	if in.polls > 0 {
		out.set("stream.poll_us", float64(in.pollNs)/float64(in.polls)/1e3)
		out.set("stream.poll_batch", float64(in.polled)/float64(in.polls))
		out.set("stream.commit_us", float64(in.commitNs)/float64(in.commits)/1e3)
	}
}

func (in *refetchInst) finish(out *report) {
	st := in.sys.Store.Stats()
	gotNew := st.Parsed - st.Diffed
	if st.SkippedRawSig != in.wantRaw || st.SkippedStructHash != in.wantStruct || st.Diffed != in.wantUpdated || gotNew != in.wantNew {
		out.fail("warehouse saw raw=%d struct=%d updated=%d new=%d, tape says %d/%d/%d/%d",
			st.SkippedRawSig, st.SkippedStructHash, st.Diffed, gotNew, in.wantRaw, in.wantStruct, in.wantUpdated, in.wantNew)
	}
	if tot := float64(in.docsSeen); tot > 0 {
		// shares of the documents pushed after set-up, as the warehouse counted them
		out.set("warehouse.raw_hit_share", float64(st.SkippedRawSig)/tot)
		out.set("warehouse.struct_hit_share", float64(st.SkippedStructHash)/tot)
		out.set("warehouse.updated_share", float64(st.Diffed)/tot)
		out.set("warehouse.new_share", float64(gotNew-in.wantNew)/tot)
	}
	in.sink.settle(in.sys, in.docsSeen, out)
	if !in.t.durable {
		return
	}

	if in.ckptFailed > 0 {
		out.fail("%d checkpoints failed", in.ckptFailed)
	}
	if reports := in.sink.reports.Load(); in.streamBad > 0 || in.polled != reports {
		out.fail("stream consumer: %d gaps or unknown reports, %d records polled for %d reports delivered", in.streamBad, in.polled, reports)
	}
	in.probes(out)
	if err := in.sys.Close(); err != nil {
		out.fail("close: %v", err)
	}
	t0 := now()
	again, err := xymon.New(xymon.Options{Clock: in.clock.now, DurableDir: filepath.Join(in.dir, "durable")})
	out.set("recover_s", float64(now()-t0)/1e9)
	if err != nil {
		out.fail("reopen: %v", err)
		return
	}
	if got := len(again.Manager.Subscriptions()); got != len(in.t.subs) {
		out.fail("recovered %d subscriptions, base is %d", got, len(in.t.subs))
	}
	if err := again.Close(); err != nil {
		out.fail("close after recovery: %v", err)
	}
}

// probes prices one durable append and one stream publish on logs of their
// own beside the system's, with a record the size of a journalled report.
func (in *refetchInst) probes(out *report) {
	rec := []byte(strings.Repeat("x", 300))
	const n = 200
	if l, err := wal.Open(filepath.Join(in.dir, "probe-wal"), wal.Options{}); err == nil {
		t0 := now()
		for i := 0; i < n; i++ {
			_ = l.Append(rec) // a failing probe only skews its own figure
		}
		out.set("wal.append_us", float64(now()-t0)/n/1e3)
		_ = l.Close()
	}
	if l, err := stream.Open(filepath.Join(in.dir, "probe-stream"), stream.Options{}); err == nil {
		recs := []stream.Record{{Subscription: "probe", Notifications: 1, XML: string(rec)}}
		t0 := now()
		for i := 0; i < n; i++ {
			_, _ = l.Publish(recs)
		}
		out.set("stream.publish_us", float64(now()-t0)/n/1e3)
		_ = l.Close()
	}
}

func (in *refetchInst) close() { _ = in.sys.Close() }
