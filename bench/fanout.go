package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"xymon"
	"xymon/internal/alerter"
	"xymon/internal/sublang"
	"xymon/internal/warehouse"
	"xymon/internal/webgen"
	"xymon/internal/xmldom"
)

// The fan-out workloads (push-fanout, subscribe-churn) push small pages
// that change on every fetch — each page alternates between two content
// versions — against a subscription base dense enough that a page raises
// dozens of atomic events and matches dozens of subscriptions. Parse and
// diff are cheap here; the matcher, the manager's notification building and
// the reporter are the load. Each site has two pages and each client owns
// one of them, so clients never touch the same URL.

// fanoutKinds are the element conditions a fan-out query pairs with its URL
// prefix; %q is one vocabulary word.
var fanoutKinds = []string{
	"product contains %q",
	"catalog contains %q",
	"self contains %q",
	"name contains %q",
	"category contains %q",
	"updated product contains %q",
	"new product contains %q",
}

type fanoutTape struct {
	clientsN int
	// churn adds the subscription writer; its base is loaded through
	// System.Subscribe, the call the writer makes, where push-fanout loads
	// through Manager.Subscribe.
	churn bool

	urls  []string
	dtds  []string
	pages [][2]string // the two content versions of each page
	order [][]int     // per client: its pages in push order
	subs  []string
	// the churn writer's script: sources it subscribes, in order, under
	// names it later unsubscribes
	scripts []string

	sha   string
	bytes int64
}

func genFanout(seed int64, scale int) (tape, error) {
	return genFan(seed, max(fanoutSubs/scale, 200), max(fanoutSites/scale, 4), 2, false)
}

func genChurn(seed int64, scale int) (tape, error) {
	return genFan(seed, max(churnSubs/scale, 200), max(churnSites/scale, 4), 1, true)
}

func genFan(seed int64, nSubs, nSites, clients int, churn bool) (tape, error) {
	t := &fanoutTape{clientsN: clients, churn: churn, order: make([][]int, clients)}
	h := sha256.New()
	for s := 0; s < nSites; s++ {
		site := webgen.NewSite(webgen.SiteSpec{
			BaseURL: fmt.Sprintf("http://f%d.example/c/", s), Pages: 2,
			Products: fanoutProducts, Seed: seed*15485863 + int64(s),
		})
		for i, u := range site.XMLURLs() {
			v := [2]string{string(site.FetchXMLBytes(u, 1)), string(site.FetchXMLBytes(u, 2))}
			if v[0] == v[1] {
				return nil, fmt.Errorf("%s: the two content versions are identical", u)
			}
			p := len(t.urls)
			t.urls = append(t.urls, u)
			t.dtds = append(t.dtds, site.Spec().DTD)
			t.pages = append(t.pages, v)
			t.order[i%clients] = append(t.order[i%clients], p)
			t.bytes += int64(len(v[0]) + len(v[1]))
			h.Write([]byte(v[0]))
			h.Write([]byte(v[1]))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for c := range t.order {
		rng.Shuffle(len(t.order[c]), func(i, j int) { t.order[c][i], t.order[c][j] = t.order[c][j], t.order[c][i] })
		for _, p := range t.order[c] {
			h.Write([]byte{byte(p), byte(p >> 8)})
		}
	}
	vocab := webgen.Vocabulary()
	cond := func() string {
		return fmt.Sprintf(fanoutKinds[rng.Intn(len(fanoutKinds))], vocab[rng.Intn(len(vocab))])
	}
	source := func(name string, site int, when string) string {
		return fmt.Sprintf("subscription %s\nmonitoring\nselect <A url=URL/>\nwhere URL extends \"http://f%d.example/\" and %s\n"+
			"monitoring\nselect <B url=URL/>\nwhere URL extends \"http://f%d.example/c/\" and %s and modified self\nreport when %s",
			name, site, cond(), site, cond(), when)
	}
	for i := 0; i < nSubs; i++ {
		name, when := fmt.Sprintf("S%d", i), "notifications.count > 30"
		switch i % 5 {
		case 0:
			name, when = fmt.Sprintf("I%d", i), "immediate"
		case 4:
			when = "daily"
		}
		src := source(name, rng.Intn(nSites), when)
		t.subs = append(t.subs, src)
		h.Write([]byte(src))
	}
	if churn {
		// Churned subscriptions watch sites nSites…2·nSites-1, which have no
		// pages: they load the matcher, the manager and the alerter tables
		// like any other, but the notifications a page raises stay a
		// function of the page alone, which the oracle relies on.
		for k := 0; k < churnScripts; k++ {
			src := source(fmt.Sprintf("C%d", k), nSites+rng.Intn(nSites), "notifications.count > 30")
			t.scripts = append(t.scripts, src)
			h.Write([]byte(src))
		}
	}
	t.sha = hex.EncodeToString(h.Sum(nil))
	return t, nil
}

func (t *fanoutTape) sum() string        { return t.sha }
func (t *fanoutTape) pageBytes() float64 { return float64(t.bytes) / float64(2*len(t.urls)) }

// fanClient is one client's cursor and its share of the oracle's memory.
type fanClient struct {
	pos, round int
	docs       int64
	_          [40]byte
}

// seen is what a (page, version) produced the first time it was pushed;
// every later push of the same bytes over the same predecessor must
// produce the same, or a notification was lost or duplicated.
type seen struct {
	notifs, imm int32
	set         bool
}

type fanoutInst struct {
	t     *fanoutTape
	sys   *xymon.System
	clock virtualClock
	sink  *sink
	cls   []fanClient
	ref   [][2]seen // per page, per version

	tickNs, ticks int64

	// churn writer
	subLat    []int64
	subLate   []int64
	subNs     int64
	subs      int64
	unsubNs   int64
	unsubs    int64
	parseNs   int64
	parses    int64
	writeErrs int64
	nextOp    int // operations the writer has issued over all phases
}

func (t *fanoutTape) open(string) (instance, error) {
	in := &fanoutInst{t: t, cls: make([]fanClient, t.clientsN), ref: make([][2]seen, len(t.urls))}
	in.sink = newSink(t.clientsN, func(url string) int {
		// …/catalog0.xml belongs to client 0, …/catalog1.xml to client 1
		if t.clientsN > 1 && len(url) > 5 && url[len(url)-5] == '1' {
			return 1
		}
		return 0
	})
	sys, err := xymon.New(xymon.Options{Clock: in.clock.now, Delivery: xymon.DeliveryFunc(in.sink.deliver)})
	if err != nil {
		return nil, err
	}
	for _, src := range t.subs {
		if t.churn {
			_, err = sys.Subscribe(src)
		} else {
			_, err = sys.Manager.Subscribe(src)
		}
		if err != nil {
			return nil, fmt.Errorf("subscribe: %w", err)
		}
	}
	for p, u := range t.urls {
		n, err := sys.PushXML(u, t.dtds[p], "shopping", t.pages[p][0])
		if err != nil {
			return nil, fmt.Errorf("first commit of %s: %w", u, err)
		}
		in.sink.produced.Add(int64(n))
	}
	if t.churn {
		for _, src := range t.scripts[:churnLive] {
			if _, err := sys.Subscribe(src); err != nil {
				return nil, fmt.Errorf("subscribe: %w", err)
			}
		}
	}
	in.sys, in.sink.armed = sys, true
	return in, nil
}

func (in *fanoutInst) clients() int          { return in.t.clientsN }
func (in *fanoutInst) warmup() int           { return 2 * len(in.t.order[0]) }
func (in *fanoutInst) atBoundary(c int) bool { return in.cls[c].pos == 0 }

func (in *fanoutInst) step(c int, cl *client) bool {
	t, fc := in.t, &in.cls[c]
	order := t.order[c]
	p := order[fc.pos]
	ver := (fc.round + 1) % 2 // set-up committed version 0
	data := t.pages[p][ver]
	slot := in.sink.begin(c, cl, t.urls[p])
	var n int
	var err error
	if cl.tr == nil {
		cl.start()
		n, err = in.sys.PushXML(t.urls[p], t.dtds[p], "shopping", data)
		cl.stop()
	} else {
		n, err = in.traced(cl, slot, p, data, t.pages[p][1-ver])
	}
	slot.cl = nil
	in.sink.produced.Add(int64(n))
	fc.docs++
	ok := err == nil
	if ref := &in.ref[p][ver]; !ref.set {
		*ref = seen{notifs: int32(n), imm: int32(slot.imm), set: true}
	} else if int(ref.notifs) != n || int(ref.imm) != slot.imm {
		ok = false
	}
	if fc.pos++; fc.pos == len(order) {
		fc.pos = 0
		fc.round++
		if c == 0 {
			in.clock.hours.Add(1)
			t0 := now()
			in.sys.Tick()
			in.tickNs += now() - t0
			in.ticks++
		}
	}
	return ok
}

func (in *fanoutInst) traced(cl *client, slot *sinkSlot, p int, data, prevData string) (int, error) {
	tr, t := cl.tr, in.t
	cl.start()
	t0 := cl.t0
	root := tr.open("doc", t0)
	slot.root = root
	raw := []byte(data)
	res, n, commitNs, processNs, err := tracedPush(cl, root, in.sys, t.urls[p], t.dtds[p], raw)
	tr.close(root, t0, cl.end, commitNs+processNs)
	if err != nil {
		return 0, err
	}
	if res.Status != warehouse.StatusUpdated {
		return n, fmt.Errorf("%s: status %s, tape says updated", t.urls[p], res.Status)
	}

	// every fan-out document is an update: stream hash, parse and diff all ran
	var hasher xmldom.StreamHasher
	fresh, delta, inner, err := shadowUpdate(tr, &hasher, raw, prevData)
	if err != nil {
		return n, fmt.Errorf("%s: %w", t.urls[p], err)
	}
	tr.obs("warehouse.self_us", float64(commitNs-inner)/1e3)
	below := shadowAlert(tr, in.sys, &alerter.Doc{Meta: res.Meta, Status: res.Status, Doc: fresh, Delta: delta})
	tr.obs("manager.self_us", float64(processNs-below)/1e3)
	tr.obs("manager.notifs_per_doc", float64(n))
	return n, nil
}

func (in *fanoutInst) aux(stop <-chan struct{}) func() {
	if !in.t.churn {
		return nil
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		in.write(stop)
	}()
	return func() { <-done }
}

// write is the subscription writer: an open loop at churnRate operations
// per second, alternating a fresh Subscribe with an Unsubscribe of the
// oldest churned subscription, so the base stays the size it was loaded at
// (plus the churnLive churned subscriptions in flight).
func (in *fanoutInst) write(stop <-chan struct{}) {
	scripts := in.t.scripts
	base := in.nextOp
	in.subLat, in.subLate = openLoop(churnRate, stop, now, time.Sleep, func(k int) {
		op := base + k
		t0 := now()
		var err error
		if op%2 == 0 {
			_, err = in.sys.Subscribe(scripts[(churnLive+op/2)%len(scripts)])
			in.subNs += now() - t0
			in.subs++
		} else {
			err = in.sys.Unsubscribe(fmt.Sprintf("C%d", op/2%len(scripts)))
			in.unsubNs += now() - t0
			in.unsubs++
		}
		if err != nil {
			in.writeErrs++
		}
	})
	in.nextOp = base + len(in.subLat)
	// the parser's share of a Subscribe, priced on texts the writer used
	for k := 0; k < len(in.subLat)/2 && k < 64; k++ {
		t0 := now()
		_, _ = sublang.Parse(scripts[(base/2+k)%len(scripts)])
		in.parseNs += now() - t0
		in.parses++
	}
}

func (in *fanoutInst) layers(traced []*client, out *report) {
	systemLayers(traced, out)
	if in.ticks > 0 {
		out.set("reporter.tick_us", float64(in.tickNs)/float64(in.ticks)/1e3)
	}
	if in.subs > 0 {
		out.set("manager.subscribe_us", float64(in.subNs)/float64(in.subs)/1e3)
	}
	if in.unsubs > 0 {
		out.set("manager.unsubscribe_us", float64(in.unsubNs)/float64(in.unsubs)/1e3)
	}
	if in.parses > 0 {
		out.set("sublang.parse_us", float64(in.parseNs)/float64(in.parses)/1e3)
	}
}

// side reports the open-loop writer's latencies over the phase just run.
func (in *fanoutInst) side(out *report) {
	if len(in.subLat) == 0 {
		return
	}
	lat, late := make([]float64, len(in.subLat)), make([]float64, len(in.subLate))
	for i := range lat {
		lat[i], late[i] = float64(in.subLat[i])/1e6, float64(in.subLate[i])/1e6
	}
	out.set("subscribe_p50_ms", percentile(lat, 0.50))
	out.set("subscribe_p99_ms", percentile(lat, 0.99))
	out.set("diag.gen_late_p99_ms", percentile(late, 0.99))
}

func (in *fanoutInst) finish(out *report) {
	docs := int64(0)
	for i := range in.cls {
		docs += in.cls[i].docs
	}
	st := in.sys.Store.Stats()
	if newDocs := st.Parsed - st.Diffed; int(newDocs) != len(in.t.urls) || int64(st.Diffed) != docs || st.SkippedRawSig+st.SkippedStructHash != 0 {
		out.fail("warehouse saw new=%d updated=%d unchanged=%d; tape says %d new, %d updated, none unchanged",
			newDocs, st.Diffed, st.SkippedRawSig+st.SkippedStructHash, len(in.t.urls), docs)
	}
	if docs > 0 {
		out.set("warehouse.updated_share", float64(st.Diffed)/float64(docs))
	}
	in.sink.settle(in.sys, docs, out)
	if in.writeErrs > 0 {
		out.fail("%d subscription writes failed", in.writeErrs)
	}
	if in.t.churn {
		// the writer keeps churnLive churned subscriptions live, one more
		// between a Subscribe and its Unsubscribe
		if got, want := len(in.sys.Manager.Subscriptions()), len(in.t.subs)+churnLive; got != want && got != want+1 {
			out.fail("base holds %d subscriptions after churn, loaded %d", got, want)
		}
	}
}

func (in *fanoutInst) close() { _ = in.sys.Close() }
