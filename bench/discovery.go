package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"xymon"
	"xymon/internal/alerter"
	"xymon/internal/warehouse"
	"xymon/internal/webgen"
)

// discovery-nomatch: a crawl over pages nobody tracks, watched by a few
// presence-only subscriptions on a word one page in twenty carries. Every
// page goes through the ingest gate; only those that pass are pushed. The
// gate reads serialized bytes, so nearly all the time is the prefilter's
// token scan. Pages that pass become tracked on the first pass over the
// tape, which is why that pass is the warm-up.
const rareWord = "zyzzyva" // outside webgen's vocabulary

type discoveryTape struct {
	urls  []string
	dtds  []string
	pages [][]byte
	rare  []bool // the generator's knowledge: does the page carry the word
	order []int
	subs  []string
	imm   int // subscriptions that report immediately
	sha   string
	bytes int64
}

func genDiscovery(seed int64, scale int) (tape, error) {
	t := &discoveryTape{}
	h := sha256.New()
	n := max(discoveryPages/scale, 40)
	const perSite = 50
	for s := 0; len(t.urls) < n; s++ {
		site := webgen.NewSite(webgen.SiteSpec{
			BaseURL: fmt.Sprintf("http://mall%d.example/", s), Pages: perSite,
			Products: discoveryProducts, Seed: seed*104729 + int64(s),
			RareWord: rareWord, RareEvery: discoveryRare,
		})
		for _, u := range site.XMLURLs() {
			data := site.FetchXMLBytes(u, 1)
			t.urls = append(t.urls, u)
			t.dtds = append(t.dtds, site.Spec().DTD)
			t.pages = append(t.pages, data)
			t.rare = append(t.rare, bytes.Contains(data, []byte(rareWord)))
			t.bytes += int64(len(data))
			h.Write(data)
		}
	}
	for i := 0; i < discoverySubs; i++ {
		name, when := fmt.Sprintf("W%d", i), "notifications.count > 1000"
		if i%10 == 0 {
			name, when = fmt.Sprintf("I%d", i), "immediate"
			t.imm++
		}
		src := fmt.Sprintf("subscription %s\nmonitoring\nselect <Hit url=URL/>\nwhere product contains %q\nreport when %s", name, rareWord, when)
		t.subs = append(t.subs, src)
		h.Write([]byte(src))
	}
	t.order = rand.New(rand.NewSource(seed)).Perm(len(t.urls))
	for _, p := range t.order {
		h.Write([]byte{byte(p), byte(p >> 8)})
	}
	t.sha = hex.EncodeToString(h.Sum(nil))
	return t, nil
}

func (t *discoveryTape) sum() string        { return t.sha }
func (t *discoveryTape) pageBytes() float64 { return float64(t.bytes) / float64(len(t.urls)) }

type discoveryInst struct {
	t   *discoveryTape
	sys *xymon.System
	pos int

	sink      *sink
	gated     int64
	passed    int64
	rarePages int
	pre       *alerter.Prefilter
}

// open's timed set-up ends where the steady state begins: it includes the
// first pass over the tape, in which the pages that pass the gate are
// committed for the first time and become tracked.
func (t *discoveryTape) open(string) (instance, error) {
	in := &discoveryInst{t: t, sink: newSink(1, nil)}
	sys, err := xymon.New(xymon.Options{Delivery: xymon.DeliveryFunc(in.sink.deliver)})
	if err != nil {
		return nil, err
	}
	for _, src := range t.subs {
		if _, err := sys.Subscribe(src); err != nil {
			return nil, fmt.Errorf("subscribe: %w", err)
		}
	}
	for _, p := range t.order {
		if !sys.Crawler.Gate(t.urls[p], t.dtds[p], "shopping", t.pages[p]) {
			continue
		}
		n, err := sys.PushXML(t.urls[p], t.dtds[p], "shopping", string(t.pages[p]))
		if err != nil {
			return nil, fmt.Errorf("first commit of %s: %w", t.urls[p], err)
		}
		in.sink.produced.Add(int64(n))
		in.rarePages++
	}
	in.sys, in.sink.armed = sys, true
	in.pre = alerter.NewPrefilter(sys.Pipeline.XML)
	return in, nil
}

func (in *discoveryInst) clients() int               { return 1 }
func (in *discoveryInst) warmup() int                { return len(in.t.urls) }
func (in *discoveryInst) atBoundary(int) bool        { return in.pos == 0 }
func (in *discoveryInst) aux(<-chan struct{}) func() { return nil }
func (in *discoveryInst) side(*report)               {}

func (in *discoveryInst) step(_ int, cl *client) bool {
	t := in.t
	p := t.order[in.pos]
	in.pos = (in.pos + 1) % len(t.order)
	url, dtd, data := t.urls[p], t.dtds[p], t.pages[p]
	slot := in.sink.begin(0, cl, url)
	var (
		pass bool
		n    int
		err  error
	)
	if cl.tr == nil {
		cl.start()
		if pass = in.sys.Crawler.Gate(url, dtd, "shopping", data); pass {
			n, err = in.sys.PushXML(url, dtd, "shopping", string(data))
		}
		cl.stop()
	} else {
		pass, n, err = in.traced(cl, slot, p)
	}
	slot.cl = nil
	in.gated++
	in.sink.produced.Add(int64(n))
	if pass {
		in.passed++
	}
	// The gate must pass exactly the pages carrying the word; each of those
	// raises one notification per subscription, the immediate ones at once.
	want, wantImm := 0, 0
	if t.rare[p] {
		want, wantImm = len(t.subs), t.imm
	}
	return err == nil && pass == t.rare[p] && n == want && slot.imm == wantImm
}

func (in *discoveryInst) traced(cl *client, slot *sinkSlot, p int) (bool, int, error) {
	tr, t := cl.tr, in.t
	url, dtd, data := t.urls[p], t.dtds[p], t.pages[p]
	cl.start()
	t0 := cl.t0
	root := tr.open("doc", t0)
	slot.root = root
	pass := in.sys.Crawler.Gate(url, dtd, "shopping", data)
	ta := now()
	tr.child("crawler.gate_us", root, t0, ta)
	tr.obs("crawler.gate_pass_share", float64(boolInt(pass)))
	var (
		res                 *warehouse.CommitResult
		n                   int
		commitNs, processNs int64
		err                 error
	)
	if pass {
		res, n, commitNs, processNs, err = tracedPush(cl, root, in.sys, url, dtd, data)
	} else {
		cl.stop()
	}
	tr.close(root, t0, cl.end, (ta-t0)+commitNs+processNs)
	if err != nil {
		return pass, 0, err
	}

	s0 := now()
	in.pre.Match(data)
	s1 := now()
	tr.shadow("alerter.prefilter_us", s0, s1)
	tr.obs("prefilter_bytes", float64(len(data)))
	if pass {
		// the page is tracked and byte-identical: the commit stops at the
		// raw signature, so all of it is the warehouse's own
		tr.obs("warehouse.self_us", float64(commitNs)/1e3)
		below := shadowAlert(tr, in.sys, &alerter.Doc{Meta: res.Meta, Status: res.Status, Doc: res.Doc})
		tr.obs("manager.self_us", float64(processNs-below)/1e3)
		tr.obs("manager.notifs_per_doc", float64(n))
	}
	return pass, n, nil
}

func (in *discoveryInst) layers(traced []*client, out *report) { systemLayers(traced, out) }

func (in *discoveryInst) finish(out *report) {
	st := in.sys.Store.Stats()
	newDocs := st.Parsed - st.Diffed
	if int(newDocs) != in.rarePages || st.Diffed != 0 || st.SkippedStructHash != 0 || int64(st.SkippedRawSig) != in.passed {
		out.fail("warehouse saw new=%d raw=%d struct=%d updated=%d; tape says %d new, then %d byte-identical",
			newDocs, st.SkippedRawSig, st.SkippedStructHash, st.Diffed, in.rarePages, in.passed)
	}
	if in.gated > 0 {
		tot := float64(in.gated)
		out.set("warehouse.raw_hit_share", float64(st.SkippedRawSig)/tot)
	}
	in.sink.settle(in.sys, in.gated, out)
}

func (in *discoveryInst) close() { _ = in.sys.Close() }
