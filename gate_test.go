package xymon

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"xymon/internal/alerter"
	"xymon/internal/warehouse"
)

// gateSub is a presence-only subscription named name on one condition.
func gateSub(name, cond string) string {
	return fmt.Sprintf("subscription %s\nmonitoring\nselect <Hit url=URL/>\nwhere %s\nreport when immediate", name, cond)
}

// TestGateStubsAgreeWithScreen holds Crawler.Gate, which refuses a
// byte-identical refetch of a page it refused before from the page's stub,
// to the gate without stubs, evaluated afresh at every call: tracked, a
// continuous query, a change condition, a URL condition that could alert,
// or the pre-filter. The seeded history mixes pages with and without the
// watched word, one-byte edits, malformed pages, pushes that make a page
// tracked, deletions, and subscriptions that come and go: a word indexed
// under a tag no page has it under, the same word under other tags (a
// tag-only change to its entry), and its last condition removed.
func TestGateStubsAgreeWithScreen(t *testing.T) {
	sys, _, _ := newSystem(t, Options{})
	site := NewSite(SiteSpec{BaseURL: "http://stub.example/", Pages: 12, Products: 20, Seed: 5, RareWord: "zyzzyva", RareEvery: 3})
	urls, dtd := site.XMLURLs(), site.Spec().DTD
	pre := alerter.NewPrefilter(sys.Pipeline.XML)
	screen := func(url string, data []byte) bool {
		return sys.Store.Tracked(url) || sys.Trigger.Len() > 0 || sys.Pipeline.XML.HasChangeConds() ||
			sys.Pipeline.URL.CouldAlert(url, warehouse.Filename(url), dtd, "shopping") || pre.Match(data)
	}
	conds := []string{
		`price contains "zyzzyva"`, // indexes the word; no page has it there
		`product contains "zyzzyva"`,
		`product strict contains "zyzzyva"`, // the word sits under name
		`name strict contains "zyzzyva"`,
		`self contains "zyzzyva"`,
		`category contains "hydrangea"`, // a second word, on no page
	}
	subscribed := make([]bool, len(conds))
	rng := rand.New(rand.NewSource(1))
	var gated, passed, malformed int
	for step := 0; step < 4000; step++ {
		switch r := rng.Intn(10); {
		case r < 2:
			i := rng.Intn(len(conds))
			name := fmt.Sprintf("S%d", i)
			var err error
			if subscribed[i] {
				err = sys.Unsubscribe(name)
			} else {
				_, err = sys.Subscribe(gateSub(name, conds[i]))
			}
			if err != nil {
				t.Fatalf("step %d: toggling %s: %v", step, name, err)
			}
			subscribed[i] = !subscribed[i]
		case r == 2:
			if _, err := sys.Store.Delete(urls[rng.Intn(len(urls))]); err != nil && !errors.Is(err, warehouse.ErrUnknownURL) {
				t.Fatalf("step %d: Delete: %v", step, err)
			}
		default:
			url := urls[rng.Intn(len(urls))]
			data := site.FetchXMLBytes(url, 1+rng.Intn(2))
			switch rng.Intn(8) {
			case 0: // a one-byte edit, which may break the markup
				data = append([]byte(nil), data...)
				data[rng.Intn(len(data))] ^= 1
			case 1:
				data, malformed = data[:len(data)/2], malformed+1
			}
			want := screen(url, data)
			if got := sys.Crawler.Gate(url, dtd, "shopping", data); got != want {
				t.Fatalf("step %d: Gate(%s, %d bytes) = %v, the stub-free gate says %v (subscribed %v)", step, url, len(data), got, want, subscribed)
			}
			gated++
			if want {
				passed++
				if !sys.Store.Tracked(url) && rng.Intn(4) == 0 {
					_, _ = sys.PushXML(url, dtd, "shopping", string(data)) // a malformed page fails here
				}
			}
		}
	}
	st := sys.Store.Stats()
	t.Logf("%d gated, %d passed, %d malformed; %d stub hits, %d stubs left", gated, passed, malformed, st.StubHits, st.Stubs)
	if st.StubHits == 0 || passed == 0 || passed == gated {
		t.Fatalf("the history reached no stub hit or no mix of decisions: %d hits, %d of %d passed", st.StubHits, passed, gated)
	}
}

// TestGateStubBesideSubscribe: one goroutine gates a refused page in a
// loop, writing and hitting its stub, while the test subscribes to a word
// the page carries and unsubscribes again. Once Subscribe returns, the
// next Gate of those bytes passes; once Unsubscribe returns, it refuses.
func TestGateStubBesideSubscribe(t *testing.T) {
	sys, _, _ := newSystem(t, Options{})
	// A word no page carries keeps the index non-empty, so each refusal
	// is the screen's and writes the stub.
	if _, err := sys.Subscribe(gateSub("Other", `category contains "hydrangea"`)); err != nil {
		t.Fatal(err)
	}
	url, page := "http://race.example/p.xml", []byte(`<catalog><product><name>zyzzyva</name></product></catalog>`)
	gate := func() bool { return sys.Crawler.Gate(url, "", "shopping", page) }
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				gate()
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for round := 0; round < 200; round++ {
		if _, err := sys.Subscribe(gateSub("Watch", `product contains "zyzzyva"`)); err != nil {
			t.Fatal(err)
		}
		if !gate() {
			t.Fatalf("round %d: the gate refused a page carrying a word subscribed to before the call", round)
		}
		if err := sys.Unsubscribe("Watch"); err != nil {
			t.Fatal(err)
		}
		if gate() {
			t.Fatalf("round %d: the gate passed a page whose word was unsubscribed before the call", round)
		}
	}
}
