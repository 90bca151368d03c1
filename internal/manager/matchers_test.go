package manager

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"xymon/internal/baseline"
	"xymon/internal/core"
	"xymon/internal/webgen"
)

var (
	_ Matcher = (*core.Matcher)(nil)
	_ Matcher = (*baseline.Naive)(nil)
	_ Matcher = (*baseline.Counting)(nil)
)

// seamMatchers are the matchers the Manager's concurrency tests run over:
// the system's, and the naive scan of Section 4.1, which shares no
// structure with it.
var seamMatchers = []struct {
	name string
	new  func() Matcher
}{
	{"core", func() Matcher { return core.NewMatcher() }},
	{"naive", func() Matcher { return baseline.NewNaive() }},
}

// TestManagerMatchersAgree runs one seeded history through three Managers,
// over core.Matcher, baseline.Naive and baseline.Counting: subscriptions of
// one to four of orderConds (so conditions are shared across the base),
// subscribed and unsubscribed between committed versions of a webgen site.
// Every subscription must receive the same multiset of notifications from
// all three. Besides, a subscription is never notified once its
// Unsubscribe has returned, and the matcher, the query table and the
// atomic event codes hold exactly what the live subscriptions need.
func TestManagerMatchersAgree(t *testing.T) {
	impls := []struct {
		name string
		m    Matcher
	}{
		{"core", core.NewMatcher()},
		{"naive", baseline.NewNaive()},
		{"counting", baseline.NewCounting()},
	}
	rigs := make([]*rig, len(impls))
	got := make([]map[string][]string, len(impls))
	live := map[string][]int{} // subscription -> its orderConds indices
	for i, impl := range impls {
		rigs[i], got[i] = newRigOver(t, impl.m), map[string][]string{}
	}
	rng := rand.New(rand.NewSource(23))
	site := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://o.example/c/", Pages: 3, Products: 6, Seed: 11})
	urls := site.XMLURLs()
	var names []string // live subscriptions, in subscription order
	docs, subs := 0, 0
	for step := 0; step < 600; step++ {
		switch x := rng.Float64(); {
		case x < 0.3 && len(names) < 60:
			conds := rng.Perm(len(orderConds))[:1+rng.Intn(4)]
			where := make([]string, len(conds))
			for i, c := range conds {
				where[i] = orderConds[c]
			}
			name := fmt.Sprintf("M%d", subs)
			src := fmt.Sprintf("subscription %s\nmonitoring\nselect <Hit url=URL status=STATUS/>\nwhere %s\nreport when immediate",
				name, strings.Join(where, " and "))
			if _, err := rigs[0].mgr.Subscribe(src); err != nil {
				continue // a clause of weak conditions only: redrawn
			}
			for _, r := range rigs[1:] {
				r.subscribe(src)
			}
			live[name] = conds
			names = append(names, name)
			subs++
		case x < 0.45 && len(names) > 0:
			i := rng.Intn(len(names))
			for _, r := range rigs {
				if err := r.mgr.Unsubscribe(names[i]); err != nil {
					t.Fatalf("Unsubscribe(%s): %v", names[i], err)
				}
			}
			delete(live, names[i])
			names = slices.Delete(names, i, i+1)
		default:
			u, v := urls[docs%len(urls)], 1+docs/len(urls)
			docs++
			var produced []int
			for i, r := range rigs {
				produced = append(produced, r.commitXML(u, site.Spec().DTD, "shopping", string(site.FetchXMLBytes(u, v))))
				for _, rep := range r.reports {
					if _, ok := live[rep.Subscription]; !ok {
						t.Errorf("%s: %s notified after its Unsubscribe returned", impls[i].name, rep.Subscription)
					}
					got[i][rep.Subscription] = append(got[i][rep.Subscription], rep.Doc.XML())
				}
				r.reports = r.reports[:0]
			}
			if produced[1] != produced[0] || produced[2] != produced[0] {
				t.Fatalf("step %d, %s v%d: %v notifications from %s, %s and %s", step, u, v, produced,
					impls[0].name, impls[1].name, impls[2].name)
			}
		}
		distinct := map[int]bool{}
		for _, conds := range live {
			for _, c := range conds {
				distinct[c] = true
			}
		}
		for i, r := range rigs {
			held := 0 // ids the query table resolves
			for id := range r.mgr.nextComplex {
				if r.mgr.queries.get(id) != nil {
					held++
				}
			}
			if st := r.mgr.Stats(); st.ComplexEvents != len(live) || held != len(live) || st.AtomicEvents != len(distinct) {
				t.Fatalf("step %d, %s: %d complex events, %d queries and %d atomic events; %d live subscriptions over %d conditions",
					step, impls[i].name, st.ComplexEvents, held, st.AtomicEvents, len(live), len(distinct))
			}
		}
	}
	if docs < 100 || subs < 100 {
		t.Fatalf("the history committed %d documents and %d subscriptions", docs, subs)
	}
	total := 0
	for _, notes := range got {
		for _, xs := range notes {
			slices.Sort(xs)
		}
	}
	for _, xs := range got[0] {
		total += len(xs)
	}
	if total == 0 {
		t.Fatal("the history raised no notification")
	}
	for i := 1; i < len(got); i++ {
		if !reflect.DeepEqual(got[i], got[0]) {
			for sub, want := range got[0] {
				if !slices.Equal(got[i][sub], want) {
					t.Errorf("%s: %s got %d notifications, %s %d", sub, impls[i].name, len(got[i][sub]), impls[0].name, len(want))
				}
			}
			t.Fatalf("%s and %s disagree over %d notifications", impls[i].name, impls[0].name, total)
		}
	}
	t.Logf("%d documents, %d subscriptions, %d notifications", docs, subs, total)
}
