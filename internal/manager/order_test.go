package manager

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xymon/internal/alerter"
	"xymon/internal/core"
	"xymon/internal/sublang"
	"xymon/internal/webgen"
)

// orderConds has at least two conditions of every selectivity class, in the
// subscription language.
var orderConds = []string{
	`URL = "http://o.example/c/catalog0.xml"`, `DOCID = 3`,
	`URL extends "http://o.example/"`, `URL extends "http://o.example/c/"`, `filename = "catalog1.xml"`,
	`DTD = "http://o.example/catalog.dtd"`, `DTDID = 1`, `domain = "shopping"`,
	`modified self`, `new self`, `LastUpdate >= "2001-01-01"`, `LastAccessed < "2031-01-01"`,
	`self contains "camera"`, `self contains "digital"`, `product contains "camera"`,
	`name contains "radio"`, `updated product`, `new product contains "digital"`,
}

// orderBase writes n subscriptions, each a conjunction of two to four of
// orderConds drawn in random order — so content conditions are met before
// the locations they will sort after, within a clause and across the base.
// Clauses made only of weak conditions are redrawn (Section 5.1 rejects them).
func orderBase(rng *rand.Rand, n int) []string {
	subs := make([]string, 0, n)
	for len(subs) < n {
		where := make([]string, 0, 4)
		for _, i := range rng.Perm(len(orderConds))[:2+rng.Intn(3)] {
			where = append(where, orderConds[i])
		}
		src := fmt.Sprintf("subscription O%d\nmonitoring\nselect <Hit url=URL/>\nwhere %s\nreport when immediate",
			len(subs), strings.Join(where, " and "))
		if _, err := sublang.Parse(src); err != nil {
			continue
		}
		subs = append(subs, src)
	}
	return subs
}

// Whatever the order conditions arrive in, every code carries its
// condition's class above the sequence bits, so identity < location <
// document-wide < content; and a condition shared by many where clauses
// still interns to one code.
func TestCodesFollowSelectivityClass(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	subs := orderBase(rng, 60)
	for round := 0; round < 4; round++ {
		rng.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
		r := newRig(t, nil)
		for _, src := range subs {
			r.subscribe(src)
		}
		m := r.mgr
		if len(m.condCodes) > len(orderConds) {
			t.Fatalf("%d codes for %d distinct conditions", len(m.condCodes), len(orderConds))
		}
		var lo, hi [sublang.NumClasses]core.Event
		var seen [sublang.NumClasses]int
		for code, cond := range m.condOf {
			class := cond.Class()
			if got := sublang.Class(code >> classShift); got != class {
				t.Errorf("%q: code %#x is in class %d, condition in class %d", cond, code, got, class)
			}
			if m.condCodes[cond.String()] != code {
				t.Errorf("%q interned twice", cond)
			}
			if seen[class] == 0 || code < lo[class] {
				lo[class] = code
			}
			hi[class] = max(hi[class], code)
			seen[class]++
		}
		for c := sublang.ClassIdentity; c < sublang.ClassContent; c++ {
			if seen[c] < 2 || seen[c+1] < 2 {
				t.Fatalf("class %d or %d has too few conditions in the base (%v)", c, c+1, seen)
			}
			if hi[c] >= lo[c+1] {
				t.Errorf("class %d reaches %#x, class %d starts at %#x", c, hi[c], c+1, lo[c+1])
			}
		}
		refs := 0
		for _, n := range m.condRef {
			refs += n
		}
		if want := strings.Count(strings.Join(subs, "\n"), " and ") + len(subs); refs != want {
			t.Errorf("%d references held, the base has %d conditions", refs, want)
		}
	}
}

// orderRun loads the base and pushes four versions of a webgen site through
// it, returning every notification as "subscription payload", sorted.
func orderRun(t *testing.T, subs []string) []string {
	r := newRig(t, nil)
	for _, src := range subs {
		r.subscribe(src)
	}
	site := webgen.NewSite(webgen.SiteSpec{BaseURL: "http://o.example/c/", Pages: 3, Products: 6, Seed: 11})
	produced := 0
	for v := 1; v <= 4; v++ {
		for _, u := range site.XMLURLs() {
			res, err := r.store.CommitXMLBytes(u, site.Spec().DTD, "shopping", site.FetchXMLBytes(u, v))
			if err != nil {
				t.Fatal(err)
			}
			produced += r.mgr.ProcessDoc(&alerter.Doc{Meta: res.Meta, Status: res.Status, Doc: res.Doc, Delta: res.Delta})
		}
	}
	var out []string
	for _, rep := range r.reports {
		out = append(out, rep.Subscription+" "+rep.Doc.XML())
	}
	if len(out) != produced || produced == 0 {
		t.Fatalf("%d notifications produced, %d immediate reports", produced, len(out))
	}
	slices.Sort(out)
	return out
}

// The codes a base gets depend on the order it was loaded in; what it
// notifies must not.
func TestNotificationsIndependentOfLoadOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	subs := orderBase(rng, 80)
	want := orderRun(t, subs)
	for round := 0; round < 2; round++ {
		shuffled := slices.Clone(subs)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for i, src := range shuffled {
			// and the conditions of each where clause, reversed
			head, where, _ := strings.Cut(src, "\nwhere ")
			where, tail, _ := strings.Cut(where, "\nreport")
			conds := strings.Split(where, " and ")
			slices.Reverse(conds)
			shuffled[i] = head + "\nwhere " + strings.Join(conds, " and ") + "\nreport" + tail
		}
		if got := orderRun(t, shuffled); !slices.Equal(got, want) {
			t.Fatalf("round %d: %d notifications, %d in the original order; first difference at %d",
				round, len(got), len(want), firstDiff(got, want))
		}
	}
}

func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// A class whose sequence numbers are used up fails the subscription cleanly:
// nothing stays registered, nothing is journalled, codes of other classes
// and shared conditions keep working — and a released code is not handed out
// again, because an alert in flight may still carry it.
func TestCodeSpaceExhaustion(t *testing.T) {
	j := &MemJournal{}
	r := newRig(t, j)
	r.mgr.seqLimit = 3
	sub := func(name string, conds ...string) string {
		return fmt.Sprintf("subscription %s\nmonitoring\nselect <Hit/>\nwhere %s\nreport when immediate", name, strings.Join(conds, " and "))
	}
	r.subscribe(sub("A", `URL extends "http://a.example/"`, `self contains "one"`))
	r.subscribe(sub("B", `URL extends "http://b.example/"`, `self contains "two"`))
	first := r.mgr.condCodes[`self contains "one"`]

	// Releasing a code does not give its sequence number back.
	if err := r.mgr.Unsubscribe("A"); err != nil {
		t.Fatal(err)
	}
	r.subscribe(sub("C", `URL extends "http://c.example/"`, `self contains "three"`))
	for key, code := range r.mgr.condCodes {
		if code == first {
			t.Fatalf("%s reuses released code %#x", key, code)
		}
	}

	// Content and location are both at the limit now. D's first condition is
	// shared and interns; its second needs a fourth content code.
	before, _ := j.Records()
	stats := r.mgr.Stats()
	_, err := r.mgr.Subscribe(sub("D", `self contains "two"`, `URL extends "http://b.example/"`, `self contains "four"`))
	if !errors.Is(err, ErrCodeSpaceExhausted) {
		t.Fatalf("Subscribe past the limit: %v", err)
	}
	if after, _ := j.Records(); len(after) != len(before) {
		t.Errorf("failed subscription journalled: %d records, %d before", len(after), len(before))
	}
	if got := r.mgr.Stats(); got != stats {
		t.Errorf("failed subscription left state behind: %+v, before %+v", got, stats)
	}
	if n := r.mgr.condRef[r.mgr.condCodes[`self contains "two"`]]; n != 1 {
		t.Errorf("shared condition holds %d references after the rollback, want 1", n)
	}
	if subs := r.mgr.Subscriptions(); slices.Contains(subs, "D") {
		t.Errorf("D is registered: %v", subs)
	}
	if err := r.mgr.Unsubscribe("D"); !errors.Is(err, ErrUnknownSubscription) {
		t.Errorf("Unsubscribe(D) = %v, want ErrUnknownSubscription", err)
	}
	// Other classes still have room, and shared conditions need no code.
	r.subscribe(sub("E", `URL = "http://b.example/x.xml"`, `self contains "two"`, `modified self`))
	r.commitXML("http://b.example/x.xml", "", "", `<p>two</p>`)
	if n := r.commitXML("http://b.example/x.xml", "", "", `<p>two more</p>`); n != 2 {
		t.Errorf("B and E raised %d notifications, want 2", n)
	}
}
