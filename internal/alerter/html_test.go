package alerter

import (
	"slices"
	"strings"
	"testing"

	"xymon/internal/core"
	"xymon/internal/sublang"
	"xymon/internal/warehouse"
	"xymon/internal/xmldom"
)

// htmlReference is the HTML alerter the word index replaced, kept as the
// oracle of the HTML body scan: its own table from normalised word to
// `self contains` codes, and an unscreened scan of the raw body that
// raises each word's codes once per document.
type htmlReference map[string][]core.Event

func (r htmlReference) register(code core.Event, cond sublang.Condition) {
	if cond.Kind != sublang.CondSelfContains {
		return
	}
	w := xmldom.NormalizeWord(cond.Str)
	r[w] = append(r[w], code)
}

func (r htmlReference) unregister(code core.Event, cond sublang.Condition) {
	if cond.Kind != sublang.CondSelfContains {
		return
	}
	w := xmldom.NormalizeWord(cond.Str)
	if i := slices.Index(r[w], code); i >= 0 {
		r[w] = slices.Delete(r[w], i, i+1)
	}
	if len(r[w]) == 0 {
		delete(r, w)
	}
}

func (r htmlReference) detect(body []byte) core.EventSet {
	var out []core.Event
	var ws xmldom.WordScanner
	seen := make(map[string]bool)
	for w, i := ws.Next(body, 0); w != nil; w, i = ws.Next(body, i) {
		if codes, ok := r[string(w)]; ok && !seen[string(w)] {
			seen[string(w)] = true
			out = append(out, codes...)
		}
	}
	return core.Canonical(out)
}

// htmlRig registers every condition with a Pipeline and with the
// reference, and holds the Pipeline's alert on an HTML page to the
// reference's codes.
type htmlRig struct {
	t   testing.TB
	p   *Pipeline
	ref htmlReference
}

func newHTMLRig(t testing.TB) *htmlRig {
	return &htmlRig{t: t, p: NewPipeline(), ref: make(htmlReference)}
}

func (r *htmlRig) register(code core.Event, cond sublang.Condition) {
	r.p.Register(code, cond)
	r.ref.register(code, cond)
}

func (r *htmlRig) unregister(code core.Event, cond sublang.Condition) {
	r.p.Unregister(code, cond)
	r.ref.unregister(code, cond)
}

// check detects body as a new HTML page, so a registered `new tag`
// condition would fire were the page read as XML. Every code must be
// emitted once, and the alert must carry exactly the reference's codes.
func (r *htmlRig) check(body string) core.EventSet {
	r.t.Helper()
	d := htmlDoc("http://h.example/p.html", warehouse.StatusNew, body)
	emitted := make(map[core.Event]int)
	r.p.XML.Detect(d, func(c core.Event) { emitted[c]++ })
	for c, n := range emitted {
		if n != 1 {
			r.t.Errorf("body %q: code %d emitted %d times, want once", body, c, n)
		}
	}
	got, want := detect(r.p, d), r.ref.detect(d.Content)
	if !got.Equal(want) {
		r.t.Errorf("body %q: events = %v, reference = %v", body, got, want)
	}
	return got
}

func selfContains(w string) sublang.Condition {
	return sublang.Condition{Kind: sublang.CondSelfContains, Str: w}
}

func TestHTMLSelfContainsMatchesReference(t *testing.T) {
	r := newHTMLRig(t)
	conds := map[core.Event]sublang.Condition{
		1:  selfContains("camera"),
		2:  selfContains("Camera"), // the same word: a second code
		3:  selfContains("div"),    // a tag name
		4:  selfContains("href"),   // an attribute name
		5:  selfContains("amp"),    // an entity name
		6:  selfContains("café"),
		7:  selfContains("ÜBER"),
		8:  {Kind: sublang.CondElement, Tag: "p", Str: "turntable"}, // tag contains only
		9:  {Kind: sublang.CondElement, Tag: "p", Str: "radio", Strict: true},
		10: {Kind: sublang.CondElement, Change: sublang.OpNew, Tag: "p"},
		11: selfContains("42"),
	}
	for code, c := range conds {
		r.register(code, c)
	}
	for _, c := range []struct {
		name, body string
		want       core.EventSet
	}{
		{"text", "a digital camera", core.EventSet{1, 2}},
		{"markup", `<div class="x"><a href="/">home</a></div>`, core.EventSet{3, 4}},
		{"entities", `caf&eacute; &amp; more`, core.EventSet{5}},
		{"non-ASCII", `<p>Café über alles</p>`, core.EventSet{6, 7}},
		{"repeated", "camera Camera CAMERA <div>camera</div>", core.EventSet{1, 2, 3}},
		{"tag contains only", "<p>turntable radio</p>", nil},
		{"digits", "model 42x and 42", core.EventSet{11}},
		{"empty", "", nil},
		{"no word", "<<>>&; -- !", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			r.t = t
			if got := r.check(c.body); !got.Equal(c.want) {
				t.Errorf("events = %v, want %v", got, c.want)
			}
		})
	}
	r.t = t

	// Registered and unregistered between calls.
	body := "<div>camera</div>"
	r.unregister(2, conds[2])
	if got := r.check(body); !got.Equal(core.EventSet{1, 3}) {
		t.Errorf("after dropping code 2: %v, want {1,3}", got)
	}
	r.unregister(1, conds[1])
	r.unregister(3, conds[3])
	if got := r.check(body); got != nil {
		t.Errorf("after dropping every word of the body: %v, want none", got)
	}
	r.register(12, selfContains("CAMERA"))
	if got := r.check(body); !got.Equal(core.EventSet{12}) {
		t.Errorf("after registering code 12: %v, want {12}", got)
	}
	r.register(13, conds[8]) // the word now has both kinds of entry
	r.unregister(12, selfContains("CAMERA"))
	r.register(14, selfContains("turntable"))
	if got := r.check("camera turntable"); !got.Equal(core.EventSet{14}) {
		t.Errorf("after the last changes: %v, want {14}", got)
	}
}

// FuzzHTMLSelfContains holds the HTML body scan to the reference over
// fuzzed bodies and word lists: words is a comma-separated list, every
// third word registered as `p contains word` (which must never fire on
// HTML), the rest as `self contains word`. The body is checked with all
// registered, again after every other condition is unregistered, and
// again after those are registered under new codes.
func FuzzHTMLSelfContains(f *testing.F) {
	for _, s := range [][2]string{
		{"camera,Camera,turntable", "a digital camera and a CAMERA"},
		{"div,href,amp", `<div class="x"><a href="/">&amp;</a></div>`},
		{"café,ÜBER,straße", "<p>Café über STRASSE straße</p>"},
		{"42,x42,42x", "model 42x and 42"},
		{"turntable,radio,turntable", "<p>turntable radio</p>"},
		{"a b,,!", "a b ! <>"},
		{"", ""},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, words, body string) {
		r := newHTMLRig(t)
		list := strings.Split(words, ",")
		if len(list) > 32 {
			list = list[:32]
		}
		cond := func(i int) sublang.Condition {
			if i%3 == 2 {
				return sublang.Condition{Kind: sublang.CondElement, Tag: "p", Str: list[i]}
			}
			return selfContains(list[i])
		}
		for i := range list {
			r.register(core.Event(i+1), cond(i))
		}
		r.check(body)
		for i := 0; i < len(list); i += 2 {
			r.unregister(core.Event(i+1), cond(i))
		}
		r.check(body)
		for i := 0; i < len(list); i += 2 {
			r.register(core.Event(100+i), cond(i))
		}
		r.check(body)
	})
}
