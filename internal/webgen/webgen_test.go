package webgen

import (
	"testing"

	"xymon/internal/core"
	"xymon/internal/xydiff"
)

func TestGenEventWorkloadShape(t *testing.T) {
	w := GenEventWorkload(1, 1000, 200, 3, 20, 50)
	if len(w.Complex) != 200 || len(w.Docs) != 50 {
		t.Fatalf("sizes: %d complex, %d docs", len(w.Complex), len(w.Docs))
	}
	for _, c := range w.Complex {
		if len(c) != 3 {
			t.Fatalf("complex event arity %d, want 3", len(c))
		}
		if !core.Canonical(c).IsCanonical() || len(core.Canonical(c)) != 3 {
			t.Fatalf("complex event has duplicates: %v", c)
		}
		for _, e := range c {
			if int(e) >= 1000 {
				t.Fatalf("event %d outside universe", e)
			}
		}
	}
	for _, d := range w.Docs {
		if len(d) != 20 || !d.IsCanonical() {
			t.Fatalf("doc set %v", d)
		}
	}
}

func TestGenEventWorkloadDeterministic(t *testing.T) {
	a := GenEventWorkload(7, 100, 10, 3, 5, 5)
	b := GenEventWorkload(7, 100, 10, 3, 5, 5)
	for i := range a.Complex {
		for j := range a.Complex[i] {
			if a.Complex[i][j] != b.Complex[i][j] {
				t.Fatal("workload not deterministic")
			}
		}
	}
	c := GenEventWorkload(8, 100, 10, 3, 5, 5)
	same := true
	for i := range a.Complex {
		for j := range a.Complex[i] {
			if a.Complex[i][j] != c.Complex[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestKEstimate(t *testing.T) {
	w := GenEventWorkload(1, 100000, 100000, 3, 20, 1)
	if got := w.K(); got != 3.0 {
		t.Errorf("K = %v, want 3", got)
	}
}

func TestWorkloadLoadIntoMatcher(t *testing.T) {
	w := GenEventWorkload(3, 500, 300, 4, 25, 10)
	m := core.NewMatcher()
	if err := w.Load(m.Add); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if m.Len() != 300 {
		t.Errorf("Len = %d", m.Len())
	}
	for _, d := range w.Docs {
		m.Match(d) // must not panic; correctness is covered by core tests
	}
}

func TestDrawDistinctCapsAtUniverse(t *testing.T) {
	w := GenEventWorkload(1, 5, 3, 10, 10, 2)
	for _, c := range w.Complex {
		if len(c) != 5 {
			t.Errorf("arity %d, want capped 5", len(c))
		}
	}
}

func TestSiteDeterministicFetch(t *testing.T) {
	s := NewSite(SiteSpec{BaseURL: "http://shop.example", Pages: 3, Seed: 42, HTMLShare: 2})
	urls := s.URLs()
	if len(urls) != 5 {
		t.Fatalf("URLs = %d, want 5", len(urls))
	}
	a := s.FetchXML(urls[0], 3)
	b := s.FetchXML(urls[0], 3)
	if a.XML() != b.XML() {
		t.Error("FetchXML not deterministic")
	}
	if string(s.FetchHTML(s.HTMLURLs()[0], 2)) != string(s.FetchHTML(s.HTMLURLs()[0], 2)) {
		t.Error("FetchHTML not deterministic")
	}
	if string(s.FetchHTML(s.HTMLURLs()[0], 2)) == string(s.FetchHTML(s.HTMLURLs()[0], 3)) {
		t.Error("HTML versions should differ")
	}
}

func TestSiteVersionsEvolve(t *testing.T) {
	s := NewSite(SiteSpec{Seed: 7})
	url := s.XMLURLs()[0]
	v1 := s.FetchXML(url, 1)
	v2 := s.FetchXML(url, 2)
	if v1.XML() == v2.XML() {
		t.Fatal("versions should differ")
	}
	// The evolution must be expressible as a delta (same root, incremental
	// changes), which is what the warehouse will compute.
	delta, err := xydiff.Diff(v1, v2)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if delta.Empty() {
		t.Error("delta should not be empty")
	}
	// Version 2 adds one product (v%2==0) and updates some prices.
	if len(v2.Root.Elements("product")) != len(v1.Root.Elements("product"))+1 {
		t.Errorf("products: v1=%d v2=%d", len(v1.Root.Elements("product")), len(v2.Root.Elements("product")))
	}
}

func TestSiteDefaults(t *testing.T) {
	s := NewSite(SiteSpec{})
	spec := s.Spec()
	if spec.Pages == 0 || spec.Products == 0 || spec.Domain == "" || spec.DTD == "" {
		t.Errorf("defaults not applied: %+v", spec)
	}
	if got := s.XMLURLs()[0]; got != "http://site.example/catalog0.xml" {
		t.Errorf("url = %q", got)
	}
}

func TestRandomTreeSizeAndDepth(t *testing.T) {
	for _, c := range []struct{ size, depth int }{{10, 3}, {200, 5}, {1000, 10}, {2, 2}} {
		d := RandomTree(1, c.size, c.depth)
		if got := d.Root.Size(); got != c.size {
			t.Errorf("size = %d, want %d", got, c.size)
		}
		if got := d.Root.Depth(); got > c.depth {
			t.Errorf("depth = %d, want <= %d", got, c.depth)
		}
	}
}

func TestVocabularyIsolated(t *testing.T) {
	v := Vocabulary()
	v[0] = "MUTATED"
	if Vocabulary()[0] == "MUTATED" {
		t.Error("Vocabulary must return a copy")
	}
}

func TestOwnsAndIsHTML(t *testing.T) {
	s := NewSite(SiteSpec{BaseURL: "http://own.example"})
	if !s.Owns("http://own.example/x.xml") || s.Owns("http://other.example/x.xml") {
		t.Error("Owns broken")
	}
	if !s.IsHTML("http://own.example/p.html") || s.IsHTML("http://own.example/c.xml") {
		t.Error("IsHTML broken")
	}
}

func TestHiddenURLsAndLinks(t *testing.T) {
	s := NewSite(SiteSpec{BaseURL: "http://h.example", Pages: 2, HTMLShare: 1, HiddenPages: 2, Seed: 5})
	hidden := s.HiddenURLs()
	if len(hidden) != 2 || hidden[0] != "http://h.example/hidden0.xml" {
		t.Fatalf("hidden = %v", hidden)
	}
	// Version 1: no hidden links yet.
	links1 := ExtractLinks(s.FetchHTML(s.HTMLURLs()[0], 1))
	for _, l := range links1 {
		for _, h := range hidden {
			if l == h {
				t.Errorf("hidden page linked at version 1")
			}
		}
	}
	// Version 4: both hidden pages linked.
	links4 := ExtractLinks(s.FetchHTML(s.HTMLURLs()[0], 4))
	found := 0
	for _, l := range links4 {
		for _, h := range hidden {
			if l == h {
				found++
			}
		}
	}
	if found != 2 {
		t.Errorf("hidden links at v4 = %d, want 2", found)
	}
	// Hidden pages render like any catalog page.
	if s.FetchXML(hidden[0], 1).Root.Data != "catalog" {
		t.Error("hidden page does not render")
	}
}

func TestKZeroUniverse(t *testing.T) {
	w := &EventWorkload{CardA: 0, CardC: 10, M: 3}
	if w.K() != 0 {
		t.Errorf("K with zero universe = %v", w.K())
	}
}
