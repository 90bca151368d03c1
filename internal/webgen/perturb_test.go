package webgen

import (
	"bytes"
	"testing"

	"xymon/internal/xmldom"
)

func streamRoot(t *testing.T, data []byte) uint64 {
	t.Helper()
	var sh xmldom.StreamHasher
	h, _, err := sh.Sum(data, 0)
	if err != nil {
		t.Fatalf("Sum(%q): %v", data, err)
	}
	return h
}

// TestPerturbWhitespaceNeutral: within one content window, every refetch
// renders different bytes with an identical structural hash — the exact
// property the warehouse's tier-2 fast path keys on.
func TestPerturbWhitespaceNeutral(t *testing.T) {
	site := NewSite(SiteSpec{
		BaseURL:      "http://perturb.example/",
		Pages:        2,
		Seed:         7,
		PerturbEvery: 5,
		PerturbKind:  PerturbWhitespace,
	})
	for _, url := range site.XMLURLs() {
		base := site.FetchXMLBytes(url, 1)
		want := streamRoot(t, base)
		prev := base
		for v := 2; v <= 5; v++ {
			got := site.FetchXMLBytes(url, v)
			if bytes.Equal(got, prev) {
				t.Errorf("%s v%d: refetch bytes identical to v%d", url, v, v-1)
			}
			if h := streamRoot(t, got); h != want {
				t.Errorf("%s v%d: perturbation changed the structural hash: %#x != %#x", url, v, h, want)
			}
			// The canonical form is stable too: signature-level unchanged.
			d, err := xmldom.ParseBytes(got)
			if err != nil {
				t.Fatalf("%s v%d: %v", url, v, err)
			}
			if b, err := xmldom.ParseBytes(base); err != nil || d.XML() != b.XML() {
				t.Errorf("%s v%d: canonical form drifted", url, v)
			}
			prev = got
		}
		// The next window is a real content change.
		if h := streamRoot(t, site.FetchXMLBytes(url, 6)); h == want {
			t.Errorf("%s v6: new content window kept the old structural hash", url)
		}
	}
}

// TestPerturbDeterministic: the same (url, version) always renders the
// same bytes, perturbed or not — crawls stay reproducible.
func TestPerturbDeterministic(t *testing.T) {
	mk := func() *Site {
		return NewSite(SiteSpec{
			BaseURL:      "http://perturb.example/",
			Pages:        1,
			Seed:         7,
			PerturbEvery: 4,
			PerturbKind:  PerturbAttrOrder,
		})
	}
	a, b := mk(), mk()
	url := a.XMLURLs()[0]
	for v := 1; v <= 9; v++ {
		if !bytes.Equal(a.FetchXMLBytes(url, v), b.FetchXMLBytes(url, v)) {
			t.Fatalf("v%d: nondeterministic render", v)
		}
	}
}

// TestPerturbAttrOrderParses: attr-order perturbation keeps the markup
// well-formed and the canonical content (names, prices) intact, while
// generally changing the ordered-attribute structural hash — feeding the
// parse+diff tier rather than the skip tier.
func TestPerturbAttrOrderParses(t *testing.T) {
	site := NewSite(SiteSpec{
		BaseURL:      "http://perturb.example/",
		Pages:        1,
		Products:     12,
		Seed:         3,
		PerturbEvery: 6,
		PerturbKind:  PerturbAttrOrder,
	})
	url := site.XMLURLs()[0]
	base := site.FetchXML(url, 1)
	changed := false
	for v := 2; v <= 6; v++ {
		doc := site.FetchXML(url, v) // panics on malformed output
		if len(doc.Root.Children) != len(base.Root.Children) {
			t.Fatalf("v%d: product count changed within a content window", v)
		}
		if streamRoot(t, site.FetchXMLBytes(url, v)) != streamRoot(t, site.FetchXMLBytes(url, 1)) {
			changed = true
		}
	}
	if !changed {
		t.Error("attr-order perturbation never flipped an attribute pair across 5 refetches")
	}
}
