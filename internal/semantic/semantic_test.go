package semantic

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"sort"
	"strings"
	"testing"

	"xymon/internal/webgen"
	"xymon/internal/xmldom"
)

func trained() *Classifier {
	c := NewClassifier()
	c.AddDomain("shopping", "catalog", "product", "price", "name", "category")
	c.AddDomain("culture", "museum", "painting", "title", "address", "artist")
	c.AddDomain("biology", "genome", "protein", "sequence", "organism")
	return c
}

func TestClassifyDocuments(t *testing.T) {
	c := trained()
	cases := []struct {
		xml  string
		want string
	}{
		{`<catalog><product><name>x</name><price>1</price></product></catalog>`, "shopping"},
		{`<culture><museum><painting><title>x</title></painting></museum></culture>`, "culture"},
		{`<genome><protein><sequence>MKV</sequence></protein></genome>`, "biology"},
	}
	for _, cse := range cases {
		got, score, err := c.Classify([]byte(cse.xml))
		if err != nil {
			t.Fatal(err)
		}
		if got != cse.want {
			t.Errorf("Classify(%s) = %q (%.2f), want %q", cse.xml, got, score, cse.want)
		}
		if score <= 0 || score > 1 {
			t.Errorf("score = %v out of range", score)
		}
	}
}

func TestClassifyUnknownStaysUnclassified(t *testing.T) {
	c := trained()
	got, score, _ := c.Classify([]byte(`<weather><forecast>rain</forecast></weather>`))
	if got != "" {
		t.Errorf("Classify = %q (%.2f), want unclassified", got, score)
	}
}

func TestClassifyTags(t *testing.T) {
	c := trained()
	got, _ := c.ClassifyTags([]string{"museum", "painting", "artist"})
	if got != "culture" {
		t.Errorf("ClassifyTags = %q", got)
	}
	if got, _ := c.ClassifyTags(nil); got != "" {
		t.Errorf("ClassifyTags(nil) = %q", got)
	}
}

func TestCaseInsensitive(t *testing.T) {
	c := NewClassifier()
	c.AddDomain("shopping", "Catalog", "Product")
	got, _, _ := c.Classify([]byte(`<CATALOG><PRODUCT>x</PRODUCT></CATALOG>`))
	if got != "shopping" {
		t.Errorf("Classify = %q", got)
	}
}

func TestTrainSharpensClassification(t *testing.T) {
	c := NewClassifier()
	c.AddDomain("shopping", "catalog")
	c.AddDomain("culture", "collection")
	// An ambiguous document with tags from neither prototype.
	doc := []byte(`<catalog><offer><deal>x</deal></offer></catalog>`)
	before, _, _ := c.Classify(doc)
	if before != "shopping" {
		t.Fatalf("before = %q", before)
	}
	// Training on similar documents raises the score.
	_, scoreBefore, _ := c.Classify(doc)
	c.Train("shopping", []byte(`<catalog><offer><deal>y</deal></offer></catalog>`))
	after, scoreAfter, _ := c.Classify(doc)
	if after != "shopping" || scoreAfter <= scoreBefore {
		t.Errorf("after training: %q %.2f (before %.2f)", after, scoreAfter, scoreBefore)
	}
}

func TestDomainsAndRemove(t *testing.T) {
	c := trained()
	if got := c.Domains(); len(got) != 3 || got[0] != "biology" {
		t.Errorf("Domains = %v", got)
	}
	c.RemoveDomain("biology")
	if got := c.Domains(); len(got) != 2 {
		t.Errorf("Domains after remove = %v", got)
	}
	got, _, _ := c.Classify([]byte(`<genome><protein>x</protein></genome>`))
	if got != "" {
		t.Errorf("removed domain still classifies: %q", got)
	}
}

func TestTagProfile(t *testing.T) {
	p, err := TagProfile([]byte(`<a><b/><b/><c>t</c></a>`))
	if err != nil || p["a"] != 1 || p["b"] != 2 || p["c"] != 1 {
		t.Errorf("profile = %v, %v", p, err)
	}
	// A document without a root element is rejected, as ParseBytes
	// rejects it.
	if p, err := TagProfile(nil); !errors.Is(err, xmldom.ErrNoRoot) || len(p) != 0 {
		t.Errorf("nil doc gives profile %v, %v; want ErrNoRoot", p, err)
	}
}

// Test-side classifier operations: the build keeps only AddDomain and
// Classify, which the System calls.

// RemoveDomain drops a domain.
func (c *Classifier) RemoveDomain(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.domains, name)
}

// Domains lists the registered domain names, sorted.
func (c *Classifier) Domains() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.domains))
	for name := range c.domains {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ClassifyTags classifies a raw tag set — the form a DTD takes when only
// its element declarations are known.
func (c *Classifier) ClassifyTags(tags []string) (string, float64) {
	profile := make(map[string]float64, len(tags))
	for _, t := range tags {
		profile[strings.ToLower(t)]++
	}
	return c.classifyProfile(profile)
}

// Train folds an already-classified document into its domain's prototype,
// so the classification sharpens as the warehouse grows (the paper's
// classification is automatic and evolves with the DTD population).
func (c *Classifier) Train(domain string, doc []byte) {
	profile, _ := TagProfile(doc)
	c.mu.Lock()
	defer c.mu.Unlock()
	proto := c.domains[domain]
	if proto == nil {
		proto = make(map[string]float64)
		c.domains[domain] = proto
	}
	for tag, n := range profile {
		proto[tag] += n
	}
}

// domProfile is the tag profile read off xmldom.ParseBytes's tree: the
// yardstick TagProfile's tokenizer pass is held to.
func domProfile(t *testing.T, data []byte) map[string]float64 {
	t.Helper()
	doc, err := xmldom.ParseBytes(data)
	if err != nil {
		t.Fatalf("ParseBytes: %v", err)
	}
	profile := make(map[string]float64)
	doc.Root.PreOrder(func(n *xmldom.Node) bool {
		if n.Type == xmldom.ElementNode {
			profile[strings.ToLower(n.Data)]++
		}
		return true
	})
	return profile
}

// TestTagProfileMatchesParsedTree holds the tokenizer's profile to the
// parsed tree's over webgen pages, perturbed refetches and random trees
// included, and a few hand-written shapes the generator never emits.
func TestTagProfileMatchesParsedTree(t *testing.T) {
	var pages [][]byte
	for i, kind := range []webgen.PerturbKind{webgen.PerturbWhitespace, webgen.PerturbAttrOrder} {
		site := webgen.NewSite(webgen.SiteSpec{Seed: int64(7 + i), Products: 20, PerturbEvery: 3, PerturbKind: kind})
		for _, url := range site.XMLURLs() {
			for v := 1; v <= 4; v++ {
				pages = append(pages, site.FetchXMLBytes(url, v))
			}
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		pages = append(pages, []byte(webgen.RandomTree(seed, 200, 6).XML()))
	}
	pages = append(pages,
		[]byte(`<x:Cat xmlns:x="urn:c"><x:Item/><!-- c --><Item a="1">t<![CDATA[<b>]]></Item></x:Cat>`),
		[]byte(`<?xml version="1.0"?><!DOCTYPE r><R><r/>&amp;</R>`),
	)
	for i, page := range pages {
		got, err := TagProfile(page)
		if err != nil {
			t.Fatalf("page %d: TagProfile: %v", i, err)
		}
		if want := domProfile(t, page); !maps.Equal(got, want) {
			t.Fatalf("page %d: TagProfile = %v, parsed tree %v", i, got, want)
		}
	}
}

// FuzzTagProfile holds TagProfile to ParseBytes: it fails if and only if
// ParseBytes does, and on acceptance it equals the parsed tree's
// lower-cased tag counts.
func FuzzTagProfile(f *testing.F) {
	for _, s := range []string{
		`<a><b/><b/><c>t</c></a>`,
		`<a/><b/>`,
		`<a>x</a><b>y</b>`,
		`text only`,
		`<x:Cat xmlns:x="urn:c"><x:Item/><Item a="1">t</Item></x:Cat>`,
		``,
	} {
		f.Add(s)
	}
	// The tokenizer's boundary inputs: the profile reads the same stream.
	boundary, err := os.ReadFile("../xmldom/testdata/boundary.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(boundary), "\n") {
		var s string
		if _, err := fmt.Sscanf(line, "%q", &s); err == nil {
			f.Add(s)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		data := []byte(src)
		got, err := TagProfile(data)
		if _, perr := xmldom.ParseBytes(data); (err == nil) != (perr == nil) {
			t.Fatalf("accept/reject divergence on %q: TagProfile err=%v, ParseBytes err=%v", src, err, perr)
		}
		if err != nil {
			return
		}
		if want := domProfile(t, data); !maps.Equal(got, want) {
			t.Fatalf("TagProfile(%q) = %v, parsed tree %v", src, got, want)
		}
	})
}
