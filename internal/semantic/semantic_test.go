package semantic

import (
	"sort"
	"strings"
	"testing"

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
		got, score := c.Classify(xmldom.MustParse(cse.xml))
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
	got, score := c.Classify(xmldom.MustParse(`<weather><forecast>rain</forecast></weather>`))
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
	got, _ := c.Classify(xmldom.MustParse(`<CATALOG><PRODUCT>x</PRODUCT></CATALOG>`))
	if got != "shopping" {
		t.Errorf("Classify = %q", got)
	}
}

func TestTrainSharpensClassification(t *testing.T) {
	c := NewClassifier()
	c.AddDomain("shopping", "catalog")
	c.AddDomain("culture", "collection")
	// An ambiguous document with tags from neither prototype.
	doc := xmldom.MustParse(`<catalog><offer><deal>x</deal></offer></catalog>`)
	before, _ := c.Classify(doc)
	if before != "shopping" {
		t.Fatalf("before = %q", before)
	}
	// Training on similar documents raises the score.
	_, scoreBefore := c.Classify(doc)
	c.Train("shopping", xmldom.MustParse(`<catalog><offer><deal>y</deal></offer></catalog>`))
	after, scoreAfter := c.Classify(doc)
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
	got, _ := c.Classify(xmldom.MustParse(`<genome><protein>x</protein></genome>`))
	if got != "" {
		t.Errorf("removed domain still classifies: %q", got)
	}
}

func TestTagProfile(t *testing.T) {
	p := TagProfile(xmldom.MustParse(`<a><b/><b/><c>t</c></a>`))
	if p["a"] != 1 || p["b"] != 2 || p["c"] != 1 {
		t.Errorf("profile = %v", p)
	}
	if len(TagProfile(nil)) != 0 {
		t.Error("nil doc should give empty profile")
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
func (c *Classifier) Train(domain string, doc *xmldom.Document) {
	profile := TagProfile(doc)
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
