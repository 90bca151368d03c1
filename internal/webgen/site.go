package webgen

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"xymon/internal/xmldom"
)

// words is the vocabulary of generated documents. Queries in examples and
// benches monitor words from this list.
var words = []string{
	"camera", "radio", "television", "computer", "keyboard", "monitor",
	"printer", "scanner", "speaker", "amplifier", "turntable", "tuner",
	"electronic", "digital", "analog", "portable", "wireless", "stereo",
	"battery", "charger", "cable", "adapter", "antenna", "remote",
	"painting", "sculpture", "museum", "gallery", "genome", "protein",
}

// Vocabulary returns the word list used by generated documents.
func Vocabulary() []string { return append([]string(nil), words...) }

// SiteSpec describes a synthetic site of evolving XML catalog pages.
type SiteSpec struct {
	BaseURL  string // e.g. "http://shop0.example/"
	Pages    int    // catalog pages on the site
	Products int    // products per catalog at version 1
	Seed     int64
	Domain   string // semantic domain of the site's documents
	DTD      string // DTD URL advertised by the documents
	// Churn controls evolution: per version, roughly Churn product
	// updates, one insertion every other version and one deletion every
	// third version per page.
	Churn int
	// HTMLShare adds this many plain HTML pages that change their content
	// every version.
	HTMLShare int
	// Lifetime, when positive, makes each XML page disappear from the
	// site after that many versions (staggered per page), so crawls
	// observe page deletions — the paper's `deleted self` events.
	Lifetime int
	// HiddenPages adds XML catalog pages that are not listed in XMLURLs:
	// they are only reachable through links on the site's HTML pages, and
	// the links appear gradually (hidden page i is linked from version
	// i+2 on), so a link-following crawler discovers new pages over time
	// — the paper's "discovery of a new page" scenario (Section 1).
	HiddenPages int
	// RareWord, when set with RareEvery > 0, adds one extra product named
	// RareWord to roughly one page in RareEvery (chosen deterministically
	// per page). Benchmark corpora use a word outside the vocabulary to
	// dial in the fraction of pages that match a subscription.
	RareWord  string
	RareEvery int
	// PerturbEvery, when > 0, slows content evolution: the underlying
	// catalog advances one content version every PerturbEvery fetch
	// versions, and the intervening fetches re-serialize the SAME content
	// with a semantics-preserving perturbation drawn from a seeded
	// *rand.Rand (see PerturbKind). Successive refetches are then
	// byte-different but semantically identical — the corpus the
	// warehouse's streaming structural-hash tier is measured on.
	PerturbEvery int
	PerturbKind  PerturbKind
}

// PerturbKind selects the semantics-preserving serialization perturbation
// applied to the refetches between content versions (PerturbEvery).
type PerturbKind int

const (
	// PerturbWhitespace reflows inter-element whitespace, pads text with
	// trimmable space, and re-quotes attributes. Structurally identical
	// under xmldom's hashing, so these refetches resolve at the
	// warehouse's structural-hash tier without a parse.
	PerturbWhitespace PerturbKind = iota
	// PerturbAttrOrder renders the product category as an attribute and
	// shuffles per-product attribute order on top of the whitespace
	// reflow. XML semantics say attribute order is insignificant, but
	// xmldom hashes attributes in document order, so these refetches fall
	// through to the parse+diff tier, whose delta names the products whose
	// order actually flipped.
	PerturbAttrOrder
)

// Site is a deterministic synthetic web site: Fetch(url, version) always
// returns the same content for the same (url, version) pair, so crawls are
// reproducible and change detection sees realistic evolving documents.
type Site struct {
	spec SiteSpec

	// Per-page memo of the last computed product list. Content is a pure
	// function of (url, version), and monitoring benches refetch the same
	// content version many times over (PerturbEvery); without the memo,
	// every refetch would replay the churn history and re-seed its
	// generator, billing page synthesis to the system under test.
	mu    sync.Mutex
	items map[string]cachedItems
}

type cachedItems struct {
	version int
	items   []product
}

// NewSite builds a site from its spec, applying defaults for zero fields.
func NewSite(spec SiteSpec) *Site {
	if spec.BaseURL == "" {
		spec.BaseURL = "http://site.example/"
	}
	if !strings.HasSuffix(spec.BaseURL, "/") {
		spec.BaseURL += "/"
	}
	if spec.Pages == 0 {
		spec.Pages = 4
	}
	if spec.Products == 0 {
		spec.Products = 8
	}
	if spec.Churn == 0 {
		spec.Churn = 2
	}
	if spec.Domain == "" {
		spec.Domain = "shopping"
	}
	if spec.DTD == "" {
		spec.DTD = spec.BaseURL + "dtd/catalog.dtd"
	}
	return &Site{spec: spec}
}

// Spec returns the site's specification.
func (s *Site) Spec() SiteSpec { return s.spec }

// XMLURLs lists the site's XML catalog page URLs.
func (s *Site) XMLURLs() []string {
	urls := make([]string, s.spec.Pages)
	for i := range urls {
		urls[i] = fmt.Sprintf("%scatalog%d.xml", s.spec.BaseURL, i)
	}
	return urls
}

// HTMLURLs lists the site's HTML page URLs.
func (s *Site) HTMLURLs() []string {
	urls := make([]string, s.spec.HTMLShare)
	for i := range urls {
		urls[i] = fmt.Sprintf("%spage%d.html", s.spec.BaseURL, i)
	}
	return urls
}

// HiddenURLs lists the XML pages reachable only through HTML links.
func (s *Site) HiddenURLs() []string {
	urls := make([]string, s.spec.HiddenPages)
	for i := range urls {
		urls[i] = fmt.Sprintf("%shidden%d.xml", s.spec.BaseURL, i)
	}
	return urls
}

// URLs lists every directly-known page of the site, XML first (hidden
// pages are excluded: a crawler finds them through links).
func (s *Site) URLs() []string {
	return append(s.XMLURLs(), s.HTMLURLs()...)
}

// Owns reports whether a URL belongs to this site.
func (s *Site) Owns(url string) bool {
	return strings.HasPrefix(url, s.spec.BaseURL)
}

// IsHTML reports whether a URL of this site is an HTML page.
func (s *Site) IsHTML(url string) bool {
	return strings.HasSuffix(url, ".html")
}

// Alive reports whether the page still exists at the given version. Pages
// of sites with a Lifetime disappear after Lifetime versions, staggered by
// a per-page offset so a crawl sees deletions spread over time.
func (s *Site) Alive(url string, version int) bool {
	if s.spec.Lifetime <= 0 {
		return true
	}
	offset := int(uint64(s.pageSeed(url)) % uint64(s.spec.Lifetime))
	return version <= s.spec.Lifetime+offset
}

func (s *Site) pageSeed(url string) int64 {
	// xmldom.HashString is bit-identical to fnv.New64a over the same
	// bytes, so every generated page (and test expectation) is unchanged.
	return s.spec.Seed ^ int64(xmldom.HashString(url))
}

// cachedCatalogItems returns catalogItems(url, version) through the
// per-page memo. The cached slice is only ever read by renderers;
// catalogItems always builds a fresh one.
func (s *Site) cachedCatalogItems(url string, version int) []product {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.items[url]; ok && c.version == version {
		return c.items
	}
	items := s.catalogItems(url, version)
	if s.items == nil {
		s.items = make(map[string]cachedItems)
	}
	s.items[url] = cachedItems{version: version, items: items}
	return items
}

// perturbSource is a splitmix64 rand.Source64 with O(1) seeding.
// rand.NewSource's lagged-Fibonacci warm-up runs hundreds of steps per
// seed; a fresh generator per perturbed render would spend more time
// seeding than rendering.
type perturbSource struct{ state uint64 }

func (s *perturbSource) Seed(seed int64) { s.state = uint64(seed) }
func (s *perturbSource) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *perturbSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

type product struct {
	id       int
	name     string
	category string
	price    int
}

// catalogItems computes the product list of catalog page url at the
// given version (1-based). The catalog starts with Products products;
// each later version applies a deterministic mix of price updates,
// insertions and deletions, so successive versions produce realistic
// XyDelta output.
func (s *Site) catalogItems(url string, version int) []product {
	if version < 1 {
		version = 1
	}
	rng := rand.New(rand.NewSource(s.pageSeed(url)))
	var items []product
	nextID := 0
	add := func() {
		items = append(items, product{
			id:       nextID,
			name:     words[rng.Intn(len(words))],
			category: words[rng.Intn(len(words))],
			price:    10 + rng.Intn(990),
		})
		nextID++
	}
	for i := 0; i < s.spec.Products; i++ {
		add()
	}
	for v := 2; v <= version; v++ {
		for c := 0; c < s.spec.Churn && len(items) > 0; c++ {
			items[rng.Intn(len(items))].price = 10 + rng.Intn(990)
		}
		if v%2 == 0 {
			add()
		}
		if v%3 == 0 && len(items) > 1 {
			i := rng.Intn(len(items))
			items = append(items[:i], items[i+1:]...)
		}
	}
	if s.spec.RareWord != "" && s.spec.RareEvery > 0 &&
		uint64(s.pageSeed(url))%uint64(s.spec.RareEvery) == 0 {
		items = append(items, product{
			id: nextID, name: s.spec.RareWord,
			category: words[0], price: 10,
		})
	}
	return items
}

// FetchXML renders catalog page url at the given version as a document —
// a thin wrapper over the byte renderer, so both paths are one source of
// truth.
func (s *Site) FetchXML(url string, version int) *xmldom.Document {
	d, err := xmldom.ParseBytes(s.FetchXMLBytes(url, version))
	if err != nil {
		// The generator only emits well-formed markup; a parse failure is
		// a bug in the renderer, not a data condition.
		panic(fmt.Sprintf("webgen: %s v%d: %v", url, version, err))
	}
	return d
}

// FetchXMLBytes renders catalog page url at the given version straight
// to serialized bytes — the crawler's zero-copy ingest format. For
// unperturbed fetches the output is byte-identical to
// FetchXML(url, version).XML(), so commits through either path produce
// the same signature; perturbed fetches (PerturbEvery) re-serialize the
// same content in a deliberately different byte form.
func (s *Site) FetchXMLBytes(url string, version int) []byte {
	if version < 1 {
		version = 1
	}
	contentV, pidx := version, 0
	if s.spec.PerturbEvery > 0 {
		contentV = (version-1)/s.spec.PerturbEvery + 1
		pidx = (version - 1) % s.spec.PerturbEvery
	}
	items := s.cachedCatalogItems(url, contentV)
	var rng *rand.Rand
	if pidx > 0 {
		// Seeded per (page, fetch version): the same refetch always
		// renders the same bytes, and successive refetches render
		// different ones.
		rng = rand.New(&perturbSource{state: uint64(s.pageSeed(url)) ^ uint64(version)*0x9e3779b97f4a7c15})
	}
	return s.renderCatalog(items, rng)
}

// renderCatalog serializes the product list. A nil rng renders the
// canonical compact form; otherwise it applies the site's PerturbKind:
// random inter-element whitespace, trimmable text padding, re-quoted
// attributes — and, for PerturbAttrOrder, shuffled attribute order.
func (s *Site) renderCatalog(items []product, rng *rand.Rand) []byte {
	attrCat := s.spec.PerturbEvery > 0 && s.spec.PerturbKind == PerturbAttrOrder
	// Each perturbation decision needs only a bit or two; drawing 64 bits
	// at a time from the source is much cheaper than an Intn call per
	// decision, which dominates the render cost otherwise.
	var bits uint64
	var nbits uint
	draw := func(n uint) uint64 {
		if nbits < n {
			bits = rng.Uint64()
			nbits = 64
		}
		v := bits & (1<<n - 1)
		bits >>= n
		nbits -= n
		return v
	}
	ws := func(b []byte) []byte {
		if rng == nil {
			return b
		}
		switch draw(2) {
		case 1:
			b = append(b, '\n')
		case 2:
			b = append(b, "\n  "...)
		case 3:
			b = append(b, "\n\t"...)
		}
		return b
	}
	quote := func() byte {
		if rng != nil && draw(1) == 1 {
			return '\''
		}
		return '"'
	}
	attr := func(b []byte, name, value string) []byte {
		q := quote()
		b = append(b, ' ')
		b = append(b, name...)
		b = append(b, '=', q)
		b = xmldom.AppendEscaped(b, value)
		b = append(b, q)
		return b
	}
	text := func(b []byte, v string) []byte {
		if rng != nil && draw(2) == 0 {
			b = append(b, ' ')
			b = xmldom.AppendEscaped(b, v)
			b = append(b, ' ')
			return b
		}
		return xmldom.AppendEscaped(b, v)
	}
	per := 112
	if rng != nil {
		// Whitespace reflow and text padding can add a few dozen bytes
		// per product; size for it so the builder never regrows.
		per = 160
	}
	b := make([]byte, 0, 64+len(items)*per)
	b = append(b, `<catalog`...)
	b = attr(b, "site", s.spec.BaseURL)
	b = append(b, '>')
	if rng != nil {
		// At least one reflow, so a perturbed render is never
		// byte-identical to the canonical one.
		b = append(b, '\n')
	}
	for _, it := range items {
		b = append(b, `<product`...)
		id := "p" + strconv.Itoa(it.id)
		if attrCat && rng != nil && draw(1) == 1 {
			b = attr(b, "cat", it.category)
			b = attr(b, "id", id)
		} else {
			b = attr(b, "id", id)
			if attrCat {
				b = attr(b, "cat", it.category)
			}
		}
		b = append(b, '>')
		b = ws(b)
		b = append(b, `<name>`...)
		b = text(b, it.name)
		b = append(b, `</name>`...)
		b = ws(b)
		if !attrCat {
			b = append(b, `<category>`...)
			b = text(b, it.category)
			b = append(b, `</category>`...)
			b = ws(b)
		}
		b = append(b, `<price>`...)
		b = strconv.AppendInt(b, int64(it.price), 10)
		b = append(b, `</price>`...)
		b = ws(b)
		b = append(b, `</product>`...)
		b = ws(b)
	}
	b = append(b, `</catalog>`...)
	return b
}

// FetchHTML renders HTML page url at the given version. The page links to
// the site's catalog pages, and — from version i+2 on — to hidden page i,
// so crawls following links discover new pages over time.
func (s *Site) FetchHTML(url string, version int) []byte {
	if version < 1 {
		version = 1
	}
	rng := rand.New(rand.NewSource(s.pageSeed(url) + int64(version)))
	var b strings.Builder
	b.WriteString("<html><body>")
	for i := 0; i < 20; i++ {
		b.WriteString(words[rng.Intn(len(words))])
		b.WriteString(" ")
	}
	for _, link := range s.XMLURLs() {
		fmt.Fprintf(&b, `<a href="%s">catalog</a> `, link)
	}
	for i, link := range s.HiddenURLs() {
		if version >= i+2 {
			fmt.Fprintf(&b, `<a href="%s">new page</a> `, link)
		}
	}
	fmt.Fprintf(&b, "version %d</body></html>", version)
	return []byte(b.String())
}

// ExtractLinks scans HTML content for href attributes — the link
// extraction the real crawler performs to discover pages.
func ExtractLinks(content []byte) []string {
	var out []string
	s := string(content)
	for {
		i := strings.Index(s, `href="`)
		if i < 0 {
			return out
		}
		s = s[i+len(`href="`):]
		j := strings.IndexByte(s, '"')
		if j < 0 {
			return out
		}
		out = append(out, s[:j])
		s = s[j+1:]
	}
}

// RandomTree generates a random XML document with the given approximate
// node count and depth, for the XML-alerter size/depth sweeps (Section 6.3
// bounds the alerter cost by Size × Depth).
func RandomTree(seed int64, size, depth int) *xmldom.Document { //xyvet:ignore testonly workload generator of the benchmarks and tests
	return RandomTreeRand(rand.New(rand.NewSource(seed)), size, depth)
}

// RandomTreeRand is RandomTree drawing from an injected generator.
func RandomTreeRand(rng *rand.Rand, size, depth int) *xmldom.Document {
	if depth < 2 {
		depth = 2
	}
	if size < 2 {
		size = 2
	}
	root := xmldom.Element("doc")
	nodes := 1
	// Fill level by level, attaching children to random nodes of the
	// previous level to hit the requested depth, then pad breadth-first.
	levels := [][]*xmldom.Node{{root}}
	for l := 1; l < depth && nodes < size; l++ {
		parent := levels[l-1][rng.Intn(len(levels[l-1]))]
		e := xmldom.Element(fmt.Sprintf("e%d", rng.Intn(20)))
		parent.AppendChild(e)
		levels = append(levels, []*xmldom.Node{e})
		nodes++
	}
	for nodes < size {
		l := 1 + rng.Intn(len(levels)-1)
		parent := levels[l-1][rng.Intn(len(levels[l-1]))]
		if rng.Intn(3) == 0 {
			parent.AppendChild(xmldom.Text(words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]))
		} else {
			e := xmldom.Element(fmt.Sprintf("e%d", rng.Intn(20)))
			parent.AppendChild(e)
			levels[l] = append(levels[l], e)
		}
		nodes++
	}
	return xmldom.NewDocument(root)
}
