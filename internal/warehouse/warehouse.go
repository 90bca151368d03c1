// Package warehouse is the XML repository and index manager of the
// reproduction — the stand-in for the Natix tree store the paper's system
// uses (Section 2.1). It keeps the current version of every warehoused XML
// document together with its metadata (URL, DOCID, DTD, semantic domain,
// fetch times) and a signature for change detection on non-warehoused HTML
// pages. Only the current version is kept: each commit hands the previous
// version and the delta to the pipeline once (CommitResult), which is all
// the subscription system of Section 5.2 consumes. Keeping older versions
// is Natix's job, which this reproduction does not copy.
package warehouse

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xymon/internal/xmldom"
	"xymon/internal/xydiff"
)

// DocType tells whether a page is warehoused XML or signature-only HTML.
type DocType int

const (
	// XML documents are stored and monitored at the element level.
	XML DocType = iota
	// HTML documents are not warehoused: only a signature is kept, so the
	// system can detect whether they changed (Section 1).
	HTML
)

func (t DocType) String() string {
	if t == HTML {
		return "html"
	}
	return "xml"
}

// Status classifies a fetch against the stored state of the page.
type Status int

const (
	// StatusNew: the page was never seen before.
	StatusNew Status = iota
	// StatusUpdated: the page changed since the last fetch.
	StatusUpdated
	// StatusUnchanged: the page is identical to the last fetch.
	StatusUnchanged
	// StatusDeleted: the page disappeared from its site.
	StatusDeleted
)

func (s Status) String() string {
	switch s {
	case StatusNew:
		return "new"
	case StatusUpdated:
		return "updated"
	case StatusUnchanged:
		return "unchanged"
	case StatusDeleted:
		return "deleted"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Metadata is what the URL manager knows about a page.
type Metadata struct {
	URL          string
	Filename     string // tail of the URL, e.g. index.html
	DocID        uint64
	DTD          string // DTD URL for XML documents
	DTDID        uint64
	Domain       string // semantic domain (e.g. biology, culture)
	Type         DocType
	LastAccessed time.Time
	LastUpdate   time.Time
	Version      int
	// Signature identifies the content: the SHA-256 of an HTML page's bytes,
	// the structural root hash of an XML tree (structSignature).
	Signature [sha256.Size]byte
}

// Entry is a warehoused page: metadata plus, for XML, the current DOM.
// No older version is kept.
type Entry struct {
	Meta Metadata
	Doc  *xmldom.Document // current version; nil for HTML
	// rawSig is the signature of the serialized bytes the current version
	// was committed from; CommitXMLBytes short-circuits an identical
	// refetch before parsing. Only valid while rawOK — a commit through
	// the DOM path clears it. Recovery restores it from the logged bytes.
	rawSig [sha256.Size]byte
	rawOK  bool
	// structHash is the structural subtree hash of the current version's
	// root — what xmldom.StreamHasher computes for any serialization of
	// the tree. Recorded inside the same critical section as the commit,
	// like rawSig, so a structural-hash hit can never pair with a
	// superseded version. Unlike rawSig it survives DOM-path commits: it
	// is a function of the tree, not of the bytes it arrived in.
	structHash uint64
	structOK   bool
}

// CommitResult reports what a commit did.
type CommitResult struct {
	Status Status
	Meta   Metadata
	// Old is the previous version (nil when Status is New); only for XML.
	Old *xmldom.Document
	// Doc is the stored current version, with XIDs propagated from Old.
	Doc *xmldom.Document
	// Delta is the change from Old to Doc (nil unless Status is Updated).
	Delta *xydiff.Delta
}

// ErrUnknownURL is returned when a page has never been stored.
var ErrUnknownURL = errors.New("warehouse: unknown URL")

// Store is the repository. It is safe for concurrent use.
type Store struct {
	mu         sync.RWMutex
	pages      map[string]*Entry
	domains    map[string]map[string]bool // domain -> set of URLs
	dtdIDs     map[string]uint64
	nextDoc    uint64
	nextDTD    uint64
	clock      func() time.Time
	alwaysDiff bool

	// Tiered ingest counters (see Stats). Atomic: bumped outside the
	// commit lock so the fast paths stay fast.
	statRawSig     atomic.Uint64
	statStructHash atomic.Uint64
	statParsed     atomic.Uint64
	statDiffed     atomic.Uint64
}

// Stats is a snapshot of the tiered ingest counters: how many XML byte
// commits were resolved at each tier of the change-detection cascade.
type Stats struct {
	// SkippedRawSig counts tier-1 hits: byte-identical refetches resolved
	// by one SHA-256, no tokenize.
	SkippedRawSig uint64
	// SkippedStructHash counts tier-2 hits: byte-different but
	// structurally identical refetches resolved by one streaming
	// tokenize+hash pass, no DOM build.
	SkippedStructHash uint64
	// Parsed counts full ParseBytes DOM builds (both tiers missed).
	Parsed uint64
	// Diffed counts xydiff runs — commits whose canonical form actually
	// differed from the stored version.
	Diffed uint64
}

// Stats returns a snapshot of the tiered ingest counters.
func (s *Store) Stats() Stats {
	return Stats{
		SkippedRawSig:     s.statRawSig.Load(),
		SkippedStructHash: s.statStructHash.Load(),
		Parsed:            s.statParsed.Load(),
		Diffed:            s.statDiffed.Load(),
	}
}

// Option configures a Store.
type Option func(*Store)

// WithClock substitutes the time source; tests and the simulated crawler
// use a virtual clock.
func WithClock(clock func() time.Time) Option {
	return func(s *Store) { s.clock = clock }
}

// WithAlwaysDiff disables the raw-signature and structural-hash unchanged
// fast paths: every byte commit pays the full parse and canonical-form
// comparison. This is the benchmark baseline the tiered path is measured
// against; it is not meant for production stores.
func WithAlwaysDiff() Option {
	return func(s *Store) { s.alwaysDiff = true }
}

// NewStore returns an empty repository.
func NewStore(opts ...Option) *Store {
	s := &Store{
		pages:   make(map[string]*Entry),
		domains: make(map[string]map[string]bool),
		dtdIDs:  make(map[string]uint64),
		nextDoc: 1,
		nextDTD: 1,
		clock:   time.Now,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Filename extracts the tail of a URL: the paper's `filename = string`
// condition matches it (e.g. index.html).
func Filename(url string) string {
	if i := strings.LastIndex(url, "/"); i >= 0 {
		return url[i+1:]
	}
	return url
}

// Signature hashes raw page content for HTML-style change detection.
func Signature(content []byte) [sha256.Size]byte {
	return sha256.Sum256(content)
}

// structSignature is the Metadata.Signature of an XML version: its
// structural root hash, zero-extended.
func structSignature(root uint64) (sig [sha256.Size]byte) {
	binary.BigEndian.PutUint64(sig[:], root)
	return sig
}

// CommitXML stores a fetched XML document. It detects the change status
// against the previous version, computes the delta for updates (labelling
// doc's nodes with persistent XIDs), bumps the version and updates all
// metadata. The dtd and domain describe the document class; they may be
// empty.
func (s *Store) CommitXML(url, dtd, domain string, doc *xmldom.Document) (*CommitResult, error) {
	return s.commitXML(url, dtd, domain, doc, nil, nil)
}

// streamHasherPool recycles streaming hashers across commits; a pooled
// hasher retains its scratch, so the tier-2 probe does not allocate.
var streamHasherPool = sync.Pool{New: func() any { return new(xmldom.StreamHasher) }}

// CommitXMLBytes parses serialized XML with xmldom.ParseBytes and stores
// it like CommitXML, after running the refetch through a two-tier
// unchanged cascade:
//
//	tier 1 — raw signature: byte-identical to the stored version's bytes;
//	         resolved by one SHA-256, no tokenize.
//	tier 2 — structural hash: byte-different but structurally identical
//	         (whitespace reflow, re-quoted attributes, re-encoded
//	         entities); resolved by one streaming tokenize+hash pass
//	         (xmldom.StreamHasher), no DOM build, no diff.
//
// Only when both tiers miss does the commit pay ParseBytes — and then the
// streaming pass's top-level hash frontier is carried into the diff as a
// precomputed agreement mask, trimming the aligner to the region that
// actually changed.
func (s *Store) CommitXMLBytes(url, dtd, domain string, data []byte) (*CommitResult, error) {
	rawSig := Signature(data)
	now := s.clock()
	s.mu.Lock()
	e, tracked := s.pages[url]
	if tracked && !s.alwaysDiff && e.rawOK && e.rawSig == rawSig {
		e.Meta.LastAccessed = now
		res := &CommitResult{Status: StatusUnchanged, Meta: e.Meta, Old: e.Doc, Doc: e.Doc}
		s.mu.Unlock()
		s.statRawSig.Add(1)
		return res, nil
	}
	probe := tracked && !s.alwaysDiff && e.structOK
	s.mu.Unlock()

	// Tier 2: hash the bytes without building a DOM. The stream hash is a
	// pure function of data, so it is computed outside the lock; the
	// comparison — and the pairing of result metadata with the version
	// that matched — happens inside one critical section, mirroring the
	// rawSig discipline above.
	var topHashes []uint64
	if probe {
		sh := streamHasherPool.Get().(*xmldom.StreamHasher)
		root, frontier, err := sh.Sum(data, 1)
		if err == nil {
			s.mu.Lock()
			if e, ok := s.pages[url]; ok && !s.alwaysDiff && e.structOK && e.structHash == root {
				e.Meta.LastAccessed = now
				// Refresh tier 1 for this serialization: the next refetch
				// of these exact bytes is one SHA-256 again.
				e.rawSig, e.rawOK = rawSig, true
				res := &CommitResult{Status: StatusUnchanged, Meta: e.Meta, Old: e.Doc, Doc: e.Doc}
				s.mu.Unlock()
				streamHasherPool.Put(sh)
				s.statStructHash.Add(1)
				return res, nil
			}
			s.mu.Unlock()
			// The root differs: keep the depth-1 frontier. commitXML turns
			// it into a diff mask against the stored version under the
			// commit lock.
			for _, f := range frontier {
				if f.Depth == 1 {
					topHashes = append(topHashes, f.Hash)
				}
			}
		}
		// On a stream error, fall through: ParseBytes reports the
		// authoritative parse error for these bytes.
		streamHasherPool.Put(sh)
	}

	doc, err := xmldom.ParseBytes(data)
	if err != nil {
		return nil, fmt.Errorf("warehouse: %s: %w", url, err)
	}
	s.statParsed.Add(1)
	return s.commitXML(url, dtd, domain, doc, &rawSig, topHashes)
}

// topMask builds the top-level agreement mask for the diff: the longest
// common prefix and suffix of the stored version's root-children subtree
// hashes against the streaming frontier of the incoming bytes. DiffMasked
// re-verifies the claimed runs against its own hash vectors, so a
// frontier that raced with a superseding commit costs a fallback to the
// plain aligner, never a wrong delta.
func topMask(old *xmldom.Document, topHashes []uint64) *xydiff.Mask {
	oc := old.Root.Children
	n := len(oc)
	if len(topHashes) < n {
		n = len(topHashes)
	}
	oh := old.Hashes()
	pre := 0
	for pre < n && oh.Of(oc[pre]) == topHashes[pre] {
		pre++
	}
	suf := 0
	for suf < n-pre && oh.Of(oc[len(oc)-1-suf]) == topHashes[len(topHashes)-1-suf] {
		suf++
	}
	if pre == 0 && suf == 0 {
		return nil
	}
	return &xydiff.Mask{Prefix: pre, Suffix: suf}
}

// commitXML is the shared commit body. rawSig, when non-nil, is the
// signature of the serialized bytes doc was parsed from; it is recorded
// on the entry inside the same critical section as the commit, so the
// fast path can never pair a stale byte signature with a newer document.
// topHashes, when non-empty, is the depth-1 streaming hash frontier of
// those bytes, turned into a diff mask against the stored version.
func (s *Store) commitXML(url, dtd, domain string, doc *xmldom.Document, rawSig *[sha256.Size]byte, topHashes []uint64) (*CommitResult, error) {
	if doc == nil || doc.Root == nil {
		return nil, errors.New("warehouse: empty document")
	}
	// The structural root hash identifies the version (tier 2 already
	// decides on it, Diff needs the vector anyway): the tree is never
	// serialised to compare it. doc is still the caller's alone — no lock.
	root := doc.Hashes().Of(doc.Root)
	now := s.clock()

	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.pages[url]
	if ok {
		if rawSig != nil {
			e.rawSig, e.rawOK = *rawSig, true
		} else {
			e.rawOK = false
		}
	}
	if !ok {
		meta := Metadata{
			URL:          url,
			Filename:     Filename(url),
			DocID:        s.nextDoc,
			DTD:          dtd,
			DTDID:        s.dtdIDLocked(dtd),
			Domain:       domain,
			Type:         XML,
			LastAccessed: now,
			LastUpdate:   now,
			Version:      1,
			Signature:    structSignature(root),
		}
		s.nextDoc++
		e = &Entry{Meta: meta, Doc: doc}
		if rawSig != nil {
			e.rawSig, e.rawOK = *rawSig, true
		}
		s.pages[url] = e
		s.indexDomainLocked(domain, url)
		// The hash vector stays cached on doc: the next version's Diff then
		// hashes only its own tree — and the root hash is the tier-2
		// reference for the next refetch.
		e.structHash, e.structOK = root, true
		return &CommitResult{Status: StatusNew, Meta: meta, Doc: doc}, nil
	}
	e.Meta.LastAccessed = now
	if e.structOK && e.structHash == root {
		return &CommitResult{Status: StatusUnchanged, Meta: e.Meta, Old: e.Doc, Doc: e.Doc}, nil
	}
	old := e.Doc
	var mask *xydiff.Mask
	if len(topHashes) > 0 && old != nil && old.Root != nil {
		mask = topMask(old, topHashes)
	}
	s.statDiffed.Add(1)
	delta, err := xydiff.DiffMasked(old, doc, mask)
	if err != nil {
		// Unrelated root: treat as a wholesale replacement, with no delta.
		e.Doc = doc
		e.structHash, e.structOK = root, true
		old.InvalidateHashes()
		e.Meta.Signature = structSignature(root)
		e.Meta.LastUpdate = now
		e.Meta.Version++
		return &CommitResult{Status: StatusUpdated, Meta: e.Meta, Old: old, Doc: doc}, nil
	}
	e.Doc = doc
	// The superseded version's vector is recycled: no later Diff involves it.
	e.structHash, e.structOK = root, true
	old.InvalidateHashes()
	e.Meta.Signature = structSignature(root)
	e.Meta.LastUpdate = now
	e.Meta.Version++
	if dtd != "" && dtd != e.Meta.DTD {
		e.Meta.DTD = dtd
		e.Meta.DTDID = s.dtdIDLocked(dtd)
	}
	if domain != "" && domain != e.Meta.Domain {
		s.unindexDomainLocked(e.Meta.Domain, url)
		e.Meta.Domain = domain
		s.indexDomainLocked(domain, url)
	}
	return &CommitResult{Status: StatusUpdated, Meta: e.Meta, Old: old, Doc: doc, Delta: delta}, nil
}

// CommitHTML records a fetched HTML page: only its signature is kept, so
// the result status is New, Updated or Unchanged.
func (s *Store) CommitHTML(url string, content []byte) (*CommitResult, error) {
	sig := Signature(content)
	now := s.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.pages[url]
	if !ok {
		meta := Metadata{
			URL:          url,
			Filename:     Filename(url),
			DocID:        s.nextDoc,
			Type:         HTML,
			LastAccessed: now,
			LastUpdate:   now,
			Version:      1,
			Signature:    sig,
		}
		s.nextDoc++
		s.pages[url] = &Entry{Meta: meta}
		return &CommitResult{Status: StatusNew, Meta: meta}, nil
	}
	e.Meta.LastAccessed = now
	if e.Meta.Signature == sig {
		return &CommitResult{Status: StatusUnchanged, Meta: e.Meta}, nil
	}
	e.Meta.Signature = sig
	e.Meta.LastUpdate = now
	e.Meta.Version++
	return &CommitResult{Status: StatusUpdated, Meta: e.Meta}, nil
}

// Delete removes a page, returning its last state with StatusDeleted.
func (s *Store) Delete(url string) (*CommitResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.pages[url]
	if !ok {
		return nil, ErrUnknownURL
	}
	delete(s.pages, url)
	s.unindexDomainLocked(e.Meta.Domain, url)
	return &CommitResult{Status: StatusDeleted, Meta: e.Meta, Old: e.Doc, Doc: e.Doc}, nil
}

// Tracked reports whether the URL has a stored entry — whether the page
// is version-tracked. The crawler's ingest gate uses it: a tracked page
// is always parsed and committed, so every change to it is diffed
// against the current version.
func (s *Store) Tracked(url string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.pages[url]
	return ok
}

// Get returns the entry for a URL.
func (s *Store) Get(url string) (*Entry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.pages[url]
	if !ok {
		return nil, ErrUnknownURL
	}
	return e, nil
}

// Len returns the number of stored pages.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages)
}

// DomainRoots returns the root elements of every XML document classified
// in the given domain — the integrated view continuous queries run over.
func (s *Store) DomainRoots(domain string) []*xmldom.Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var roots []*xmldom.Node
	for url := range s.domains[domain] {
		if e := s.pages[url]; e != nil && e.Doc != nil {
			roots = append(roots, e.Doc.Root)
		}
	}
	return roots
}

// AllRoots returns the root elements of every warehoused XML document.
func (s *Store) AllRoots() []*xmldom.Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var roots []*xmldom.Node
	for _, e := range s.pages {
		if e.Doc != nil {
			roots = append(roots, e.Doc.Root)
		}
	}
	return roots
}

// DTDID returns the stable identifier of a DTD URL, allocating one if
// needed.
func (s *Store) DTDID(dtd string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dtdIDLocked(dtd)
}

func (s *Store) dtdIDLocked(dtd string) uint64 {
	if dtd == "" {
		return 0
	}
	if id, ok := s.dtdIDs[dtd]; ok {
		return id
	}
	id := s.nextDTD
	s.nextDTD++
	s.dtdIDs[dtd] = id
	return id
}

func (s *Store) indexDomainLocked(domain, url string) {
	if domain == "" {
		return
	}
	set := s.domains[domain]
	if set == nil {
		set = make(map[string]bool)
		s.domains[domain] = set
	}
	set[url] = true
}

func (s *Store) unindexDomainLocked(domain, url string) {
	if set := s.domains[domain]; set != nil {
		delete(set, url)
		if len(set) == 0 {
			delete(s.domains, domain)
		}
	}
}
