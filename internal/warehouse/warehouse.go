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
	"cmp"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
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
	// rawSig is the tier-1 hash (rawHash) of the serialized bytes the
	// current XML version was committed from (or last refetched as);
	// CommitXMLBytes short-circuits an identical refetch before parsing.
	// Recovery restores it from the logged bytes.
	rawSig [2]uint64
	// structHash is the structural subtree hash of the current XML
	// version's root — what xmldom.StreamHasher computes for any
	// serialization of the tree. Recorded inside the same critical section
	// as the commit, like rawSig, so a structural-hash hit can never pair
	// with a superseded version.
	structHash uint64
}

// CommitResult reports what a commit did.
type CommitResult struct {
	Status Status
	Meta   Metadata
	// Old is the previous XML version (nil when Status is New or the page
	// was HTML); only for XML.
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
	stubs      map[string]stub // refused untracked pages (Screen), none in pages
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
	statStubHits   atomic.Uint64
}

// stub is a gate refusal: the refused bytes' rawHash, the word-index gen.
type stub struct {
	raw [2]uint64
	gen uint64
}

// Stats is a snapshot of the tiered ingest counters: how many XML byte
// commits were resolved at each tier of the change-detection cascade.
type Stats struct {
	// SkippedRawSig counts tier-1 hits: byte-identical refetches resolved
	// by one keyed GHASH tag, no tokenize (rawHash: pages of ℓ blocks
	// collide with probability ≤ (ℓ+1)/2¹²⁸; not under fips140=only).
	SkippedRawSig uint64
	// SkippedStructHash counts tier-2 hits: byte-different but
	// structurally identical refetches resolved by one streaming
	// tokenize+hash pass, no DOM build.
	SkippedStructHash uint64
	// Parsed counts full ParseBytes DOM builds (both tiers missed).
	Parsed uint64
	// Diffed counts xydiff runs — commits whose canonical form actually
	// differed from the stored version.
	Diffed   uint64
	StubHits uint64 // gate refusals a stub answered (Screen); not commits
	Stubs    int    // refused pages the gate remembers
}

// Stats returns a snapshot of the tiered ingest counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		SkippedRawSig:     s.statRawSig.Load(),
		SkippedStructHash: s.statStructHash.Load(),
		Parsed:            s.statParsed.Load(),
		Diffed:            s.statDiffed.Load(),
		StubHits:          s.statStubHits.Load(),
		Stubs:             len(s.stubs),
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
		stubs:   make(map[string]stub),
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

// rawAEAD keys rawHash, once per process so that stores in it agree.
var (
	rawAEAD = func() cipher.AEAD {
		var key [16]byte
		rand.Read(key[:])                 // it crashes the program rather than fail
		block, _ := aes.NewCipher(key[:]) // it fails on the key's length alone
		aead, err := cipher.NewGCM(block)
		if err != nil {
			panic("warehouse: rawHash needs AES-GCM with a fixed nonce: " + err.Error())
		}
		return aead
	}()
	rawTags  = sync.Pool{New: func() any { return new([16]byte) }} // a stack tag would escape through Seal
	rawNonce [12]byte
)

// rawHash is tier 1's identity of an XML page's bytes, in one pass: the
// AES-128-GCM tag of the page as additional data (zero nonce, no
// plaintext). GHASH is ε-almost-XOR-universal: two distinct pages of at
// most ℓ 16-byte blocks collide with probability at most (ℓ+1)/2¹²⁸. The
// tag never leaves the process, so the fixed nonce gives a page author
// nothing; GODEBUG=fips140=only refuses it, and the package panics at init.
// A gate stub's hit (Screen) rests on these bits alone. HTML keeps SHA-256
// (Signature): its signature is logged and compared across restarts.
func rawHash(data []byte) [2]uint64 {
	tag := rawTags.Get().(*[16]byte)
	defer rawTags.Put(tag)
	rawAEAD.Seal(tag[:0], rawNonce[:], nil, data)
	return [2]uint64{binary.LittleEndian.Uint64(tag[:8]), binary.LittleEndian.Uint64(tag[8:])}
}

// structSignature is the Metadata.Signature of an XML version: its
// structural root hash, zero-extended.
func structSignature(root uint64) (sig [sha256.Size]byte) {
	binary.BigEndian.PutUint64(sig[:], root)
	return sig
}

// streamHasherPool recycles streaming hashers across commits; a pooled
// hasher retains its scratch, so the tier-2 probe does not allocate.
var streamHasherPool = sync.Pool{New: func() any { return new(xmldom.StreamHasher) }}

// CommitXMLBytes stores a fetched XML page. It detects the change status
// against the previous version, computes the delta for updates (labelling
// the new tree's nodes with persistent XIDs), bumps the version and
// updates all metadata. The dtd and domain describe the document class;
// they may be empty. A refetch first runs through a two-tier unchanged
// cascade:
//
//	tier 1 — raw hash: byte-identical to the stored version's bytes;
//	         one keyed GHASH tag (rawHash: ℓ-block pages collide with
//	         probability ≤ (ℓ+1)/2¹²⁸; not under fips140=only), no tokenize.
//	tier 2 — structural hash: byte-different but structurally identical
//	         (whitespace reflow, re-quoted attributes, re-encoded
//	         entities); resolved by one streaming tokenize+hash pass
//	         (xmldom.StreamHasher), no DOM build, no diff.
//
// Only when both tiers miss does the commit pay ParseBytes and
// xydiff.Diff, whose aligner trims the unchanged prefix and suffix of
// every children list itself.
func (s *Store) CommitXMLBytes(url, dtd, domain string, data []byte) (*CommitResult, error) {
	rawSig := rawHash(data)
	now := s.clock()
	s.mu.Lock()
	e, tracked := s.pages[url]
	if tracked && !s.alwaysDiff && e.Meta.Type == XML && e.rawSig == rawSig {
		e.Meta.LastAccessed = now
		res := &CommitResult{Status: StatusUnchanged, Meta: e.Meta, Old: e.Doc, Doc: e.Doc}
		s.mu.Unlock()
		s.statRawSig.Add(1)
		return res, nil
	}
	probe := tracked && !s.alwaysDiff && e.Meta.Type == XML
	s.mu.Unlock()

	// Tier 2: hash the bytes without building a DOM. The stream hash is a
	// pure function of data, so it is computed outside the lock; the
	// comparison — and the pairing of result metadata with the version
	// that matched — happens inside one critical section, mirroring the
	// rawSig discipline above.
	if probe {
		sh := streamHasherPool.Get().(*xmldom.StreamHasher)
		root, _, err := sh.Sum(data, 0)
		if err == nil {
			s.mu.Lock()
			if e, ok := s.pages[url]; ok && !s.alwaysDiff && e.Meta.Type == XML && e.structHash == root {
				e.Meta.LastAccessed = now
				// Refresh tier 1 for this serialization: the next refetch
				// of these exact bytes is one tier-1 hash again.
				e.rawSig = rawSig
				res := &CommitResult{Status: StatusUnchanged, Meta: e.Meta, Old: e.Doc, Doc: e.Doc}
				s.mu.Unlock()
				streamHasherPool.Put(sh)
				s.statStructHash.Add(1)
				return res, nil
			}
			s.mu.Unlock()
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
	return s.commitXML(url, dtd, domain, doc, rawSig)
}

// commitXML is the commit body of CommitXMLBytes: doc was parsed from
// bytes whose tier-1 hash is rawSig, recorded on the entry inside the same
// critical section as the commit, so the fast path can never pair a stale
// byte signature with a newer document.
func (s *Store) commitXML(url, dtd, domain string, doc *xmldom.Document, rawSig [2]uint64) (*CommitResult, error) {
	// The structural root hash identifies the version (tier 2 already
	// decides on it, Diff needs the vector anyway): the tree is never
	// serialised to compare it. doc is still the caller's alone — no lock.
	root := doc.Hashes().Of(doc.Root)
	now := s.clock()

	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.pages[url]
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
		// The hash vector stays cached on doc: the next version's Diff then
		// hashes only its own tree — and the root hash is the tier-2
		// reference for the next refetch.
		e = &Entry{Meta: meta, Doc: doc, rawSig: rawSig, structHash: root}
		s.pages[url] = e
		delete(s.stubs, url)
		return &CommitResult{Status: StatusNew, Meta: meta, Doc: doc}, nil
	}
	e.Meta.LastAccessed = now
	e.rawSig = rawSig
	if e.Meta.Type == XML && e.structHash == root {
		return &CommitResult{Status: StatusUnchanged, Meta: e.Meta, Old: e.Doc, Doc: e.Doc}, nil
	}
	// A page that was HTML has no old tree, and an unrelated root fails
	// the diff: both are wholesale replacements, with no delta.
	old := e.Doc
	var delta *xydiff.Delta
	if old != nil {
		s.statDiffed.Add(1)
		delta, _ = xydiff.Diff(old, doc)
		// The superseded version's vector is dropped: no later Diff
		// involves it.
		old.InvalidateHashes()
	}
	e.Doc, e.structHash = doc, root
	e.Meta.Type = XML
	e.Meta.Signature = structSignature(root)
	e.Meta.LastUpdate = now
	e.Meta.Version++
	if dtd != "" && dtd != e.Meta.DTD {
		e.Meta.DTD = dtd
		e.Meta.DTDID = s.dtdIDLocked(dtd)
	}
	if domain != "" {
		e.Meta.Domain = domain
	}
	return &CommitResult{Status: StatusUpdated, Meta: e.Meta, Old: old, Doc: doc, Delta: delta}, nil
}

// CommitHTML records a fetched HTML page: only its signature is kept, so
// the result status is New, Updated or Unchanged. A page that was XML is
// replaced wholesale: its tree and XML signatures go.
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
		delete(s.stubs, url)
		return &CommitResult{Status: StatusNew, Meta: meta}, nil
	}
	e.Meta.LastAccessed = now
	if e.Meta.Type == HTML && e.Meta.Signature == sig {
		return &CommitResult{Status: StatusUnchanged, Meta: e.Meta}, nil
	}
	e.Meta.Type, e.Meta.DTD, e.Meta.DTDID = HTML, "", 0
	e.Doc, e.rawSig, e.structHash = nil, [2]uint64{}, 0
	e.Meta.Signature = sig
	e.Meta.LastUpdate = now
	e.Meta.Version++
	return &CommitResult{Status: StatusUpdated, Meta: e.Meta}, nil
}

// Delete removes a page, returning its last state with StatusDeleted.
func (s *Store) Delete(url string) (*CommitResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.stubs, url)
	e, ok := s.pages[url]
	if !ok {
		return nil, ErrUnknownURL
	}
	delete(s.pages, url)
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

// Screen is the gate's screen of an untracked page: match(data), skipped
// for bytes already refused under the word-index gen read before the call.
// A refusal writes the stub, a pass drops it; no lock spans match or hash.
func (s *Store) Screen(url string, data []byte, gen uint64, match func([]byte) bool) bool {
	s.mu.RLock()
	st, seen := s.stubs[url]
	s.mu.RUnlock()
	var raw [2]uint64
	if seen {
		if raw = rawHash(data); raw == st.raw && gen == st.gen {
			s.statStubHits.Add(1)
			return false
		}
	}
	pass := match(data)
	if !pass && !seen {
		raw = rawHash(data)
	}
	s.mu.Lock()
	if _, tracked := s.pages[url]; pass || tracked {
		delete(s.stubs, url)
	} else {
		s.stubs[url] = stub{raw: raw, gen: gen}
	}
	s.mu.Unlock()
	return pass
}

// Get returns the entry for a URL.
func (s *Store) Get(url string) (*Entry, error) { //xyvet:ignore testonly per-page lookup the tests read metadata through
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

// AllRoots returns every warehoused XML document's root, in DocID order.
func (s *Store) AllRoots() []*xmldom.Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var roots []*xmldom.Node
	for _, e := range slices.SortedFunc(maps.Values(s.pages), func(a, b *Entry) int { return cmp.Compare(a.Meta.DocID, b.Meta.DocID) }) {
		if e.Doc != nil {
			roots = append(roots, e.Doc.Root)
		}
	}
	return roots
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
