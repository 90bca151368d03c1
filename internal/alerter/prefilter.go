package alerter

import (
	"sync"

	"xymon/internal/xmldom"
)

// Prefilter answers "could this serialized document possibly raise a
// presence or self-contains event?" by running the XML alerter's word
// index (Figure 8) directly over the token stream: a tag stack plus a
// word scanner over the raw character data — no tree, no per-word string
// allocations. The crawler consults it before parsing, so the common
// document — interesting to nobody and not version-tracked — is rejected
// before any DOM work. Rejecting is all such a document costs when its
// bytes or the word index are new (the gate's stubs answer the rest), so
// the pass is built to be cheap: the tokenizer recognises the common
// tokens by index walks (xmldom.Tokenizer.Next), and the scanner runs
// under the alerter's word screen, which refuses a word whose length or
// first byte no indexed word has without copying or hashing it — only a
// word that survives pays the one index lookup. As the base grows the
// screen fills up and admits more; the cost tends to one lookup per word.
//
// Match is exact with respect to detectWords: it returns true if and
// only if XMLAlerter.Detect would emit at least one presence or
// self-contains event on the parsed document
// (FuzzPrefilter holds the "never a false negative" half of that
// equivalence). Change conditions and version tracking are the ingest
// gate's business, not the pre-filter's.
type Prefilter struct {
	x *XMLAlerter
}

// NewPrefilter returns a pre-filter reading the alerter's live tables;
// conditions registered later are picked up automatically.
func NewPrefilter(x *XMLAlerter) *Prefilter {
	return &Prefilter{x: x}
}

// prefilterScratch is the pooled per-call state: the tokenizer, the
// open-tag stack (sub-slices of the input, nothing copied) and the word
// scanner.
type prefilterScratch struct {
	tok  xmldom.Tokenizer
	tags [][]byte
	scan xmldom.WordScanner
}

var prefilterPool = sync.Pool{New: func() any { return new(prefilterScratch) }}

// Match reports whether the serialized document could raise an element
// presence or self-contains event. It reads the tokenizer's node stream,
// so a document ParseBytes rejects is an error here too, and an error
// returns true: a malformed document is the parser's error to surface,
// not the pre-filter's to swallow.
func (p *Prefilter) Match(data []byte) bool {
	x := p.x
	x.mu.RLock()
	defer x.mu.RUnlock()
	if len(x.words) == 0 {
		return false
	}
	sc := prefilterPool.Get().(*prefilterScratch)
	sc.scan.Screen = &x.screen
	defer func() {
		sc.scan.Screen = nil
		sc.tok.Reset(nil)
		clear(sc.tags) // drop references into the caller's buffer
		sc.tags = sc.tags[:0]
		prefilterPool.Put(sc)
	}()
	sc.tok.Reset(data)
	for {
		k, err := sc.tok.Next()
		if err != nil {
			return true
		}
		switch k {
		case xmldom.TokEOF:
			return false
		case xmldom.TokStart:
			sc.tags = append(sc.tags, sc.tok.Tag())
		case xmldom.TokEnd:
			sc.tags = sc.tags[:len(sc.tags)-1]
		case xmldom.TokText:
			b := sc.tok.Text()
			// The scan restarts at every span: adjacent CDATA/text tokens
			// become separate text nodes in the tree, whose words never
			// merge.
			for w, i := sc.scan.Next(b, 0); w != nil; w, i = sc.scan.Next(b, i) {
				if e := x.words[string(w)]; e != nil && e.hits(sc.tags) {
					return true
				}
			}
		}
	}
}

// hits checks the open tags against one word's entry — the same tests
// detectWords makes on the built tree: a self-contains condition fires
// anywhere, `contains` under any enclosing tag, `strict` under the
// innermost one. Map lookups keyed by string(b) do not allocate.
func (e *wordEntry) hits(tags [][]byte) bool {
	if len(e.self) > 0 {
		return true
	}
	if len(e.contains) > 0 {
		for _, tag := range tags {
			if _, ok := e.contains[string(tag)]; ok {
				return true
			}
		}
	}
	_, ok := e.strict[string(tags[len(tags)-1])]
	return ok
}
