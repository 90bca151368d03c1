package alerter

import (
	"sync"

	"xymon/internal/core"
	"xymon/internal/sublang"
	"xymon/internal/xmldom"
)

// Pipeline chains the alerters of Figure 7: a document is handled first by
// the URL Alerter, then by the XML Alerter, which reads an XML page's
// parsed tree and an HTML page's raw body, and all detected atomic events
// are assembled into a single alert. The pipeline also applies the
// weak/strong rule of Section 5.1: an alert is produced only when at least
// one strong atomic event was detected.
type Pipeline struct {
	URL *URLAlerter
	XML *XMLAlerter
}

// NewPipeline assembles the alerter chain.
func NewPipeline() *Pipeline {
	return &Pipeline{URL: NewURLAlerter(), XML: NewXMLAlerter()}
}

// Register wires an atomic event code to its condition across the chain;
// each alerter ignores the condition kinds it does not index.
func (p *Pipeline) Register(code core.Event, cond sublang.Condition) {
	p.URL.Register(code, cond)
	p.XML.Register(code, cond)
}

// Unregister removes the code's condition from the chain.
func (p *Pipeline) Unregister(code core.Event, cond sublang.Condition) {
	p.URL.Unregister(code, cond)
	p.XML.Unregister(code, cond)
}

// detectScratch is the per-document working state of Detect, recycled
// through a sync.Pool so the no-event common case allocates nothing. The
// emit closure is built once per scratch — handing a fresh closure to the
// alerters on every document would itself allocate.
type detectScratch struct {
	events []core.Event
	emit   func(core.Event)
	// seen dedups self-contains words; frames and words are the explicit
	// stacks of detectWords' iterative walk, scan its word scanner. They
	// live on the same scratch so the common no-match document allocates
	// nothing.
	seen   map[*wordEntry]bool
	frames []presenceFrame
	words  []*wordEntry
	scan   xmldom.WordScanner
}

var detectPool = sync.Pool{New: func() any {
	sc := &detectScratch{
		events: make([]core.Event, 0, 16),
		seen:   make(map[*wordEntry]bool, 8),
	}
	sc.emit = func(c core.Event) { sc.events = append(sc.events, c) }
	return sc
}}

// Detect runs the chain on one document and returns the alert: the
// canonical atomic event set plus the strong flag. A nil alert means no
// event of interest was detected at all. The weak events are the URL
// Alerter's self-change codes, and distinct conditions have distinct
// codes, so the alert is strong exactly when its set holds more codes than
// the weak ones the URL Alerter raised.
func (p *Pipeline) Detect(d *Doc) *Alert {
	sc := detectPool.Get().(*detectScratch)
	var weak int
	sc.events, weak = p.URL.Detect(d, sc.events[:0])
	p.XML.detectWith(d, sc.emit, sc)
	if len(sc.events) == 0 {
		detectPool.Put(sc)
		return nil
	}
	set := core.Canonical(sc.events) // copies, so the scratch can be reused
	detectPool.Put(sc)
	return &Alert{Doc: d, Events: set, Strong: len(set) > weak}
}
