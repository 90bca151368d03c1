package alerter

import (
	"sync"

	"xymon/internal/core"
	"xymon/internal/sublang"
	"xymon/internal/warehouse"
	"xymon/internal/xmldom"
)

// Pipeline chains the alerters of Figure 7: a document is handled first by
// the URL Alerter, then by the XML or HTML Alerter depending on its type,
// and all detected atomic events are assembled into a single alert. The
// pipeline also applies the weak/strong rule of Section 5.1: an alert is
// produced only when at least one strong atomic event was detected.
type Pipeline struct {
	URL  *URLAlerter
	XML  *XMLAlerter
	HTML *HTMLAlerter

	mu   sync.RWMutex
	weak map[core.Event]bool // codes of weak (document change) events
}

// NewPipeline assembles the default alerter chain; prefixes selects the
// `URL extends` structure (nil for the default hash index).
func NewPipeline(prefixes PrefixIndex) *Pipeline {
	return &Pipeline{
		URL:  NewURLAlerter(prefixes),
		XML:  NewXMLAlerter(),
		HTML: NewHTMLAlerter(),
		weak: make(map[core.Event]bool),
	}
}

// Register wires an atomic event code to its condition across the chain.
func (p *Pipeline) Register(code core.Event, cond sublang.Condition) {
	if p.URL.Handles(cond.Kind) {
		p.URL.Register(code, cond)
	}
	if p.XML.Handles(cond.Kind) {
		p.XML.Register(code, cond)
	}
	if p.HTML.Handles(cond.Kind) {
		p.HTML.Register(code, cond)
	}
	if cond.Weak() {
		p.mu.Lock()
		p.weak[code] = true
		p.mu.Unlock()
	}
}

// Unregister removes the code's condition from the chain.
func (p *Pipeline) Unregister(code core.Event, cond sublang.Condition) {
	if p.URL.Handles(cond.Kind) {
		p.URL.Unregister(code, cond)
	}
	if p.XML.Handles(cond.Kind) {
		p.XML.Unregister(code, cond)
	}
	if p.HTML.Handles(cond.Kind) {
		p.HTML.Unregister(code, cond)
	}
	p.mu.Lock()
	delete(p.weak, code)
	p.mu.Unlock()
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
// event of interest was detected at all.
func (p *Pipeline) Detect(d *Doc) *Alert {
	sc := detectPool.Get().(*detectScratch)
	sc.events = sc.events[:0]
	p.URL.Detect(d, sc.emit)
	if d.Meta.Type == warehouse.XML {
		p.XML.detectWith(d, sc.emit, sc)
	} else {
		p.HTML.Detect(d, sc.emit)
	}
	if len(sc.events) == 0 {
		detectPool.Put(sc)
		return nil
	}
	set := core.Canonical(sc.events) // copies, so the scratch can be reused
	detectPool.Put(sc)
	p.mu.RLock()
	strong := false
	for _, e := range set {
		if !p.weak[e] {
			strong = true
			break
		}
	}
	p.mu.RUnlock()
	return &Alert{Doc: d, Events: set, Strong: strong}
}
