package alerter

import (
	"sync"

	"xymon/internal/core"
	"xymon/internal/sublang"
	"xymon/internal/xmldom"
)

// HTMLAlerter detects content events on HTML pages. The paper lists HTML
// alerters as designed but not yet implemented ("Only the first two have
// been implemented", Section 3); this implementation completes them in the
// obvious way: HTML pages are not warehoused, so only whole-page keyword
// containment is supported (`self contains word`), on the raw text of the
// fetched page. Metadata and signature-change events are the URL
// Alerter's job and apply to HTML pages unchanged.
type HTMLAlerter struct {
	mu    sync.RWMutex
	words map[string][]core.Event
}

// NewHTMLAlerter returns an empty HTML alerter.
func NewHTMLAlerter() *HTMLAlerter {
	return &HTMLAlerter{words: make(map[string][]core.Event)}
}

// Handles reports whether the condition kind belongs to this alerter.
func (a *HTMLAlerter) Handles(kind sublang.CondKind) bool {
	return kind == sublang.CondSelfContains
}

// Register wires an atomic event code to a condition.
func (a *HTMLAlerter) Register(code core.Event, cond sublang.Condition) {
	if cond.Kind != sublang.CondSelfContains {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	w := xmldom.NormalizeWord(cond.Str)
	a.words[w] = append(a.words[w], code)
}

// Unregister removes a previously registered (code, condition) pair.
func (a *HTMLAlerter) Unregister(code core.Event, cond sublang.Condition) {
	if cond.Kind != sublang.CondSelfContains {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	w := xmldom.NormalizeWord(cond.Str)
	if codes := removeCode(a.words[w], code); len(codes) > 0 {
		a.words[w] = codes
	} else {
		delete(a.words, w)
	}
}

// Detect appends keyword events found in the raw page body. Matching
// codes are collected under the read lock and emitted after it is
// released, so the emit callback may re-enter the alerter.
func (a *HTMLAlerter) Detect(d *Doc, emit func(core.Event)) {
	var out []core.Event
	a.mu.RLock()
	if len(a.words) > 0 {
		var ws xmldom.WordScanner
		seen := make(map[string]bool)
		for w, i := ws.Next(d.Content, 0); w != nil; w, i = ws.Next(d.Content, i) {
			if codes, ok := a.words[string(w)]; ok && !seen[string(w)] {
				seen[string(w)] = true
				out = append(out, codes...)
			}
		}
	}
	a.mu.RUnlock()

	for _, c := range out {
		emit(c)
	}
}
