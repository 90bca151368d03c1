package alerter

import (
	"sync"
	"time"

	"xymon/internal/core"
	"xymon/internal/sublang"
	"xymon/internal/warehouse"
)

// URLAlerter detects the atomic events that depend only on a page's
// metadata (Section 6.2): URL patterns, filenames, DTD / DOCID / domain
// identity, fetch dates, and the weak document-level change patterns. It
// sits next to the URL manager and never needs the document content.
type URLAlerter struct {
	mu        sync.RWMutex
	prefixes  *HashPrefixIndex
	urlEq     map[string][]core.Event
	filenames map[string][]core.Event
	dtds      map[string][]core.Event
	domains   map[string][]core.Event
	dtdIDs    map[uint64][]core.Event
	docIDs    map[uint64][]core.Event
	dates     []dateCond
	changes   map[sublang.ChangeOp][]core.Event
}

type dateCond struct {
	kind sublang.CondKind // CondLastAccessed or CondLastUpdate
	cmp  sublang.Comparator
	date time.Time
	code core.Event
}

// NewURLAlerter returns an empty URL alerter.
func NewURLAlerter() *URLAlerter {
	return &URLAlerter{
		prefixes:  NewHashPrefixIndex(),
		urlEq:     make(map[string][]core.Event),
		filenames: make(map[string][]core.Event),
		dtds:      make(map[string][]core.Event),
		domains:   make(map[string][]core.Event),
		dtdIDs:    make(map[uint64][]core.Event),
		docIDs:    make(map[uint64][]core.Event),
		changes:   make(map[sublang.ChangeOp][]core.Event),
	}
}

// Register wires an atomic event code to a condition; a condition on the
// page's content is not this alerter's and is ignored.
func (a *URLAlerter) Register(code core.Event, cond sublang.Condition) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch cond.Kind {
	case sublang.CondURLExtends:
		a.prefixes.Add(cond.Str, code)
	case sublang.CondURLEquals:
		a.urlEq[cond.Str] = append(a.urlEq[cond.Str], code)
	case sublang.CondFilename:
		a.filenames[cond.Str] = append(a.filenames[cond.Str], code)
	case sublang.CondDTD:
		a.dtds[cond.Str] = append(a.dtds[cond.Str], code)
	case sublang.CondDomain:
		a.domains[cond.Str] = append(a.domains[cond.Str], code)
	case sublang.CondDTDID:
		a.dtdIDs[cond.Num] = append(a.dtdIDs[cond.Num], code)
	case sublang.CondDOCID:
		a.docIDs[cond.Num] = append(a.docIDs[cond.Num], code)
	case sublang.CondLastAccessed, sublang.CondLastUpdate:
		a.dates = append(a.dates, dateCond{kind: cond.Kind, cmp: cond.Cmp, date: cond.Date, code: code})
	case sublang.CondSelfChange:
		a.changes[cond.Change] = append(a.changes[cond.Change], code)
	}
}

// Unregister removes a previously registered (code, condition) pair.
func (a *URLAlerter) Unregister(code core.Event, cond sublang.Condition) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch cond.Kind {
	case sublang.CondURLExtends:
		a.prefixes.Remove(cond.Str, code)
	case sublang.CondURLEquals:
		dropCode(a.urlEq, cond.Str, code)
	case sublang.CondFilename:
		dropCode(a.filenames, cond.Str, code)
	case sublang.CondDTD:
		dropCode(a.dtds, cond.Str, code)
	case sublang.CondDomain:
		dropCode(a.domains, cond.Str, code)
	case sublang.CondDTDID:
		dropCode(a.dtdIDs, cond.Num, code)
	case sublang.CondDOCID:
		dropCode(a.docIDs, cond.Num, code)
	case sublang.CondLastAccessed, sublang.CondLastUpdate:
		for i, d := range a.dates {
			if d.code == code {
				a.dates = append(a.dates[:i], a.dates[i+1:]...)
				break
			}
		}
	case sublang.CondSelfChange:
		dropCode(a.changes, cond.Change, code)
	}
}

// Detect appends the URL-level events the page raises to dst and returns
// it with the number of weak self-change codes among them, so a caller can
// collect into pooled storage and nothing is emitted under the lock.
func (a *URLAlerter) Detect(d *Doc, dst []core.Event) ([]core.Event, int) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	a.prefixes.Lookup(d.Meta.URL, func(c core.Event) { dst = append(dst, c) })
	dst = append(dst, a.urlEq[d.Meta.URL]...)
	dst = append(dst, a.filenames[d.Meta.Filename]...)
	if d.Meta.DTD != "" {
		dst = append(dst, a.dtds[d.Meta.DTD]...)
	}
	if d.Meta.Domain != "" {
		dst = append(dst, a.domains[d.Meta.Domain]...)
	}
	dst = append(dst, a.dtdIDs[d.Meta.DTDID]...)
	dst = append(dst, a.docIDs[d.Meta.DocID]...)
	for _, dc := range a.dates {
		v := d.Meta.LastAccessed
		if dc.kind == sublang.CondLastUpdate {
			v = d.Meta.LastUpdate
		}
		if cmpTime(v, dc.cmp, dc.date) {
			dst = append(dst, dc.code)
		}
	}
	var op sublang.ChangeOp
	switch d.Status {
	case warehouse.StatusNew:
		op = sublang.OpNew
	case warehouse.StatusUpdated:
		op = sublang.OpUpdated
	case warehouse.StatusUnchanged:
		op = sublang.OpUnchanged
	case warehouse.StatusDeleted:
		op = sublang.OpDeleted
	}
	weak := a.changes[op]
	return append(dst, weak...), len(weak)
}

// CouldAlert reports whether a page with the given pre-fetch metadata
// could raise any URL-level event, for the ingest gate: true means the
// page must be committed. It is conservative — numeric DTD/DOC ids and
// fetch dates are only known after commit, and the weak self-change
// events fire on the commit status itself, so having any of those
// registered keeps every page on the parse path.
func (a *URLAlerter) CouldAlert(url, filename, dtd, domain string) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	// The closure escapes into the index, so it is only built when there
	// is a pattern to probe: a base without `URL extends` conditions keeps
	// the gate allocation-free.
	if a.prefixes.Len() > 0 {
		hit := false
		a.prefixes.Lookup(url, func(core.Event) { hit = true })
		if hit {
			return true
		}
	}
	if len(a.urlEq[url]) > 0 || len(a.filenames[filename]) > 0 {
		return true
	}
	if dtd != "" && len(a.dtds[dtd]) > 0 {
		return true
	}
	if domain != "" && len(a.domains[domain]) > 0 {
		return true
	}
	if len(a.dtdIDs) > 0 || len(a.docIDs) > 0 || len(a.dates) > 0 {
		return true
	}
	for _, codes := range a.changes {
		if len(codes) > 0 {
			return true
		}
	}
	return false
}

func cmpTime(v time.Time, cmp sublang.Comparator, ref time.Time) bool {
	switch cmp {
	case sublang.CmpEq:
		return v.Equal(ref)
	case sublang.CmpLt:
		return v.Before(ref)
	case sublang.CmpGt:
		return v.After(ref)
	case sublang.CmpLe:
		return !v.After(ref)
	case sublang.CmpGe:
		return !v.Before(ref)
	}
	return false
}
