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
	prefixes  PrefixIndex
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

// NewURLAlerter returns a URL alerter using the given prefix index; pass
// nil for the default hash structure.
func NewURLAlerter(prefixes PrefixIndex) *URLAlerter {
	if prefixes == nil {
		prefixes = NewHashPrefixIndex()
	}
	return &URLAlerter{
		prefixes:  prefixes,
		urlEq:     make(map[string][]core.Event),
		filenames: make(map[string][]core.Event),
		dtds:      make(map[string][]core.Event),
		domains:   make(map[string][]core.Event),
		dtdIDs:    make(map[uint64][]core.Event),
		docIDs:    make(map[uint64][]core.Event),
		changes:   make(map[sublang.ChangeOp][]core.Event),
	}
}

// Handles reports whether the condition kind belongs to this alerter.
func (a *URLAlerter) Handles(kind sublang.CondKind) bool {
	switch kind {
	case sublang.CondURLExtends, sublang.CondURLEquals, sublang.CondFilename,
		sublang.CondDTD, sublang.CondDTDID, sublang.CondDOCID, sublang.CondDomain,
		sublang.CondLastAccessed, sublang.CondLastUpdate, sublang.CondSelfChange:
		return true
	}
	return false
}

// Register wires an atomic event code to a condition.
func (a *URLAlerter) Register(code core.Event, cond sublang.Condition) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch cond.Kind {
	case sublang.CondURLExtends:
		// The prefix index is a passive data structure owned by this
		// alerter, not a user plug point; mutating it under a.mu is the
		// point of the lock.
		//xyvet:ignore lockcheck
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
		// Passive in-module index; see Register.
		//xyvet:ignore lockcheck
		a.prefixes.Remove(cond.Str, code)
	case sublang.CondURLEquals:
		a.urlEq[cond.Str] = dropCode(a.urlEq, cond.Str, code)
	case sublang.CondFilename:
		a.filenames[cond.Str] = dropCode(a.filenames, cond.Str, code)
	case sublang.CondDTD:
		a.dtds[cond.Str] = dropCode(a.dtds, cond.Str, code)
	case sublang.CondDomain:
		a.domains[cond.Str] = dropCode(a.domains, cond.Str, code)
	case sublang.CondDTDID:
		a.dtdIDs[cond.Num] = dropCodeU(a.dtdIDs, cond.Num, code)
	case sublang.CondDOCID:
		a.docIDs[cond.Num] = dropCodeU(a.docIDs, cond.Num, code)
	case sublang.CondLastAccessed, sublang.CondLastUpdate:
		for i, d := range a.dates {
			if d.code == code {
				a.dates = append(a.dates[:i], a.dates[i+1:]...)
				break
			}
		}
	case sublang.CondSelfChange:
		codes := a.changes[cond.Change]
		for i, c := range codes {
			if c == code {
				a.changes[cond.Change] = append(codes[:i], codes[i+1:]...)
				break
			}
		}
	}
}

func dropCode(m map[string][]core.Event, key string, code core.Event) []core.Event {
	codes := m[key]
	for i, c := range codes {
		if c == code {
			codes = append(codes[:i], codes[i+1:]...)
			break
		}
	}
	if len(codes) == 0 {
		delete(m, key)
		return nil
	}
	return codes
}

func dropCodeU(m map[uint64][]core.Event, key uint64, code core.Event) []core.Event {
	codes := m[key]
	for i, c := range codes {
		if c == code {
			codes = append(codes[:i], codes[i+1:]...)
			break
		}
	}
	if len(codes) == 0 {
		delete(m, key)
		return nil
	}
	return codes
}

// Detect appends the metadata-level atomic events raised by the document.
// Matching codes are collected under the read lock and emitted after it is
// released, so the emit callback may re-enter the alerter (e.g. to
// register a follow-up condition) without deadlocking.
func (a *URLAlerter) Detect(d *Doc, emit func(core.Event)) {
	var codes []core.Event
	collect := func(c core.Event) { codes = append(codes, c) }

	a.mu.RLock()
	// Passive in-module index; see Register. collect only appends.
	//xyvet:ignore lockcheck
	a.prefixes.Lookup(d.Meta.URL, collect)
	codes = append(codes, a.urlEq[d.Meta.URL]...)
	codes = append(codes, a.filenames[d.Meta.Filename]...)
	if d.Meta.DTD != "" {
		codes = append(codes, a.dtds[d.Meta.DTD]...)
	}
	if d.Meta.Domain != "" {
		codes = append(codes, a.domains[d.Meta.Domain]...)
	}
	codes = append(codes, a.dtdIDs[d.Meta.DTDID]...)
	codes = append(codes, a.docIDs[d.Meta.DocID]...)
	for _, dc := range a.dates {
		v := d.Meta.LastAccessed
		if dc.kind == sublang.CondLastUpdate {
			v = d.Meta.LastUpdate
		}
		if cmpTime(v, dc.cmp, dc.date) {
			collect(dc.code)
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
	codes = append(codes, a.changes[op]...)
	a.mu.RUnlock()

	for _, c := range codes {
		emit(c)
	}
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
	// Passive in-module index; see Register. The closure escapes into the
	// index, so it is only built when there is a pattern to probe: a base
	// without `URL extends` conditions keeps the gate allocation-free.
	//xyvet:ignore lockcheck
	if a.prefixes.Len() > 0 {
		hit := false
		//xyvet:ignore lockcheck
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

// PrefixMemory exposes the prefix structure's memory estimate for the
// hash-vs-trie ablation.
func (a *URLAlerter) PrefixMemory() int64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	// Passive in-module index; see Register.
	//xyvet:ignore lockcheck
	return a.prefixes.MemoryEstimate()
}
