package alerter

import (
	"sync"

	"xymon/internal/core"
	"xymon/internal/sublang"
	"xymon/internal/warehouse"
	"xymon/internal/xmldom"
)

// tagTable maps an element tag to atomic event codes — the TagTable of
// Figure 8, reached through the word index.
type tagTable map[string][]core.Event

// removeCode deletes one occurrence of code from codes.
func removeCode(codes []core.Event, code core.Event) []core.Event {
	for i, c := range codes {
		if c == code {
			return append(codes[:i], codes[i+1:]...)
		}
	}
	return codes
}

// dropCode deletes one occurrence of code from m[key], and the key with
// its last code: every code table of the alerters is kept this way.
func dropCode[K comparable](m map[K][]core.Event, key K, code core.Event) {
	if codes := removeCode(m[key], code); len(codes) > 0 {
		m[key] = codes
	} else {
		delete(m, key)
	}
}

// wordEntry is everything registered on one word — the WordTable row of
// Figure 8, widened to all three condition kinds so that a word of a
// document costs one lookup.
type wordEntry struct {
	self     []core.Event // `self contains word`
	contains tagTable     // `tag contains word`: the word anywhere below tag
	strict   tagTable     // `tag strict contains word`: the word directly under tag
}

// changeTable indexes element change conditions: change op -> tag -> list
// of (word constraint, code).
type changeTable map[sublang.ChangeOp]map[string][]changeCond

type changeCond struct {
	word   string // empty means no contains constraint
	strict bool
	code   core.Event
}

func (ct changeTable) add(op sublang.ChangeOp, tag string, cc changeCond) {
	byTag := ct[op]
	if byTag == nil {
		byTag = make(map[string][]changeCond)
		ct[op] = byTag
	}
	byTag[tag] = append(byTag[tag], cc)
}

func (ct changeTable) remove(op sublang.ChangeOp, tag string, code core.Event) {
	byTag := ct[op]
	if byTag == nil {
		return
	}
	conds := byTag[tag]
	for i, c := range conds {
		if c.code == code {
			conds = append(conds[:i], conds[i+1:]...)
			break
		}
	}
	if len(conds) == 0 {
		delete(byTag, tag)
		if len(byTag) == 0 {
			delete(ct, op)
		}
	} else {
		byTag[tag] = conds
	}
}

// XMLAlerter detects element-level atomic events on XML documents
// (Section 6.3): presence conditions `tag (strict) contains word` via a
// postorder traversal with the WordTable→TagTable structure of Figure 8,
// change conditions `new/updated/deleted tag …` via the delta
// classification, and `self contains word` over the whole document — or,
// on an HTML page, over the words of its raw body.
type XMLAlerter struct {
	mu sync.RWMutex
	// words is the word index: one entry per word that a presence or
	// self-contains condition names. It is empty exactly when no such
	// condition is registered.
	words map[string]*wordEntry
	// screen summarises the keys of words by length and first byte. It
	// is updated with the index, under mu, when a word enters or leaves
	// it, so a scan may trust it to admit every indexed word.
	screen xmldom.WordScreen
	gen    uint64 // bumped by every change to words, tag-only ones too
	// changes indexes element change conditions.
	changes changeTable
}

// NewXMLAlerter returns an empty XML alerter.
func NewXMLAlerter() *XMLAlerter {
	return &XMLAlerter{
		words:   make(map[string]*wordEntry),
		changes: make(changeTable),
	}
}

// indexes reports whether the alerter indexes conditions of kind: the
// element conditions and `self contains`, the conditions on content.
func indexes(kind sublang.CondKind) bool {
	return kind == sublang.CondElement || kind == sublang.CondSelfContains
}

// Register wires an atomic event code to a condition; a condition on the
// page's metadata is not this alerter's and is ignored.
func (a *XMLAlerter) Register(code core.Event, cond sublang.Condition) {
	if !indexes(cond.Kind) {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	word := xmldom.NormalizeWord(cond.Str)
	if cond.Kind == sublang.CondElement && cond.Change != sublang.NoChange {
		a.changes.add(cond.Change, cond.Tag, changeCond{word: word, strict: cond.Strict, code: code})
		return
	}
	a.gen++
	e := a.words[word]
	if e == nil {
		e = new(wordEntry)
		a.words[word] = e
		if word != "" { // no scanned word is empty: nothing to admit
			a.screen.Add(word)
		}
	}
	if cond.Kind == sublang.CondSelfContains {
		e.self = append(e.self, code)
	} else {
		t := &e.contains
		if cond.Strict {
			t = &e.strict
		}
		if *t == nil {
			*t = make(tagTable)
		}
		(*t)[cond.Tag] = append((*t)[cond.Tag], code)
	}
}

// Unregister removes a previously registered (code, condition) pair.
func (a *XMLAlerter) Unregister(code core.Event, cond sublang.Condition) {
	if !indexes(cond.Kind) {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if cond.Kind == sublang.CondElement && cond.Change != sublang.NoChange {
		a.changes.remove(cond.Change, cond.Tag, code)
		return
	}
	word := xmldom.NormalizeWord(cond.Str)
	e := a.words[word]
	if e == nil {
		return
	}
	a.gen++
	if cond.Kind == sublang.CondSelfContains {
		e.self = removeCode(e.self, code)
	} else if cond.Strict {
		dropCode(e.strict, cond.Tag, code)
	} else {
		dropCode(e.contains, cond.Tag, code)
	}
	if len(e.self) == 0 && len(e.contains) == 0 && len(e.strict) == 0 {
		delete(a.words, word)
		if word != "" {
			a.screen.Remove(word)
		}
	}
}

// WordGen returns the word index's generation and whether it is empty: a
// Prefilter.Match refusal that starts after the read holds while gen does.
func (a *XMLAlerter) WordGen() (gen uint64, empty bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.gen, len(a.words) == 0
}

// HasChangeConds reports whether any element change condition
// (new/updated/deleted) is registered. While one is, the ingest gate must
// commit every document — change semantics need version history, so no
// page may be skipped, matching words or not.
func (a *XMLAlerter) HasChangeConds() bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.changes) > 0
}

// Detect appends the content-level atomic events raised by the document.
func (a *XMLAlerter) Detect(d *Doc, emit func(core.Event)) { //xyvet:ignore testonly per-alerter entry the Section 6.3 benchmark drives
	sc := detectPool.Get().(*detectScratch)
	a.detectWith(d, emit, sc)
	detectPool.Put(sc)
}

// detectWith is Detect with caller-supplied scratch; the pipeline passes
// its own so one pooled scratch serves the whole chain. An XML page is
// read through its parsed tree; an HTML page, which is not parsed, through
// the words of its raw body against the same index.
func (a *XMLAlerter) detectWith(d *Doc, emit func(core.Event), sc *detectScratch) {
	html := d.Meta.Type != warehouse.XML
	if !html && (d.Doc == nil || d.Doc.Root == nil) {
		return
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	if html {
		a.detectBody(d.Content, emit, sc)
		return
	}
	a.detectWords(d.Doc.Root, emit, sc)
	a.detectChanges(d, emit)
}

// fireSelf emits e's self-contains codes the first time a document meets
// e's word.
func (sc *detectScratch) fireSelf(e *wordEntry, emit func(core.Event)) {
	if len(e.self) > 0 && !sc.seen[e] {
		sc.seen[e] = true
		for _, code := range e.self {
			emit(code)
		}
	}
}

// detectBody raises the self-contains events of an unparsed page: every
// word of body, markup included, is looked up in the word index. The
// element conditions need a tree and do not apply.
func (a *XMLAlerter) detectBody(body []byte, emit func(core.Event), sc *detectScratch) {
	if len(a.words) == 0 {
		return
	}
	sc.scan.Screen = &a.screen
	for w, i := sc.scan.Next(body, 0); w != nil; w, i = sc.scan.Next(body, i) {
		if e := a.words[string(w)]; e != nil {
			sc.fireSelf(e, emit)
		}
	}
	clear(sc.seen)
	sc.scan.Screen = nil
}

// presenceFrame is one open element of detectWords' explicit walk: the
// node, the next child to visit, and the offset of the element's first
// subtree word in the shared word stack.
type presenceFrame struct {
	n     *xmldom.Node
	child int
	base  int
}

// detectWords raises the presence and self-contains events in one walk
// with one index lookup per word the screen admits. For `contains` it
// runs the postorder algorithm of Section 6.3. Every node n contributes
// the pair (level, content); walking in postorder, the words of the
// subtree rooted at n are exactly the words collected since n's subtree
// began. Only interesting words — index entries with a contains table —
// are retained, as the paper notes, so memory stays proportional to the
// matches rather than the document. All subtrees share one word stack:
// an element's words are words[base:], and since the offsets nest, a
// closing element simply leaves its words in place for the parent — no
// per-frame copying, no recursion (deep chains must not overflow the
// goroutine stack; the structural hash and TextContent are iterative for
// the same reason). A data node's words also feed `strict contains` on its
// parent, and `self contains`, which fires once per word and document.
func (a *XMLAlerter) detectWords(root *xmldom.Node, emit func(core.Event), sc *detectScratch) {
	if len(a.words) == 0 || root.Type != xmldom.ElementNode {
		return
	}
	sc.scan.Screen = &a.screen
	words := sc.words[:0]
	frames := append(sc.frames[:0], presenceFrame{n: root})
	for len(frames) > 0 {
		f := &frames[len(frames)-1]
		if f.child < len(f.n.Children) {
			c := f.n.Children[f.child]
			f.child++
			if c.Type != xmldom.TextNode {
				frames = append(frames, presenceFrame{n: c, base: len(words)})
				continue
			}
			for w, i := sc.scan.NextString(c.Data, 0); w != nil; w, i = sc.scan.NextString(c.Data, i) {
				e := a.words[string(w)]
				if e == nil {
					continue
				}
				sc.fireSelf(e, emit)
				for _, code := range e.strict[f.n.Data] {
					emit(code)
				}
				if len(e.contains) > 0 {
					words = append(words, e)
				}
			}
			continue
		}
		// The closing element's subtree words against their contains tables.
		for _, e := range words[f.base:] {
			for _, code := range e.contains[f.n.Data] {
				emit(code)
			}
		}
		frames = frames[:len(frames)-1]
	}
	clear(words) // entries may leave the index; do not pin them
	clear(sc.seen)
	sc.scan.Screen = nil
	sc.words = words[:0]
	sc.frames = frames
}

// detectChanges raises element change events. On a new document every
// element is new; on an update the delta classification supplies the new,
// updated and deleted elements.
func (a *XMLAlerter) detectChanges(d *Doc, emit func(core.Event)) {
	if len(a.changes) == 0 {
		return
	}
	newTbl := a.changes[sublang.OpNew]
	updTbl := a.changes[sublang.OpUpdated]
	delTbl := a.changes[sublang.OpDeleted]
	check := func(tbl map[string][]changeCond, n *xmldom.Node) {
		// A text node's Data may spell a watched tag.
		if tbl == nil || n.Type != xmldom.ElementNode {
			return
		}
		conds, ok := tbl[n.Data]
		if !ok {
			return
		}
		// Many conditions typically share a tag (one per subscriber word);
		// the element's text is materialised once for all of them.
		text, haveText := "", false
		for _, cc := range conds {
			if cc.word == "" {
				emit(cc.code)
				continue
			}
			if cc.strict {
				for _, c := range n.Children {
					if c.Type == xmldom.TextNode && xmldom.ContainsWord(c.Data, cc.word) {
						emit(cc.code)
						break
					}
				}
				continue
			}
			if !haveText {
				text, haveText = n.TextContent(), true
			}
			if xmldom.ContainsWord(text, cc.word) {
				emit(cc.code)
			}
		}
	}
	switch d.Status {
	case warehouse.StatusNew:
		if newTbl == nil {
			return
		}
		d.Doc.Root.PreOrder(func(n *xmldom.Node) bool {
			check(newTbl, n)
			return true
		})
	case warehouse.StatusUpdated:
		cl := d.Classification()
		if cl == nil {
			return
		}
		for _, n := range cl.NewElems {
			check(newTbl, n)
		}
		for _, n := range cl.UpdatedElems {
			check(updTbl, n)
		}
		for _, sub := range cl.DeletedSubtrees {
			sub.PreOrder(func(n *xmldom.Node) bool {
				check(delTbl, n)
				return true
			})
		}
	case warehouse.StatusDeleted:
		if delTbl == nil {
			return
		}
		d.Doc.Root.PreOrder(func(n *xmldom.Node) bool {
			check(delTbl, n)
			return true
		})
	}
}
