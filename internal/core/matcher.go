package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Matching statistics exposed for the experiments of Section 4.2.
type Stats struct {
	Complex     int // registered complex events
	Atomic      int // distinct atomic events present in at least one complex event
	Tables      int // hash tables in the structure (root + prefix tables)
	Cells       int // cells across all tables
	Marks       int // marked cells (== Complex while ids are unique)
	MaxDepth    int // longest prefix chain (== largest m)
	MatchCalls  uint64
	CellProbes  uint64
	MatchedSets uint64
	// ProbesPerMatch is CellProbes / MatchCalls; the event order decides it
	// (see Event).
	ProbesPerMatch float64
}

var (
	// ErrEmptyComplexEvent is returned when registering a complex event
	// with no atomic events. The paper disallows it implicitly: a where
	// clause has at least one (strong) atomic condition.
	ErrEmptyComplexEvent = errors.New("core: complex event must contain at least one atomic event")
	// ErrDuplicateComplexID is returned when a ComplexID is registered twice.
	ErrDuplicateComplexID = errors.New("core: complex event id already registered")
	// ErrUnknownComplexID is returned by Remove for an id that is not registered.
	ErrUnknownComplexID = errors.New("core: unknown complex event id")
)

// cell is one entry of a hash table of the structure. Its marks list the
// complex events exactly equal to the event prefix leading to the cell; its
// child table, when non-nil, indexes the next event of longer complex
// events sharing the prefix.
type cell struct {
	marks []ComplexID
	child table
}

// table maps the next atomic event of a prefix to its cell. The root table
// H maps first events; table H_{a...b} maps the events following prefix
// a...b, exactly as in Figure 4 of the paper.
type table map[Event]*cell

// statShard is one shard of the match counters. Shards are padded to a
// cache line so concurrent Match calls on different shards never bounce
// the same line between cores; Stats folds them on snapshot.
type statShard struct {
	matchCalls  atomic.Uint64
	cellProbes  atomic.Uint64
	matchedSets atomic.Uint64
	_           [64 - 3*8]byte
}

// notifFrame is one pending table of the iterative Notif walk: a table to
// probe and the event suffix that leads into it.
type notifFrame struct {
	t table
	s EventSet
}

// matchScratch is the per-call state of MatchAppend, recycled through a
// sync.Pool so the hot path performs no heap allocation beyond growing the
// caller's result slice. Each scratch carries a stats shard chosen at
// creation: the pool keeps scratches P-local, so the shard inherits the
// same locality and counter updates stay uncontended.
type matchScratch struct {
	frames []notifFrame
	shard  *statShard
}

// Matcher is the Monitoring Query Processor data structure. It supports
// concurrent Match calls and dynamic Add/Remove of complex events (Section
// 4.1 notes the subscription base changes while the system runs).
//
// The zero value is not usable; call NewMatcher.
type Matcher struct {
	mu     sync.RWMutex
	root   table
	defs   map[ComplexID]EventSet // registered complex events, canonical
	degree map[Event]int          // per-event membership count (the paper's k, per event)
	cells  int
	tables int

	// Matching statistics are sharded: MatchAppend bumps atomics on the
	// shard attached to its pooled scratch, never a mutex, so the hot
	// path cannot serialise the document flow (Section 4.2's capacity
	// claim rests on workers scaling).
	stats     []statShard
	nextShard atomic.Uint32
	scratch   sync.Pool
}

// NewMatcher returns an empty Monitoring Query Processor.
func NewMatcher() *Matcher {
	m := &Matcher{
		root:   make(table),
		defs:   make(map[ComplexID]EventSet),
		degree: make(map[Event]int),
		tables: 1,
	}
	shards := 4
	for shards < runtime.GOMAXPROCS(0) && shards < 64 {
		shards <<= 1
	}
	m.stats = make([]statShard, shards)
	m.scratch.New = func() any {
		i := m.nextShard.Add(1) - 1
		return &matchScratch{
			frames: make([]notifFrame, 0, 16),
			shard:  &m.stats[int(i)%len(m.stats)],
		}
	}
	return m
}

// Add registers the complex event id as the conjunction of the given atomic
// events. The input need not be canonical. Add is safe for concurrent use
// with Match.
func (m *Matcher) Add(id ComplexID, events []Event) error {
	set := Canonical(events)
	if len(set) == 0 {
		return ErrEmptyComplexEvent
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.defs[id]; dup {
		return ErrDuplicateComplexID
	}
	t := m.root
	var c *cell
	for i, e := range set {
		c = t[e]
		if c == nil {
			c = &cell{}
			t[e] = c
			m.cells++
		}
		if i == len(set)-1 {
			break
		}
		if c.child == nil {
			c.child = make(table)
			m.tables++
		}
		t = c.child
	}
	c.marks = append(c.marks, id)
	m.defs[id] = set
	for _, e := range set {
		m.degree[e]++
	}
	return nil
}

// Remove unregisters a complex event. Empty tables and unmarked chain cells
// are pruned so that long-running systems with subscription churn do not
// leak structure.
func (m *Matcher) Remove(id ComplexID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	set, ok := m.defs[id]
	if !ok {
		return ErrUnknownComplexID
	}
	delete(m.defs, id)
	for _, e := range set {
		if m.degree[e] == 1 {
			delete(m.degree, e)
		} else {
			m.degree[e]--
		}
	}
	m.removePath(m.root, set, id)
	return nil
}

// removePath walks the prefix chain of set, removes id from the final
// cell's marks and prunes now-useless cells and tables on the way back up.
// It reports whether the table t became prunable (empty).
func (m *Matcher) removePath(t table, set EventSet, id ComplexID) bool {
	e := set[0]
	c := t[e]
	if c == nil {
		return false
	}
	if len(set) == 1 {
		c.marks = deleteMark(c.marks, id)
	} else if c.child != nil {
		if m.removePath(c.child, set[1:], id) {
			c.child = nil
			m.tables--
		}
	}
	if len(c.marks) == 0 && c.child == nil {
		delete(t, e)
		m.cells--
	}
	return len(t) == 0
}

func deleteMark(marks []ComplexID, id ComplexID) []ComplexID {
	for i, m := range marks {
		if m == id {
			copy(marks[i:], marks[i+1:])
			return marks[:len(marks)-1]
		}
	}
	return marks
}

// Definition returns the canonical event set registered under id, or nil.
func (m *Matcher) Definition(id ComplexID) EventSet {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.defs[id].Clone()
}

// Range calls fn for every registered complex event until fn returns
// false. The set passed to fn is the retained canonical definition and
// must not be mutated; clone it before keeping it. Iteration order is
// unspecified. Range holds the structure's read lock for its duration,
// so fn must not call back into the Matcher's write methods — it exists
// for bulk export (the cluster's partition handoff dumps a block's
// subscriptions through it).
func (m *Matcher) Range(fn func(id ComplexID, set EventSet) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for id, set := range m.defs {
		// fn reads the definition snapshot; the contract above forbids it
		// from re-entering the matcher.
		//xyvet:ignore lockcheck
		if !fn(id, set) {
			return
		}
	}
}

// Degree returns the number of registered complex events that contain e —
// the per-event value of the paper's parameter k.
func (m *Matcher) Degree(e Event) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.degree[e]
}

// Match returns the ids of every registered complex event whose atomic
// events are all contained in the canonical set s. This is the algorithm
// "Notif" of Section 4.2: enter the root table with each event of s; inside
// a table, probe every remaining event, collect marks, and recurse into
// child tables with the remaining suffix.
//
// The result order is unspecified. Match never returns duplicates because
// each complex event is marked on exactly one prefix chain, and a chain is
// traversed at most once per strictly increasing suffix.
func (m *Matcher) Match(s EventSet) []ComplexID {
	return m.MatchAppend(nil, s)
}

// MatchAppend appends matches to dst and returns the extended slice,
// letting callers on the hot path reuse one buffer across documents.
// It acquires no mutex for statistics: counters live on sharded atomics
// and the traversal state on a pooled explicit stack, so concurrent
// callers only share the structure's read lock.
func (m *Matcher) MatchAppend(dst []ComplexID, s EventSet) []ComplexID {
	sc := m.scratch.Get().(*matchScratch)
	start := len(dst)
	m.mu.RLock()
	dst, frames, probes := m.notif(dst, sc.frames[:0], s)
	m.mu.RUnlock()
	sc.frames = frames // keep a grown stack for the next call

	sh := sc.shard
	sh.matchCalls.Add(1)
	sh.cellProbes.Add(probes)
	if len(dst) > start {
		sh.matchedSets.Add(1)
	}
	m.scratch.Put(sc)
	return dst
}

// notif intersects the incoming suffix with the root table and every
// reachable child table, probing whichever side is smaller: the suffix
// against the hash table (the paper's formulation), or — when the table is
// smaller, the common case in deep H_prefix tables — the table entries
// against the sorted suffix. The second direction is what keeps the
// observed cost linear in p: a visit to a tiny subtable costs O(|table|),
// not O(remaining suffix). Pending tables are kept on frames, an explicit
// stack owned by the pooled scratch, instead of the goroutine stack: the
// result order is unspecified, so the traversal order is free.
func (m *Matcher) notif(dst []ComplexID, frames []notifFrame, s EventSet) ([]ComplexID, []notifFrame, uint64) {
	probes := uint64(0)
	frames = append(frames, notifFrame{t: m.root, s: s})
	for len(frames) > 0 {
		fr := frames[len(frames)-1]
		frames[len(frames)-1] = notifFrame{} // drop structure references
		frames = frames[:len(frames)-1]
		t, s := fr.t, fr.s
		if len(t) < len(s) {
			for e, c := range t {
				probes++
				i := suffixIndex(s, e)
				if i < 0 {
					continue
				}
				dst = append(dst, c.marks...)
				if c.child != nil && i+1 < len(s) {
					frames = append(frames, notifFrame{t: c.child, s: s[i+1:]})
				}
			}
			continue
		}
		for i, e := range s {
			probes++
			c := t[e]
			if c == nil {
				continue
			}
			dst = append(dst, c.marks...)
			if c.child != nil && i+1 < len(s) {
				frames = append(frames, notifFrame{t: c.child, s: s[i+1:]})
			}
		}
	}
	return dst, frames[:0], probes
}

// suffixIndex binary-searches the canonical set for e, returning its index
// or -1.
func suffixIndex(s EventSet, e Event) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < e {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s) && s[lo] == e {
		return lo
	}
	return -1
}

// Matches reports whether the canonical set s triggers at least one complex
// event, without materialising the result list.
func (m *Matcher) Matches(s EventSet) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.any(m.root, s)
}

func (m *Matcher) any(t table, s EventSet) bool {
	if len(t) < len(s) {
		for e, c := range t {
			i := suffixIndex(s, e)
			if i < 0 {
				continue
			}
			if len(c.marks) > 0 {
				return true
			}
			if c.child != nil && i+1 < len(s) && m.any(c.child, s[i+1:]) {
				return true
			}
		}
		return false
	}
	for i, e := range s {
		c := t[e]
		if c == nil {
			continue
		}
		if len(c.marks) > 0 {
			return true
		}
		if c.child != nil && i+1 < len(s) && m.any(c.child, s[i+1:]) {
			return true
		}
	}
	return false
}

// Len returns the number of registered complex events.
func (m *Matcher) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.defs)
}

// Stats returns a snapshot of structural and matching statistics.
func (m *Matcher) Stats() Stats {
	m.mu.RLock()
	st := Stats{
		Complex: len(m.defs),
		Atomic:  len(m.degree),
		Tables:  m.tables,
		Cells:   m.cells,
	}
	marks := 0
	maxDepth := 0
	for _, set := range m.defs {
		marks++
		if len(set) > maxDepth {
			maxDepth = len(set)
		}
	}
	st.Marks = marks
	st.MaxDepth = maxDepth
	m.mu.RUnlock()

	// Fold the sharded match counters. Each shard is read atomically; the
	// sum is a linearisable-enough snapshot for monitoring (a concurrent
	// Match may straddle the fold, as it could straddle any lock here).
	for i := range m.stats {
		sh := &m.stats[i]
		st.MatchCalls += sh.matchCalls.Load()
		st.CellProbes += sh.cellProbes.Load()
		st.MatchedSets += sh.matchedSets.Load()
	}
	st.ProbesPerMatch = float64(st.CellProbes) / float64(max(st.MatchCalls, 1))
	return st
}

// MemoryEstimate returns an estimate in bytes of the heap consumed by the
// structure: cells, marks, definitions and table buckets. It supports the
// paper's 500 MB sizing discussion (Section 4.2) without depending on the
// runtime's allocator internals.
func (m *Matcher) MemoryEstimate() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	const (
		cellSize       = 8 /*map bucket share*/ + 4 /*key*/ + 8 /*ptr*/ + 24 /*marks header*/ + 8 /*child*/
		markSize       = 4
		perTableHeader = 48
	)
	var bytes int64
	bytes += int64(m.tables) * perTableHeader
	bytes += int64(m.cells) * cellSize
	for _, set := range m.defs {
		bytes += markSize
		bytes += int64(len(set))*4 + 24 // retained definition
	}
	return bytes
}
