// Package manager implements the Subscription Manager of the architecture
// (Section 3): it parses and registers subscriptions, chooses the internal
// codes of atomic events, warns the alerters of new events, manages the
// complex events of the Monitoring Query Processor, wires continuous
// queries into the Trigger Engine and report specifications into the
// Reporter. The base is persisted in the Reporter's journal beside the
// buffers and marks that belong to it, so the system recovers it on
// restart (the paper keeps it in MySQL).
package manager

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"xymon/internal/alerter"
	"xymon/internal/core"
	"xymon/internal/reporter"
	"xymon/internal/sublang"
	"xymon/internal/trigger"
	"xymon/internal/xmldom"
)

// ErrDuplicateSubscription is returned when a subscription name is taken.
var ErrDuplicateSubscription = errors.New("manager: subscription name already registered")

// ErrUnknownSubscription is returned for operations on unknown names.
var ErrUnknownSubscription = errors.New("manager: unknown subscription")

// ErrJournal wraps a write to the Reporter's journal that failed: the
// subscribe or unsubscribe it recorded did not take effect.
var ErrJournal = errors.New("manager: subscription journal failed")

// Matcher is the Monitoring Query Processor the Manager drives (Section
// 4): core.Matcher, or a baseline of §4.1. Remove takes the events id was
// added with, which the cluster's ring client routes by; a matcher keeping
// its own copy of each definition ignores them. The Manager calls Add and
// Remove under m.mu, so the base, the query table and the matcher change
// together; a Matcher takes only its own lock and never calls back into
// the Manager.
type Matcher interface {
	Add(id core.ComplexID, events []core.Event) error
	Remove(id core.ComplexID, events []core.Event) error
	MatchAppend(dst []core.ComplexID, s core.EventSet) []core.ComplexID
	Len() int
}

// registeredQuery is one compiled monitoring query: its complex event id,
// its atomic event codes, and what every notification of it needs, bound
// at registration: the dedup hash folded over (subscription, label), the
// shared select plan and the Reporter's handle. Immutable once published.
type registeredQuery struct {
	sub    string
	seed   uint64
	plan   *selectPlan
	rep    *reporter.Sub
	id     core.ComplexID
	events core.EventSet
}

// queryTable resolves the ComplexIDs a match returns to their queries: a
// directory of fixed pages indexed by id. ProcessAlert reads it with no
// lock; writers hold m.mu. Ids are handed out once and never reused, so a
// slot goes nil → query → nil (and back to the same query on Resume): a
// stale id reads nil, never another subscription's query. A page whose
// slots are all nil again is dropped: the table costs 8 KB per page with a
// live query on it and 8 bytes of directory per 1024 ids ever issued.
type queryTable struct {
	dir atomic.Pointer[[]atomic.Pointer[queryPage]]
}

const queryPageBits = 10

type queryPage struct {
	slots [1 << queryPageBits]atomic.Pointer[registeredQuery]
	live  int // non-nil slots; guarded by m.mu
}

func (t *queryTable) pages() []atomic.Pointer[queryPage] {
	if d := t.dir.Load(); d != nil {
		return *d
	}
	return nil
}

func (t *queryTable) get(id core.ComplexID) *registeredQuery {
	if d := t.pages(); int(id>>queryPageBits) < len(d) {
		if p := d[id>>queryPageBits].Load(); p != nil {
			return p.slots[id&(1<<queryPageBits-1)].Load()
		}
	}
	return nil
}

// set publishes rq under id, or clears the slot when rq is nil (a no-op for
// an id that is not published). The caller holds m.mu.
func (t *queryTable) set(id core.ComplexID, rq *registeredQuery) {
	pi, d := int(id>>queryPageBits), t.pages()
	if pi >= len(d) {
		if rq == nil {
			return
		}
		grown := make([]atomic.Pointer[queryPage], max(16, 2*(pi+1)))
		for i := range d {
			grown[i].Store(d[i].Load())
		}
		d = grown
		t.dir.Store(&grown)
	}
	p := d[pi].Load()
	if p == nil {
		if rq == nil {
			return
		}
		p = new(queryPage)
		d[pi].Store(p)
	}
	switch old := p.slots[id&(1<<queryPageBits-1)].Swap(rq); {
	case old == nil && rq != nil:
		p.live++
	case old != nil && rq == nil:
		p.live--
	}
	if p.live == 0 {
		d[pi].Store(nil)
	}
}

// registeredSub is what the manager keeps of a subscription: no parse tree
// and no source text (the Reporter journals that).
type registeredSub struct {
	refresh []sublang.RefreshStatement
	queries []*registeredQuery
	// a posteriori inhibition state (Section 5.4)
	suspended   bool
	notifWindow int
	docsWindow  int
}

// Stats counts the manager's activity.
type Stats struct {
	Subscriptions int
	AtomicEvents  int
	ComplexEvents int
	DocsProcessed uint64
	AlertsSent    uint64 // alerts with at least one strong event
	WeakSuppress  uint64 // alerts suppressed by the weak/strong rule
	Notifications uint64
	Suspensions   uint64   // subscriptions inhibited a posteriori
	Suspended     []string // the ones inhibited now, sorted; Resume lifts one
}

// Manager owns the subscription base and drives the notification chain.
type Manager struct {
	mu       sync.Mutex
	matcher  Matcher
	pipeline *alerter.Pipeline
	reporter *reporter.Reporter
	trigger  *trigger.Engine
	clock    func() time.Time

	condCodes map[string]core.Event // canonical condition -> code
	condRef   map[core.Event]int
	condOf    map[core.Event]sublang.Condition
	// nextSeq[c] is the next unused sequence number of class c, seqLimit the
	// first that does not fit below the class bits (internEventLocked).
	nextSeq  [sublang.NumClasses]core.Event
	seqLimit core.Event

	queries     queryTable
	nextComplex core.ComplexID
	plans       map[string]*selectPlan // compiled select clauses by key

	subs map[string]*registeredSub

	maxCost     float64
	inhibitRate float64
	suspensions uint64

	// The per-document counters are atomics, not m.mu state: ProcessDoc
	// runs on every fetched document across all flow workers, and the
	// happy path (no alert, or a weak-only alert) must not serialise on
	// the subscription-base lock.
	docsProcessed atomic.Uint64
	alertsSent    atomic.Uint64
	weakSuppress  atomic.Uint64
	notifications atomic.Uint64
}

// processScratch is the per-alert working state of ProcessAlert, recycled
// through a sync.Pool so a document that raises notifications performs no
// map or slice allocation for bookkeeping. The payloads still allocate, but
// once per distinct select plan, not per notification: every query of a
// plan hands the Reporter the same read-only nodes.
type processScratch struct {
	matched []core.ComplexID
	rqs     []matchedQuery
	elems   []*xmldom.Node
	hashes  []uint64               // hashes[i] is elems[i].SubtreeHash()
	spans   map[*selectPlan][2]int // a plan's payloads: elems[lo:hi]
	batch   []reporter.Notification
	trig    []produced
	seen    map[uint64]struct{}
}

// matchedQuery is a query the alert matched, and where its plan's
// payloads sit in the scratch: elems[lo:hi].
type matchedQuery struct {
	rq     *registeredQuery
	lo, hi int
}

// produced records that a query raised n notifications in this alert: its
// continuous queries are poked once the batch is delivered, and its
// subscription's rate window advances.
type produced struct {
	rq *registeredQuery
	n  int
}

var processPool = sync.Pool{New: func() any {
	return &processScratch{seen: make(map[uint64]struct{}, 16), spans: make(map[*selectPlan][2]int, 4)}
}}

// release scrubs pointer-carrying state and returns the scratch to the
// pool; maps are cleared, slices keep their capacity.
func (sc *processScratch) release() {
	clear(sc.seen)
	clear(sc.spans)
	sc.matched = sc.matched[:0] // plain values, no scrub needed
	sc.hashes = sc.hashes[:0]
	clear(sc.rqs)
	sc.rqs = sc.rqs[:0]
	clear(sc.elems[:cap(sc.elems)])
	sc.elems = sc.elems[:0]
	clear(sc.batch)
	sc.batch = sc.batch[:0]
	clear(sc.trig)
	sc.trig = sc.trig[:0]
	processPool.Put(sc)
}

// Config wires the manager to the other modules. Matcher, Pipeline,
// Reporter and Trigger must be non-nil; Clock defaults to time.Now. The
// Reporter's journal, when it has one, persists the base.
type Config struct {
	Matcher  Matcher
	Pipeline *alerter.Pipeline
	Reporter *reporter.Reporter
	Trigger  *trigger.Engine
	Clock    func() time.Time
	// MaxCost rejects subscriptions whose a priori cost estimate exceeds
	// the budget (0 disables the check). See Estimate.
	MaxCost float64
	// InhibitRate suspends a subscription a posteriori when it produces
	// more than this many notifications per processed document, averaged
	// over a window (0 disables inhibition).
	InhibitRate float64
}

// New assembles a manager.
func New(cfg Config) *Manager {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Manager{
		matcher:     cfg.Matcher,
		pipeline:    cfg.Pipeline,
		reporter:    cfg.Reporter,
		trigger:     cfg.Trigger,
		clock:       cfg.Clock,
		condCodes:   make(map[string]core.Event),
		condRef:     make(map[core.Event]int),
		condOf:      make(map[core.Event]sublang.Condition),
		seqLimit:    1 << classShift,
		plans:       make(map[string]*selectPlan),
		subs:        make(map[string]*registeredSub),
		maxCost:     cfg.MaxCost,
		inhibitRate: cfg.InhibitRate,
	}
}

// Subscribe parses, validates, registers and journals a subscription
// written in the subscription language.
func (m *Manager) Subscribe(src string) (*sublang.Subscription, error) {
	sub, err := sublang.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := m.register(src, sub, true); err != nil {
		return nil, err
	}
	return sub, nil
}

// register compiles and registers sub. With journal the Reporter journals
// it last, and a failed write undoes it. Without (recovery) a virtual
// target that is absent is left unlinked: it was unsubscribed after sub
// registered, and its removal took the link.
func (m *Manager) register(src string, sub *sublang.Subscription, journal bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.subs[sub.Name]; dup {
		return ErrDuplicateSubscription
	}
	if m.maxCost > 0 {
		if cost := Estimate(sub); cost.Total() > m.maxCost {
			return fmt.Errorf("%w: estimated cost %.0f exceeds budget %.0f",
				ErrTooExpensive, cost.Total(), m.maxCost)
		}
	}
	rs := &registeredSub{refresh: sub.Refresh}
	// Compile monitoring queries: each where clause becomes one complex
	// event over deduplicated atomic event codes.
	for _, mq := range sub.Monitoring {
		events := make([]core.Event, 0, len(mq.Where))
		// undo releases the codes this query interned, then the queries
		// registered before it.
		undo := func(err error) error {
			for _, e := range events {
				m.releaseEventLocked(e)
			}
			m.rollbackLocked(rs)
			return err
		}
		for _, cond := range mq.Where {
			code, err := m.internEventLocked(cond)
			if err != nil {
				return undo(err)
			}
			if slices.Contains(events, code) {
				// A repeated condition: the query holds one reference per
				// code, and rollbackLocked releases one.
				m.releaseEventLocked(code)
				continue
			}
			events = append(events, code)
		}
		id := m.nextComplex
		m.nextComplex++
		set := core.Canonical(events)
		// Under m.mu, or an Unsubscribe landing first would orphan id; a
		// Matcher takes only its own lock and never calls back into m.
		//xyvet:ignore lockcheck
		if err := m.matcher.Add(id, set); err != nil {
			return undo(fmt.Errorf("manager: registering complex event: %w", err))
		}
		plan := m.internPlanLocked(mq)
		rs.queries = append(rs.queries, &registeredQuery{
			sub: sub.Name, plan: plan, id: id, events: set,
			seed: xmldom.HashFold(xmldom.HashFold(xmldom.HashSeed(), sub.Name), plan.label),
		})
	}
	// The queries go live only once they carry the Reporter's handle; a
	// document matched before that resolves their ids to nil.
	rep := m.reporter.Register(sub.Name, sub.Report)
	for _, rq := range rs.queries {
		rq.rep = rep
		m.queries.set(rq.id, rq)
	}
	for _, cq := range sub.Continuous {
		m.trigger.Register(sub.Name, cq)
	}
	for _, v := range sub.Virtual {
		if err := m.reporter.Follow(sub.Name, v.Subscription); err != nil && journal {
			_ = m.unregisterLocked(sub.Name, rs) // not journaled: cannot fail
			return err
		}
	}
	if journal {
		// Journaled under m.mu, so the journal holds subscribes and
		// unsubscribes in the order they took effect.
		if err := m.reporter.Persist(rep, src); err != nil {
			// A restart would not bring it back, so it does not stay.
			_ = m.unregisterLocked(sub.Name, rs) // Persist failed whole: cannot fail
			return fmt.Errorf("%w: %w", ErrJournal, err)
		}
	}
	m.subs[sub.Name] = rs
	return nil
}

// unregisterLocked takes rs out of the Reporter — which journals the
// removal of a journaled subscription, and fails without changing
// anything if it cannot — then out of the matcher and the Trigger Engine.
func (m *Manager) unregisterLocked(name string, rs *registeredSub) error {
	if err := m.reporter.Unregister(name); err != nil {
		return fmt.Errorf("%w: %w", ErrJournal, err)
	}
	m.rollbackLocked(rs)
	m.trigger.Unregister(name)
	return nil
}

// rollbackLocked undoes partial registration of rs.
func (m *Manager) rollbackLocked(rs *registeredSub) {
	for _, rq := range rs.queries {
		// A Matcher takes only its own lock and never calls back into m.
		//xyvet:ignore lockcheck
		_ = m.matcher.Remove(rq.id, rq.events)
		m.queries.set(rq.id, nil)
		for _, e := range rq.events {
			m.releaseEventLocked(e)
		}
		if rq.plan.refs--; rq.plan.refs == 0 {
			delete(m.plans, rq.plan.key)
		}
	}
}

// internPlanLocked compiles the select clause of mq and returns the plan
// interned under its key, interning it if none is. The lookup converts the
// key without allocating: a shared plan costs the compile and one probe.
func (m *Manager) internPlanLocked(mq *sublang.MonitoringQuery) *selectPlan {
	var buf [128]byte
	p := compileSelect(mq)
	key := p.appendKey(buf[:0])
	if q := m.plans[string(key)]; q != nil {
		p = q
	} else {
		p.key = string(key)
		m.plans[p.key] = p
	}
	p.refs++
	return p
}

// Unsubscribe removes a subscription and journals the removal, under
// m.mu for ordering (see register) and first: a removal the journal did
// not take does not happen.
func (m *Manager) Unsubscribe(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.subs[name]
	if !ok {
		return ErrUnknownSubscription
	}
	if err := m.unregisterLocked(name, rs); err != nil {
		return err
	}
	delete(m.subs, name)
	return nil
}

// ErrCodeSpaceExhausted rejects a subscription that needs a new atomic event
// in a selectivity class whose codes have all been handed out.
var ErrCodeSpaceExhausted = errors.New("manager: atomic event code space exhausted")

// classShift places the selectivity class above a 29-bit sequence number.
const classShift = 29

// internEventLocked returns the atomic event code of a condition,
// allocating one and warning the alerters on first use. Conditions are
// deduplicated by their canonical string form, so a thousand subscriptions
// watching Amazon's URL share one atomic event (the load concentration the
// paper's parameter k models). A code is class<<29 | seq: the matcher orders
// a complex event by code, so the rarely raised conditions of a where clause
// lead its prefix chain and the words a page raises by the dozen come last
// (see sublang.Class). A sequence number is used once — a released code may
// still ride an in-flight alert — so a class that runs out fails the
// subscription.
func (m *Manager) internEventLocked(cond sublang.Condition) (core.Event, error) {
	key := cond.String()
	if code, ok := m.condCodes[key]; ok {
		m.condRef[code]++
		return code, nil
	}
	class := cond.Class()
	if m.nextSeq[class] >= m.seqLimit {
		return 0, fmt.Errorf("%w: no code left for %q", ErrCodeSpaceExhausted, key)
	}
	code := core.Event(class)<<classShift | m.nextSeq[class]
	m.nextSeq[class]++
	m.condCodes[key] = code
	m.condRef[code] = 1
	m.condOf[code] = cond
	m.pipeline.Register(code, cond)
	return code, nil
}

func (m *Manager) releaseEventLocked(code core.Event) {
	m.condRef[code]--
	if m.condRef[code] > 0 {
		return
	}
	cond := m.condOf[code]
	m.pipeline.Unregister(code, cond)
	delete(m.condRef, code)
	delete(m.condOf, code)
	delete(m.condCodes, cond.String())
}

// ProcessDoc runs the full notification chain on one fetched document:
// alerter detection, the weak/strong filter, monitoring-query matching and
// notification dispatch. It returns the number of notifications produced.
// The happy path — no event of interest, or a weak-only alert — touches
// only atomics, never m.mu, so flow workers do not serialise here.
func (m *Manager) ProcessDoc(d *alerter.Doc) int {
	m.docsProcessed.Add(1)
	a := m.pipeline.Detect(d)
	if a == nil {
		return 0
	}
	if !a.Strong {
		m.weakSuppress.Add(1)
		return 0
	}
	return m.ProcessAlert(a)
}

// ProcessAlert matches an alert against the subscription base and
// dispatches the notifications of every matched monitoring query. The
// notifications of one alert are handed to the Reporter as a single batch,
// amortising its lock acquisitions across the whole document. Nothing here
// takes m.mu unless a posteriori inhibition is on: ids resolve through the
// lock-free query table, and everything else a notification needs hangs
// off the resolved query.
//
// It runs in three passes — resolve every id, materialise every plan,
// emit — so the cache misses of one query's table slot, and then of its
// plan, overlap with the next query's instead of following each other.
func (m *Manager) ProcessAlert(a *alerter.Alert) int {
	sc := processPool.Get().(*processScratch)
	sc.matched = m.matcher.MatchAppend(sc.matched[:0], a.Events)
	m.alertsSent.Add(1)
	now := m.clock()
	for _, id := range sc.matched {
		if rq := m.queries.get(id); rq != nil { // nil: unsubscribed or suspended since the match
			sc.rqs = append(sc.rqs, matchedQuery{rq: rq})
		}
	}
	for i := range sc.rqs {
		mq := &sc.rqs[i]
		// A plan's payloads depend on the plan and the document alone, so
		// the queries sharing a plan share one materialisation and hash.
		span, ok := sc.spans[mq.rq.plan]
		if !ok {
			span[0] = len(sc.elems)
			sc.elems = mq.rq.plan.appendPayloads(sc.elems, a.Doc)
			for _, el := range sc.elems[span[0]:] {
				sc.hashes = append(sc.hashes, el.SubtreeHash())
			}
			span[1] = len(sc.elems)
			sc.spans[mq.rq.plan] = span
		}
		mq.lo, mq.hi = span[0], span[1]
	}
	for _, mq := range sc.rqs {
		rq, n := mq.rq, 0
		for i := mq.lo; i < mq.hi; i++ {
			// Disjunctive where clauses compile to several complex events
			// sharing one select (see sublang); when a document matches
			// more than one disjunct, the subscriber still gets each
			// notification payload once. The key is the payload's
			// structural hash folded into the (subscription, label) seed —
			// serialising the payload to XML per notification was the
			// dominant dedup cost.
			key := xmldom.FoldUint64(rq.seed, sc.hashes[i])
			if _, dup := sc.seen[key]; dup {
				continue
			}
			sc.seen[key] = struct{}{}
			// The element is read-only from here on: the Reporter and the
			// other queries of this plan hold the same node.
			sc.batch = append(sc.batch, reporter.Notification{
				Sub: rq.rep, Label: rq.plan.label, Element: sc.elems[i], Time: now,
			})
			n++
		}
		if n > 0 {
			sc.trig = append(sc.trig, produced{rq, n})
		}
	}
	total := len(sc.batch)
	m.reporter.NotifyBatch(sc.batch)
	// Continuous queries may be triggered by these notifications; they fire
	// now that the Reporter has the payloads.
	for _, p := range sc.trig {
		m.trigger.OnNotification(p.rq.sub, p.rq.plan.label)
	}
	m.notifications.Add(uint64(total))
	if m.inhibitRate > 0 && len(sc.trig) > 0 {
		m.mu.Lock()
		// Only subscriptions that produced notifications advance their
		// window: silent subscriptions can never exceed the rate budget,
		// and touching the whole base per alert would not scale. A
		// subscription advances once per matched query; its window holds
		// the same sum either way.
		for _, p := range sc.trig {
			if rs := m.subs[p.rq.sub]; rs != nil {
				m.noteNotificationsLocked(rs, p.n)
			}
		}
		m.mu.Unlock()
	}
	sc.release()
	return total
}

// Subscriptions lists the registered subscription names.
func (m *Manager) Subscriptions() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.subs))
	for name := range m.subs {
		out = append(out, name)
	}
	return out
}

// RefreshHints aggregates the refresh statements of all subscriptions,
// keyed by URL (the smallest period wins). The crawler consults them to
// boost page importance (Section 2.2).
func (m *Manager) RefreshHints() map[string]sublang.Frequency {
	m.mu.Lock()
	defer m.mu.Unlock()
	hints := make(map[string]sublang.Frequency)
	for _, rs := range m.subs {
		for _, r := range rs.refresh {
			if cur, ok := hints[r.URL]; !ok || r.Freq < cur {
				hints[r.URL] = r.Freq
			}
		}
	}
	return hints
}

// Stats snapshots the manager's counters.
func (m *Manager) Stats() Stats {
	complexEvents := m.matcher.Len()
	m.mu.Lock()
	defer m.mu.Unlock()
	var suspended []string
	for name, rs := range m.subs {
		if rs.suspended {
			suspended = append(suspended, name)
		}
	}
	slices.Sort(suspended)
	return Stats{
		Subscriptions: len(m.subs),
		AtomicEvents:  len(m.condRef),
		ComplexEvents: complexEvents,
		DocsProcessed: m.docsProcessed.Load(),
		AlertsSent:    m.alertsSent.Load(),
		WeakSuppress:  m.weakSuppress.Load(),
		Notifications: m.notifications.Load(),
		Suspensions:   m.suspensions,
		Suspended:     suspended,
	}
}

// Recover restores the Reporter's durable state, the subscription base
// first: each journaled subscription is registered again, in the order it
// was, before its buffers and marks are restored. Call it on an empty
// manager before processing documents. Recover is idempotent: a
// subscription already registered under its journaled name is skipped.
func (m *Manager) Recover() error {
	return m.reporter.Recover(func(name, src string) error {
		sub, err := sublang.Parse(src)
		if err == nil {
			err = m.register(src, sub, false)
		}
		if err != nil && !errors.Is(err, ErrDuplicateSubscription) {
			return fmt.Errorf("manager: recovering %q: %w", name, err)
		}
		return nil
	})
}

// ErrTooExpensive rejects a subscription whose a priori cost estimate
// exceeds the configured budget (Section 5.4).
var ErrTooExpensive = errors.New("manager: subscription too expensive")
