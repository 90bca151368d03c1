// Package reporter implements the Reporter and Xyleme Reporter of the
// architecture (Section 3): it buffers the notifications of each
// subscription, evaluates the report conditions of the subscription's when
// clause (count, per-label count, periodic, immediate, disjunctions),
// applies the limiting clauses (atmost count / atmost frequency), renders
// the buffered notifications as an XML report — post-processed by the
// report query when one is given — and hands the report to a delivery
// sink (email in the paper; pluggable here). Generated reports can be
// archived for a configurable period (the archive clause).
package reporter

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"xymon/internal/stream"
	"xymon/internal/sublang"
	"xymon/internal/xmldom"
	"xymon/internal/xyquery"
)

// Notification is one entry of a subscription's notification stream: the
// payload element produced by a monitoring query or a continuous query.
//
// Element is read-only from the call on, and may be shared: the same node
// may be handed over for many subscriptions, on any stripe, and sit in
// many reports at once. The Reporter never writes to it — a report
// references it without copying, and a payload root keeps the Parent it
// had — so the caller must not change it either.
type Notification struct {
	Sub          *Sub   // handle from Register; saves the hash and lookup of the name
	Subscription string // consulted only when Sub is nil
	Label        string // monitoring query label or continuous query name
	Element      *xmldom.Node
	Time         time.Time
	// Mark says Label is a continuous query that evaluated at Time. The
	// mark is journaled in this notification's own record, and Evaluated
	// hands it out after a restart. With a nil Element the notification
	// is the mark alone — an evaluation whose delta was empty — and
	// buffers and fires nothing.
	Mark bool
}

// markOnly reports whether n carries an evaluation mark and nothing else.
func (n *Notification) markOnly() bool { return n.Mark && n.Element == nil }

// Report is a generated subscription report. Doc is read-only: the
// followers' copies and the archive share it, and its children are the
// payloads as handed in, which other reports may hold too (their Parent is
// not Doc).
type Report struct {
	Subscription  string
	Doc           *xmldom.Node
	Time          time.Time
	Notifications int

	// xml is Doc serialised, rendered once when the report is built (or
	// carried over from the journal on recovery) for every record the
	// journal keeps of it; empty without a WAL.
	xml string
	// id is the report's stream offset: where its fired record landed in
	// the journal. It is 0 without a WAL.
	id uint64
}

// Delivery receives finished reports. The paper emails them; the default
// sink here simulates an email spool.
type Delivery interface {
	Deliver(rep *Report) error
}

// DeliveryFunc adapts a function to the Delivery interface.
type DeliveryFunc func(rep *Report) error

// Deliver calls f.
func (f DeliveryFunc) Deliver(rep *Report) error { return f(rep) }

// Sub is the per-subscription reporting state, and the handle Register
// returns for it. Everything but name and stripe is guarded by the stripe's
// lock. The report specification is flattened into it at Register, so the
// per-notification path reads one struct: the fields up to buffer, its
// first cache line (a 192-byte Sub is 64-byte aligned), unless the
// subscription has per-label terms.
type Sub struct {
	stripe uint8
	// live turns false on Unregister or when the name is registered again:
	// a dead handle is refused like an unknown name.
	live bool

	// The when clause, a disjunction, folded by term kind.
	immediate   bool
	tagged      bool              // tagTerms is not empty: an untagged Sub never loads it
	hasReport   bool              // a report was generated at least once
	pending     bool              // condition held while rate-limited, or its fired write failed
	countOver   int               // smallest notifications.count bound; MaxInt = none
	atMostCount int               // 0 = none
	period      sublang.Frequency // smallest periodic term; 0 = none
	lastReport  int64             // Unix ns of the last report, or of Register
	buffer      []buffered
	tagTerms    []tagTerm // the per-label count terms
	atMostFreq  sublang.Frequency
	due         int // index on the stripe's heap; -1 = not on it
	name        string
	archive     sublang.Frequency
	query       *xyquery.Query
	followers   []string
	// marks is when each of the subscription's continuous queries last
	// evaluated, as journaled; nil until the first mark.
	marks map[string]time.Time
	// seq is the subscription's place in the journaled base, 0 until
	// Persist or Recover puts it there; src is its source text.
	seq uint64
	src string
}

// buffered is a notification waiting in its subscription's buffer: its
// element, its time in Unix ns and its label interned on the stripe.
type buffered struct {
	elem *xmldom.Node
	at   int64
	q    uint32
}

// tagTerm is a per-label count term: more than over of label q; n counts.
type tagTerm struct {
	q       uint32
	over, n int
}

// stripeCount is the number of lock stripes the subscription state is
// spread over. 16 stripes keep the probability of two concurrent flow
// workers colliding on one lock low without bloating the structure.
const stripeCount = 16

// stripe is one shard of the Reporter: a mutex and the subscriptions
// hashed onto it. Striping the single reporter lock is what lets the
// Reporter absorb the notification output of many parallel document
// workers (the paper's 2.4M notifications/day figure is a lower bound).
type stripe struct {
	mu   sync.Mutex
	subs map[string]*Sub
	due  dueHeap // the subscriptions Tick has to visit, earliest first
	// labels interns the stripe's notification labels: label[q] is label q.
	labels map[string]uint32
	label  []string
}

// intern returns the index of label on s. The caller holds s.mu.
func (s *stripe) intern(label string) uint32 {
	q, ok := s.labels[label]
	if !ok {
		q = uint32(len(s.label))
		s.labels[label] = q
		s.label = append(s.label, label)
	}
	return q
}

// arm keeps st on s's heap at its deadline, if any: a pending report's is
// when the atmost frequency lets it go (at once if it never held it back),
// else a periodic term's is a period after the last report. The other terms
// fire on arrival, and a dead Sub never does. The caller holds s.mu.
func (s *stripe) arm(st *Sub) {
	at := int64(math.MinInt64)
	switch {
	case !st.live || !st.pending && st.period == 0:
		if st.due >= 0 {
			heap.Remove(&s.due, st.due)
		}
		return
	case st.pending && st.atMostFreq != 0 && st.hasReport:
		at = st.lastReport + int64(st.atMostFreq)
	case !st.pending:
		at = st.lastReport + int64(st.period)
	}
	if st.due < 0 {
		heap.Push(&s.due, deadline{at, st})
		return
	}
	s.due[st.due].at = at
	heap.Fix(&s.due, st.due)
}

// deadline is an entry of a stripe's heap: sub is due at at (Unix ns).
type deadline struct {
	at  int64
	sub *Sub
}

// dueHeap is a container/heap min-heap of deadlines. Each Sub on it knows
// its index, so it moves or leaves in O(log n).
type dueHeap []deadline

func (h dueHeap) Len() int           { return len(h) }
func (h dueHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h dueHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].sub.due, h[j].sub.due = i, j
}

func (h *dueHeap) Push(x any) {
	d := x.(deadline)
	d.sub.due = len(*h)
	*h = append(*h, d)
}

// Pop returns the Sub, which boxes without allocating.
func (h *dueHeap) Pop() any {
	old := *h
	d := old[len(old)-1]
	old[len(old)-1] = deadline{}
	*h = old[:len(old)-1]
	d.sub.due = -1
	return d.sub
}

// Reporter buffers notifications and produces reports. Safe for
// concurrent use; per-subscription state is striped by subscription name.
type Reporter struct {
	stripes  [stripeCount]stripe
	delivery Delivery
	clock    func() time.Time

	// links counts the follower links held by registered subscriptions;
	// while it is 0, Unregister has no other stripe to visit.
	links atomic.Int64

	// The archive is small and cold (report generation only), so it keeps
	// a single dedicated lock instead of joining the striping.
	archMu   sync.Mutex
	archive  []archivedReport
	archNext int64 // the earliest expiry while archive is not empty

	// retry holds failed deliveries between redelivery attempts; its
	// queue drains on Tick.
	retry retryState

	// log, when set, journals durable state (see durable.go); its
	// batches — the fired records — are the change-stream.
	log       *stream.Log
	walErrors atomic.Uint64
	// baseSeq numbers the journaled base in registration order.
	baseSeq atomic.Uint64

	delivered    atomic.Uint64
	failed       atomic.Uint64
	retried      atomic.Uint64
	deadLettered atomic.Uint64
	evicted      atomic.Uint64
	redriven     atomic.Uint64
	tickVisited  atomic.Uint64
}

type archivedReport struct {
	rep    *Report
	expiry int64 // Unix ns
}

// Option configures a Reporter.
type Option func(*Reporter)

// WithClock substitutes the time source.
func WithClock(clock func() time.Time) Option {
	return func(r *Reporter) { r.clock = clock }
}

// New returns a Reporter delivering to sink (nil discards reports).
func New(sink Delivery, opts ...Option) *Reporter {
	r := &Reporter{
		delivery: sink,
		clock:    time.Now,
		retry: retryState{
			maxAttempts: 5,
			base:        time.Minute,
			max:         time.Hour,
			maxDead:     DefaultDeadLetterCap,
			outstanding: make(map[uint64]walRecord),
		},
	}
	for i := range r.stripes {
		r.stripes[i].subs = make(map[string]*Sub)
		r.stripes[i].labels = make(map[string]uint32)
	}
	for _, o := range opts {
		o(r)
	}
	if r.delivery == nil {
		r.delivery = DeliveryFunc(func(*Report) error { return nil })
	}
	return r
}

// stripeIndex hashes a subscription name onto its stripe (FNV-1a).
func stripeIndex(sub string) int {
	return int(xmldom.HashFold(xmldom.HashSeed(), sub) % stripeCount)
}

func (r *Reporter) stripeFor(sub string) *stripe {
	return &r.stripes[stripeIndex(sub)]
}

// stripeOf returns the stripe a notification lands on: the handle's when it
// carries one, else the hash of the name.
func stripeOf(n *Notification) int {
	if n.Sub != nil {
		return int(n.Sub.stripe)
	}
	return stripeIndex(n.Subscription)
}

// Register creates reporting state for a subscription and returns its
// handle. A nil spec installs an immediate-report default. Registering a
// name again replaces its state; the old handle goes dead.
func (r *Reporter) Register(sub string, spec *sublang.ReportSpec) *Sub {
	if spec == nil {
		spec = &sublang.ReportSpec{When: []sublang.ReportTerm{{Kind: sublang.TermImmediate}}}
	}
	st := &Sub{
		name: sub, stripe: uint8(stripeIndex(sub)), live: true, countOver: math.MaxInt,
		atMostCount: spec.AtMostCount, atMostFreq: spec.AtMostFreq,
		archive: spec.Archive, query: spec.Query, lastReport: r.clock().UnixNano(), due: -1,
	}
	s := &r.stripes[st.stripe]
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, term := range spec.When {
		switch term.Kind {
		case sublang.TermImmediate:
			st.immediate = true
		case sublang.TermCount:
			st.countOver = min(st.countOver, term.Count)
		case sublang.TermTagCount:
			st.tagged = true
			st.tagTerms = append(st.tagTerms, tagTerm{q: s.intern(term.Tag), over: term.Count})
		case sublang.TermPeriodic:
			if st.period == 0 || term.Freq < st.period {
				st.period = term.Freq
			}
		}
	}
	if old := s.subs[sub]; old != nil {
		old.live = false
		s.arm(old)
		r.links.Add(-int64(len(old.followers)))
	}
	s.subs[sub] = st
	s.arm(st)
	return st
}

// Unregister drops a subscription's reporting state and detaches it from
// the subscriptions it follows. A journaled subscription's unsub record
// is written first, in the critical section that drops the state; when
// that write fails, nothing changes and the error is returned. While
// nothing follows anything — the common case — it touches its own stripe
// alone; otherwise every stripe is scanned for links to drop, one lock at
// a time.
func (r *Reporter) Unregister(sub string) error {
	s := r.stripeFor(sub)
	s.mu.Lock()
	st := s.subs[sub]
	journaled := st != nil && st.seq != 0
	if journaled {
		if err := r.write(walRecord{T: "unsub", Sub: sub}); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	if st != nil {
		st.live = false
		s.arm(st)
		r.links.Add(-int64(len(st.followers)))
		delete(s.subs, sub)
	}
	s.mu.Unlock()
	if journaled {
		r.commit()
	}
	if r.links.Load() == 0 {
		return nil
	}
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		for _, st := range s.subs {
			for j, f := range st.followers {
				if f == sub {
					st.followers = append(st.followers[:j], st.followers[j+1:]...)
					r.links.Add(-1)
					break
				}
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// Follow implements virtual subscriptions (Section 5.4): every report of
// target is also delivered on behalf of follower. Creating the monitoring
// work happens once; following only puts stress on the Reporter.
func (r *Reporter) Follow(follower, target string) error {
	s := r.stripeFor(target)
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.subs[target]
	if !ok {
		return fmt.Errorf("reporter: unknown subscription %q", target)
	}
	st.followers = append(st.followers, follower)
	r.links.Add(1)
	return nil
}

// Notify appends a notification to its subscription's buffer and fires a
// report when the subscription's when condition holds. Delivery happens
// after the stripe's lock is released, so a Delivery implementation may
// call back into the Reporter without deadlocking. n.Element is read-only
// from here on (see Notification).
func (r *Reporter) Notify(n Notification) {
	now := r.clock()
	s := &r.stripes[stripeOf(&n)]
	s.mu.Lock()
	reps := r.noteLocked(nil, s, &n, now)
	s.mu.Unlock()
	if n.markOnly() {
		// No barrier of its own: a lost mark only re-runs its query, and
		// the next commit covers it.
		return
	}
	r.deliver(reps)
}

// NotifyBatch ingests the notifications of one processed document in a
// single pass: each stripe that appears in the batch is locked exactly
// once, however many notifications map onto it. This is the amortisation
// the manager's per-alert batches rely on — with immediate-report
// subscriptions, per-notification locking costs one acquire per payload,
// batch locking one per stripe. Delivery of every fired report happens
// after all stripe locks are released. Every Element of the batch is
// read-only from here on (see Notification); one element may appear under
// many subscriptions.
func (r *Reporter) NotifyBatch(ns []Notification) {
	if len(ns) == 0 {
		return
	}
	if len(ns) == 1 {
		r.Notify(ns[0])
		return
	}
	now := r.clock()
	var want [stripeCount]bool
	for i := range ns {
		want[stripeOf(&ns[i])] = true
	}
	// Room for a typical document's reports without a heap allocation;
	// deliver does not retain the slice.
	var room [16]*Report
	reps := room[:0]
	for si := range r.stripes {
		if !want[si] {
			continue
		}
		s := &r.stripes[si]
		s.mu.Lock()
		for i := range ns {
			if stripeOf(&ns[i]) == si {
				reps = r.noteLocked(reps, s, &ns[i], now)
			}
		}
		s.mu.Unlock()
	}
	r.deliver(reps)
}

// noteLocked registers one notification on its subscription's state — the
// caller holds the lock of s, the notification's stripe — and appends any
// reports it fired to reps. A dead handle or an unknown name registers
// nothing.
func (r *Reporter) noteLocked(reps []*Report, s *stripe, n *Notification, now time.Time) []*Report {
	st := n.Sub
	if st == nil {
		st = s.subs[n.Subscription]
	}
	if st == nil || !st.live {
		return reps
	}
	markOnly := n.markOnly()
	if !markOnly && st.atMostCount > 0 && len(st.buffer) >= st.atMostCount {
		// atmost N: stop registering new notifications until the next
		// report. A suppressed result marks nothing either: after a crash
		// its query runs again.
		return reps
	}
	if r.log != nil {
		rec := walRecord{T: "notif", Sub: st.name, Label: n.Label, Time: n.Time, Mark: n.Mark}
		if markOnly {
			rec.T = "mark"
		} else if n.Element != nil {
			rec.XML = n.Element.XML()
		}
		// Written under the stripe lock so the log records notifications
		// in the order the buffer gained them; deliver commits them. A
		// mark rides its result's record, so it is never durable first.
		r.journalWrite(rec)
	}
	if n.Mark {
		if st.marks == nil {
			st.marks = make(map[string]time.Time)
		}
		st.marks[n.Label] = n.Time
	}
	if markOnly {
		return reps
	}
	q := s.intern(n.Label)
	st.buffer = append(st.buffer, buffered{elem: n.Element, at: n.Time.UnixNano(), q: q})
	if r.conditionHolds(s, st, q, now.UnixNano()) {
		return r.buildLocked(reps, s, st, now)
	}
	return reps
}

// countLabel counts a notification of label q in the per-label terms, and
// reports whether one of them holds.
func (st *Sub) countLabel(q uint32) bool {
	hold := false
	for i := range st.tagTerms {
		t := &st.tagTerms[i]
		if t.q == q {
			t.n++
		}
		hold = hold || t.n > t.over
	}
	return hold
}

// Tick evaluates time-based conditions (periodic terms, rate-limited
// pending reports, archive expiry). Call it regularly — the paper's
// Reporter owns a timer. It visits only the subscriptions whose deadline
// has come, and the archive only once its earliest expiry has.
func (r *Reporter) Tick() {
	now := r.clock()
	at := now.UnixNano()
	var reps []*Report
	var due []*Sub
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		due = due[:0]
		for len(s.due) > 0 && s.due[0].at <= at {
			due = append(due, heap.Pop(&s.due).(*Sub))
		}
		// A popped subscription is due: its pending report may go, or its
		// period is over. It is re-armed only after the pop loop: a report
		// whose fired write fails is due again at once, on the next Tick.
		for _, st := range due {
			switch {
			case st.pending || len(st.buffer) > 0 && !heldBack(s, st, at):
				reps = r.buildLocked(reps, s, st, now)
			case len(st.buffer) == 0:
				// Periodic reports with empty buffers are not sent; the paper's
				// report queries run over gathered notifications.
				st.lastReport = at
			}
			s.arm(st)
		}
		s.mu.Unlock()
		r.tickVisited.Add(uint64(len(due)))
	}
	r.archMu.Lock()
	if len(r.archive) > 0 && r.archNext <= at {
		r.archive = slices.DeleteFunc(r.archive, func(a archivedReport) bool { return a.expiry <= at })
		r.archNext = math.MaxInt64
		for _, a := range r.archive {
			r.archNext = min(r.archNext, a.expiry)
		}
	}
	r.archMu.Unlock()
	r.deliver(reps)
	r.drainRetries(now)
}

// conditionHolds evaluates the disjunction of report terms as a
// notification of label q arrives at now (Unix ns), counting it, and
// reports whether it fires. The caller holds s.mu.
func (r *Reporter) conditionHolds(s *stripe, st *Sub, q uint32, now int64) bool {
	n := len(st.buffer)
	hold := n > st.countOver || n > 0 && (st.immediate || st.period != 0 && now-st.lastReport >= int64(st.period))
	if st.tagged && st.countLabel(q) {
		hold = true
	}
	return hold && !heldBack(s, st, now)
}

// heldBack applies the atmost-frequency clause to a report that is due: one
// it holds back is pending until Tick may send it.
func heldBack(s *stripe, st *Sub, now int64) bool {
	limited := st.atMostFreq != 0 && st.hasReport && now-st.lastReport < int64(st.atMostFreq)
	if limited && !st.pending {
		st.pending = true
		s.arm(st)
	}
	return limited
}

// buildLocked renders and post-processes the report and resets the buffer
// ("the generation of a report empties the global buffer of notification
// answers"), appending to reps one copy per recipient (the subscriber plus
// its virtual followers). The report document references the buffered
// elements without copying or re-parenting them — they stay read-only and
// may sit in other reports too — and the buffer keeps its capacity. The
// caller delivers the reports once its stripe lock is released: holding a
// stripe lock across the Delivery callback would deadlock any sink that
// calls back into the Reporter.
func (r *Reporter) buildLocked(reps []*Report, s *stripe, st *Sub, now time.Time) []*Report {
	count := len(st.buffer)
	doc := xmldom.Element("Report")
	doc.Children = make([]*xmldom.Node, 0, count)
	for _, n := range st.buffer {
		if n.elem != nil {
			doc.Children = append(doc.Children, n.elem)
		}
	}
	if st.query != nil {
		if res, err := st.query.EvalElement("Report", []*xmldom.Node{doc}); err == nil {
			doc = res
		}
	}
	rep := &Report{Subscription: st.name, Doc: doc, Time: now, Notifications: count}
	if r.log != nil {
		rep.xml = doc.XML()
	}
	fired := len(reps)
	reps = append(reps, rep)
	for _, rcpt := range st.followers {
		reps = append(reps, &Report{Subscription: rcpt, Doc: rep.Doc, xml: rep.xml, Time: now, Notifications: count})
	}
	if !r.noteFired(reps[fired:], st.name) {
		// No fired record, no report: the journal could not account for
		// it once a checkpoint drops this buffer. The buffer stays and
		// Tick retries.
		st.pending = true
		s.arm(st)
		return reps[:fired]
	}
	clear(st.buffer) // the report holds the elements now
	st.buffer = st.buffer[:0]
	for i := range st.tagTerms {
		st.tagTerms[i].n = 0
	}
	st.lastReport = now.UnixNano()
	st.hasReport = true
	st.pending = false
	s.arm(st)
	if st.archive > 0 {
		expiry := now.Add(st.archive.Duration()).UnixNano()
		r.archMu.Lock()
		if len(r.archive) == 0 || expiry < r.archNext {
			r.archNext = expiry
		}
		r.archive = append(r.archive, archivedReport{rep: rep, expiry: expiry})
		r.archMu.Unlock()
	}
	return reps
}

// deliver ends a Notify, NotifyBatch or Tick: with no lock held it makes
// the call's journal records durable, then hands the reports it fired to
// the sink and folds the outcome into the counters. Failures enter the
// retry queue.
//
// The journal is group-committed — records are written where they
// happen, and the one barrier below, barrier (1), makes every notif and
// fired record of the call durable: nothing leaves the Reporter — and
// the caller is not told its notifications were taken — before a crash
// could still forget them. The fired records are the change-stream, so
// the same barrier publishes the call's reports to pull consumers.
//
// The done records the loop writes are owed to nobody: they ride the
// next commit — the next call's, a Tick's (which commits even when
// nothing fires), a Checkpoint's or Close's. Until then a crash
// redelivers what the sink already accepted (the at-least-once window),
// and nothing else.
func (r *Reporter) deliver(reps []*Report) {
	r.commit()
	if len(reps) == 0 {
		return
	}
	now := r.clock()
	for _, rep := range reps {
		if err := r.delivery.Deliver(rep); err != nil {
			r.failed.Add(1)
			r.noteFailure(rep, 1, err, now)
		} else {
			r.delivered.Add(1)
			r.noteDelivered(rep)
		}
	}
}

// Buffered returns the number of notifications waiting for a subscription.
func (r *Reporter) Buffered(sub string) int {
	s := r.stripeFor(sub)
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.subs[sub]; st != nil {
		return len(st.buffer)
	}
	return 0
}

// Evaluated returns when continuous query query of subscription sub last
// evaluated, as the Reporter noted it (and Recover restored it), and
// whether it has.
func (r *Reporter) Evaluated(sub, query string) (time.Time, bool) {
	s := r.stripeFor(sub)
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.subs[sub]; st != nil {
		t, ok := st.marks[query]
		return t, ok
	}
	return time.Time{}, false
}

// Archived returns the archived reports of a subscription that have not
// expired yet.
func (r *Reporter) Archived(sub string) []*Report {
	r.archMu.Lock()
	defer r.archMu.Unlock()
	var out []*Report
	for _, a := range r.archive {
		if a.rep.Subscription == sub {
			out = append(out, a.rep)
		}
	}
	return out
}

// Stats counts the Reporter's deliveries, redeliveries and journal
// failures, and sizes its retry and dead-letter queues.
type Stats struct {
	Delivered    uint64
	Failed       uint64 // delivery attempts the sink refused, retries included
	Retried      uint64 // redelivery attempts
	RetryPending int    // reports waiting for redelivery
	DeadLetters  int    // the dead-letter queue's length
	DeadLettered uint64 // reports that exhausted their attempt budget
	Evicted      uint64 // dead letters dropped oldest-first by the cap
	Redriven     uint64 // dead letters moved back onto the retry queue
	// JournalErrors counts failed journal writes and commit barriers:
	// state kept in memory only, durability degraded, operation went on.
	JournalErrors uint64
	TickVisited   uint64 // subscriptions Tick visited: those whose deadline had come
}

// Stats snapshots the Reporter's counters.
func (r *Reporter) Stats() Stats {
	r.retry.mu.Lock()
	pending, dead := len(r.retry.queue), len(r.retry.dead)
	r.retry.mu.Unlock()
	return Stats{
		Delivered:     r.delivered.Load(),
		Failed:        r.failed.Load(),
		Retried:       r.retried.Load(),
		RetryPending:  pending,
		DeadLetters:   dead,
		DeadLettered:  r.deadLettered.Load(),
		Evicted:       r.evicted.Load(),
		Redriven:      r.redriven.Load(),
		JournalErrors: r.walErrors.Load(),
		TickVisited:   r.tickVisited.Load(),
	}
}
