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
	"fmt"
	"math"
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
// The Reporter takes ownership of Element: it is moved, not copied, into the
// report document, so the caller hands over a tree nothing else refers to.
// An element that is already linked under a parent when its report is built
// is copied instead; one root handed over twice and built into two reports
// at the same time is a data race the Reporter cannot see.
type Notification struct {
	Sub          *Sub   // handle from Register; saves the hash and lookup of the name
	Subscription string // consulted only when Sub is nil
	Label        string // monitoring query label or continuous query name
	Element      *xmldom.Node
	Time         time.Time
}

// Report is a generated subscription report.
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
// per-notification path reads one struct.
type Sub struct {
	name   string
	stripe uint8
	// live turns false on Unregister or when the name is registered again:
	// a dead handle is refused like an unknown name.
	live bool

	// The when clause, a disjunction, folded by term kind.
	immediate bool
	countOver int                  // smallest notifications.count bound; MaxInt = none
	period    sublang.Frequency    // smallest periodic term; 0 = none
	tagTerms  []sublang.ReportTerm // the per-label count terms

	atMostCount int
	atMostFreq  sublang.Frequency
	archive     sublang.Frequency
	query       *xyquery.Query

	buffer []buffered
	// labelCount is nil unless there are tagTerms, its only reader.
	labelCount map[string]int
	lastReport time.Time
	hasReport  bool // a report was generated at least once
	pending    bool // condition fired while rate-limited
	followers  []string
}

// buffered is a notification waiting in its subscription's buffer.
type buffered struct {
	label string
	elem  *xmldom.Node
	time  time.Time
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
	archMu  sync.Mutex
	archive []archivedReport

	// retry holds failed deliveries between redelivery attempts; its
	// queue drains on Tick.
	retry retryState

	// log, when set, journals durable state (see durable.go); its
	// batches — the fired records — are the change-stream.
	log       *stream.Log
	walErrors atomic.Uint64

	delivered    atomic.Uint64
	failed       atomic.Uint64
	retried      atomic.Uint64
	deadLettered atomic.Uint64
	evicted      atomic.Uint64
	redriven     atomic.Uint64
}

type archivedReport struct {
	rep    *Report
	expiry time.Time
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
		archive: spec.Archive, query: spec.Query, lastReport: r.clock(),
	}
	for _, term := range spec.When {
		switch term.Kind {
		case sublang.TermImmediate:
			st.immediate = true
		case sublang.TermCount:
			st.countOver = min(st.countOver, term.Count)
		case sublang.TermTagCount:
			st.tagTerms = append(st.tagTerms, term)
		case sublang.TermPeriodic:
			if st.period == 0 || term.Freq < st.period {
				st.period = term.Freq
			}
		}
	}
	if st.tagTerms != nil {
		st.labelCount = make(map[string]int)
	}
	s := &r.stripes[st.stripe]
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.subs[sub]; old != nil {
		old.live = false
		r.links.Add(-int64(len(old.followers)))
	}
	s.subs[sub] = st
	return st
}

// Unregister drops a subscription's reporting state and detaches it from
// the subscriptions it follows. While nothing follows anything — the common
// case — it touches its own stripe alone; otherwise every stripe is scanned
// for links to drop, one lock at a time.
func (r *Reporter) Unregister(sub string) {
	s := r.stripeFor(sub)
	s.mu.Lock()
	if st := s.subs[sub]; st != nil {
		st.live = false
		r.links.Add(-int64(len(st.followers)))
		delete(s.subs, sub)
	}
	s.mu.Unlock()
	if r.links.Load() == 0 {
		return
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
// call back into the Reporter without deadlocking. n.Element belongs to the
// Reporter from here on (see Notification).
func (r *Reporter) Notify(n Notification) {
	now := r.clock()
	s := &r.stripes[stripeOf(&n)]
	s.mu.Lock()
	reps := r.noteLocked(nil, s, &n, now)
	s.mu.Unlock()
	r.deliver(reps)
}

// NotifyBatch ingests the notifications of one processed document in a
// single pass: each stripe that appears in the batch is locked exactly
// once, however many notifications map onto it. This is the amortisation
// the manager's per-alert batches rely on — with immediate-report
// subscriptions, per-notification locking costs one acquire per payload,
// batch locking one per stripe. Delivery of every fired report happens
// after all stripe locks are released. Every Element of the batch belongs
// to the Reporter from here on (see Notification).
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
	if st.atMostCount > 0 && len(st.buffer) >= st.atMostCount {
		// atmost N: stop registering new notifications until the next report.
		return reps
	}
	if r.log != nil {
		rec := walRecord{T: "notif", Sub: st.name, Label: n.Label, Time: n.Time}
		if n.Element != nil {
			rec.XML = n.Element.XML()
		}
		// Written under the stripe lock so the log records notifications
		// in the order the buffer gained them; deliver commits them.
		//xyvet:ignore lockcheck
		r.journalWrite(rec)
	}
	st.buffer = append(st.buffer, buffered{label: n.Label, elem: n.Element, time: n.Time})
	if st.labelCount != nil {
		st.labelCount[n.Label]++
	}
	if r.conditionHolds(st, now, true) {
		return r.buildLocked(reps, st, now)
	}
	return reps
}

// Tick evaluates time-based conditions (periodic terms, rate-limited
// pending reports, archive expiry). Call it regularly — the paper's
// Reporter owns a timer.
func (r *Reporter) Tick() {
	now := r.clock()
	var reps []*Report
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		for _, st := range s.subs {
			if len(st.buffer) == 0 && !st.pending {
				// Periodic reports with empty buffers are not sent; the paper's
				// report queries run over gathered notifications.
				if r.periodicDue(st, now) {
					st.lastReport = now
				}
				continue
			}
			fire := st.pending && !r.rateLimited(st, now)
			if !fire && r.conditionHolds(st, now, false) {
				fire = true
			}
			if fire {
				reps = r.buildLocked(reps, st, now)
			}
		}
		s.mu.Unlock()
	}
	// Garbage-collect expired archived reports.
	r.archMu.Lock()
	keep := r.archive[:0]
	for _, a := range r.archive {
		if a.expiry.After(now) {
			keep = append(keep, a)
		}
	}
	r.archive = keep
	r.archMu.Unlock()
	r.deliver(reps)
	r.drainRetries(now)
}

// conditionHolds evaluates the disjunction of report terms. onArrival is
// true when called from Notify, enabling the immediate term.
func (r *Reporter) conditionHolds(st *Sub, now time.Time, onArrival bool) bool {
	n := len(st.buffer)
	hold := n > st.countOver || n > 0 && (onArrival && st.immediate || r.periodicDue(st, now))
	for i := 0; !hold && i < len(st.tagTerms); i++ {
		hold = st.labelCount[st.tagTerms[i].Tag] > st.tagTerms[i].Count
	}
	if !hold {
		return false
	}
	if r.rateLimited(st, now) {
		st.pending = true
		return false
	}
	return true
}

func (r *Reporter) periodicDue(st *Sub, now time.Time) bool {
	return st.period != 0 && now.Sub(st.lastReport) >= st.period.Duration()
}

// rateLimited applies the atmost-frequency clause.
func (r *Reporter) rateLimited(st *Sub, now time.Time) bool {
	if st.atMostFreq == 0 || !st.hasReport {
		return false
	}
	return now.Sub(st.lastReport) < st.atMostFreq.Duration()
}

// buildLocked renders and post-processes the report and resets the buffer
// ("the generation of a report empties the global buffer of notification
// answers"), appending to reps one copy per recipient (the subscriber plus
// its virtual followers). The buffered elements are moved into the report
// document (the Reporter owns them) and the buffer keeps its capacity. The
// caller delivers the reports once its stripe lock is released: holding a
// stripe lock across the Delivery callback would deadlock any sink that
// calls back into the Reporter.
func (r *Reporter) buildLocked(reps []*Report, st *Sub, now time.Time) []*Report {
	count := len(st.buffer)
	doc := xmldom.Element("Report")
	doc.Children = make([]*xmldom.Node, 0, count)
	for _, n := range st.buffer {
		if n.elem == nil {
			continue
		}
		if n.elem.Parent != nil {
			// Handed over while linked into another tree (an earlier
			// report, a document): copied, so that tree stays whole.
			n.elem = n.elem.Clone()
		}
		doc.AppendChild(n.elem)
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
		// it once a checkpoint drops this buffer. The buffer stays (linked
		// into doc now, so the next build copies it) and Tick retries.
		st.pending = true
		return reps[:fired]
	}
	clear(st.buffer) // the elements now belong to the report
	st.buffer = st.buffer[:0]
	clear(st.labelCount)
	st.lastReport = now
	st.hasReport = true
	st.pending = false
	if st.archive > 0 {
		r.archMu.Lock()
		r.archive = append(r.archive, archivedReport{rep: rep, expiry: now.Add(st.archive.Duration())})
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

// Stats returns delivery counters.
func (r *Reporter) Stats() (delivered, failed uint64) {
	return r.delivered.Load(), r.failed.Load()
}
