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
	"sync"
	"sync/atomic"
	"time"

	"xymon/internal/stream"
	"xymon/internal/sublang"
	"xymon/internal/wal"
	"xymon/internal/xmldom"
)

// Notification is one entry of a subscription's notification stream: the
// payload element produced by a monitoring query or a continuous query.
type Notification struct {
	Subscription string
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
	// carried over from the journal on recovery) and shared by the fired
	// record and the stream record; empty when neither is configured.
	xml string
	// walID identifies the report in the durability journal; 0 when the
	// Reporter runs without a WAL.
	walID uint64
	// streamed marks the report as already published to the notification
	// change-stream, so retries and recovered redeliveries publish it at
	// most once more — duplicates across a crash are the at-least-once
	// contract, duplicates per retry attempt would just be noise.
	streamed bool
}

// docXML returns the report document serialised, reusing the rendering
// made at build time when there is one.
func (rep *Report) docXML() string {
	if rep.xml != "" || rep.Doc == nil {
		return rep.xml
	}
	return rep.Doc.XML()
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

// subState is the per-subscription reporting state.
type subState struct {
	spec       *sublang.ReportSpec
	buffer     []Notification
	labelCount map[string]int
	dropped    int // notifications discarded by atmost N
	lastReport time.Time
	hasReport  bool // a report was generated at least once
	pending    bool // condition fired while rate-limited
	followers  []string
	start      time.Time
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
	subs map[string]*subState
}

// Reporter buffers notifications and produces reports. Safe for
// concurrent use; per-subscription state is striped by subscription name.
type Reporter struct {
	stripes  [stripeCount]stripe
	delivery Delivery
	clock    func() time.Time

	// The archive is small and cold (report generation only), so it keeps
	// a single dedicated lock instead of joining the striping.
	archMu  sync.Mutex
	archive []archivedReport

	// retry holds failed deliveries between redelivery attempts; its
	// queue drains on Tick.
	retry retryState

	// wal, when set, journals durable state (see durable.go); nextID
	// numbers fired reports in it.
	wal       *wal.Log
	nextID    atomic.Uint64
	walErrors atomic.Uint64

	// stream, when set, receives every delivered notification batch —
	// the pull side of delivery (see publish).
	stream *stream.Log

	delivered       atomic.Uint64
	failed          atomic.Uint64
	retried         atomic.Uint64
	deadLettered    atomic.Uint64
	evicted         atomic.Uint64
	redriven        atomic.Uint64
	streamPublished atomic.Uint64
	streamErrors    atomic.Uint64
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
		r.stripes[i].subs = make(map[string]*subState)
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

// Register creates reporting state for a subscription. A nil spec installs
// an immediate-report default.
func (r *Reporter) Register(sub string, spec *sublang.ReportSpec) {
	if spec == nil {
		spec = &sublang.ReportSpec{When: []sublang.ReportTerm{{Kind: sublang.TermImmediate}}}
	}
	now := r.clock()
	s := r.stripeFor(sub)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs[sub] = &subState{
		spec:       spec,
		labelCount: make(map[string]int),
		start:      now,
		lastReport: now,
	}
}

// Unregister drops a subscription's reporting state and detaches it from
// any subscription it follows. Follower links may live on any stripe, so
// the scan takes each stripe lock in turn (never two at once).
func (r *Reporter) Unregister(sub string) {
	s := r.stripeFor(sub)
	s.mu.Lock()
	delete(s.subs, sub)
	s.mu.Unlock()
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		for _, state := range st.subs {
			for j, f := range state.followers {
				if f == sub {
					state.followers = append(state.followers[:j], state.followers[j+1:]...)
					break
				}
			}
		}
		st.mu.Unlock()
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
	return nil
}

// Notify appends a notification to its subscription's buffer and fires a
// report when the subscription's when condition holds. Delivery happens
// after the stripe's lock is released, so a Delivery implementation may
// call back into the Reporter without deadlocking.
func (r *Reporter) Notify(n Notification) {
	now := r.clock()
	s := r.stripeFor(n.Subscription)
	s.mu.Lock()
	var reps []*Report
	if st, ok := s.subs[n.Subscription]; ok {
		reps = r.noteLocked(n.Subscription, st, n, now)
	}
	s.mu.Unlock()
	r.deliver(reps)
}

// NotifyBatch ingests the notifications of one processed document in a
// single pass: each stripe that appears in the batch is locked exactly
// once, however many notifications map onto it. This is the amortisation
// the manager's per-alert batches rely on — with immediate-report
// subscriptions, per-notification locking costs one acquire per payload,
// batch locking one per stripe. Delivery of every fired report happens
// after all stripe locks are released.
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
		want[stripeIndex(ns[i].Subscription)] = true
	}
	var reps []*Report
	for si := range r.stripes {
		if !want[si] {
			continue
		}
		s := &r.stripes[si]
		s.mu.Lock()
		for i := range ns {
			if stripeIndex(ns[i].Subscription) != si {
				continue
			}
			if st, ok := s.subs[ns[i].Subscription]; ok {
				reps = append(reps, r.noteLocked(ns[i].Subscription, st, ns[i], now)...)
			}
		}
		s.mu.Unlock()
	}
	r.deliver(reps)
}

// noteLocked registers one notification on a subscription's state — the
// caller holds the stripe lock — and returns any reports it fired.
func (r *Reporter) noteLocked(sub string, st *subState, n Notification, now time.Time) []*Report {
	if st.spec.AtMostCount > 0 && len(st.buffer) >= st.spec.AtMostCount {
		// atmost N: stop registering new notifications until the next report.
		st.dropped++
		return nil
	}
	if r.wal != nil {
		rec := walRecord{T: "notif", Sub: sub, Label: n.Label, Time: n.Time}
		if n.Element != nil {
			rec.XML = n.Element.XML()
		}
		// Written under the stripe lock so the log records notifications
		// in the order the buffer gained them; deliver commits them.
		//xyvet:ignore lockcheck
		r.journalWrite(rec)
	}
	st.buffer = append(st.buffer, n)
	st.labelCount[n.Label]++
	if r.conditionHolds(st, now, true) {
		return r.buildLocked(sub, st, now)
	}
	return nil
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
		for sub, st := range s.subs {
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
				reps = append(reps, r.buildLocked(sub, st, now)...)
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
func (r *Reporter) conditionHolds(st *subState, now time.Time, onArrival bool) bool {
	hold := false
	for _, term := range st.spec.When {
		switch term.Kind {
		case sublang.TermImmediate:
			if onArrival && len(st.buffer) > 0 {
				hold = true
			}
		case sublang.TermCount:
			if len(st.buffer) > term.Count {
				hold = true
			}
		case sublang.TermTagCount:
			if st.labelCount[term.Tag] > term.Count {
				hold = true
			}
		case sublang.TermPeriodic:
			if len(st.buffer) > 0 && r.periodicDue(st, now) {
				hold = true
			}
		}
		if hold {
			break
		}
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

func (r *Reporter) periodicDue(st *subState, now time.Time) bool {
	var freq sublang.Frequency
	for _, term := range st.spec.When {
		if term.Kind == sublang.TermPeriodic && (freq == 0 || term.Freq < freq) {
			freq = term.Freq
		}
	}
	if freq == 0 {
		return false
	}
	return now.Sub(st.lastReport) >= freq.Duration()
}

// rateLimited applies the atmost-frequency clause.
func (r *Reporter) rateLimited(st *subState, now time.Time) bool {
	if st.spec.AtMostFreq == 0 || !st.hasReport {
		return false
	}
	return now.Sub(st.lastReport) < st.spec.AtMostFreq.Duration()
}

// buildLocked renders and post-processes the report and resets the buffer
// ("the generation of a report empties the global buffer of notification
// answers"), returning one copy per recipient (the subscriber plus its
// virtual followers). The caller delivers them once its stripe lock is
// released: holding a stripe lock across the Delivery callback would
// deadlock any sink that calls back into the Reporter.
func (r *Reporter) buildLocked(sub string, st *subState, now time.Time) []*Report {
	doc := xmldom.Element("Report")
	for _, n := range st.buffer {
		if n.Element != nil {
			doc.AppendChild(n.Element.Clone())
		}
	}
	if st.spec.Query != nil {
		if res, err := st.spec.Query.EvalElement("Report", []*xmldom.Node{doc}); err == nil {
			doc = res
		}
	}
	rep := &Report{Subscription: sub, Doc: doc, Time: now, Notifications: len(st.buffer)}
	if r.wal != nil || r.stream != nil {
		rep.xml = doc.XML()
	}
	count := len(st.buffer)
	st.buffer = nil
	st.labelCount = make(map[string]int)
	st.dropped = 0
	st.lastReport = now
	st.hasReport = true
	st.pending = false
	if st.spec.Archive > 0 {
		r.archMu.Lock()
		r.archive = append(r.archive, archivedReport{rep: rep, expiry: now.Add(st.spec.Archive.Duration())})
		r.archMu.Unlock()
	}
	out := []*Report{rep}
	for _, rcpt := range st.followers {
		out = append(out, &Report{Subscription: rcpt, Doc: rep.Doc, xml: rep.xml, Time: now, Notifications: count})
	}
	for _, rp := range out {
		r.noteFired(rp, sub, now)
	}
	return out
}

// WithStream publishes every notification batch to st at delivery
// time: the durable change-stream consumers poll and replay instead of
// being pushed at. Publish failures degrade like journal failures —
// counted, push delivery continues.
func WithStream(st *stream.Log) Option {
	return func(r *Reporter) { r.stream = st }
}

// publish appends the not-yet-streamed reports of a batch to the
// change-stream — before any push attempt, so stream consumers observe
// a report even when every push fails and it dead-letters.
func (r *Reporter) publish(reps []*Report) {
	if r.stream == nil {
		return
	}
	recs := make([]stream.Record, 0, len(reps))
	for _, rep := range reps {
		if rep.streamed {
			continue
		}
		recs = append(recs, stream.Record{
			Subscription: rep.Subscription, Time: rep.Time,
			Notifications: rep.Notifications, XML: rep.docXML(),
		})
	}
	if len(recs) == 0 {
		return
	}
	if _, err := r.stream.Publish(recs); err != nil {
		r.streamErrors.Add(1)
		return
	}
	for _, rep := range reps {
		rep.streamed = true
	}
	r.streamPublished.Add(uint64(len(recs)))
}

// StreamStats counts change-stream publication activity: records
// published, and publishes that failed (stream durability degraded,
// push delivery continued).
func (r *Reporter) StreamStats() (published, errors uint64) {
	return r.streamPublished.Load(), r.streamErrors.Load()
}

// deliver ends a Notify, NotifyBatch or Tick: with no lock held it makes
// the call's journal records durable, then hands the reports it fired to
// the stream and the sink and folds the outcome into the counters.
// Failures enter the retry queue.
//
// The journal is group-committed — records are written where they
// happen, three ordered barriers make them durable where it matters:
//
//  1. the commit below covers every notif and fired record of the call,
//     so nothing leaves the Reporter — and the caller is not told its
//     notifications were taken — before a crash could still forget them;
//  2. publish is one durable stream append;
//  3. the commit after the loop covers every done record: until it
//     lands, a crash redelivers what the sink already accepted (the
//     at-least-once window), and nothing else.
func (r *Reporter) deliver(reps []*Report) {
	r.commit()
	if len(reps) == 0 {
		return
	}
	r.publish(reps)
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
	r.commit()
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
