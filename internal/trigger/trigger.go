// Package trigger implements the Trigger Engine of the architecture
// (Section 3): it evaluates continuous queries either on a schedule (e.g.
// biweekly) or when a particular notification is detected, and feeds the
// resulting notifications back to the Reporter. Queries registered with
// the `delta` keyword report only the changes of their result between
// evaluations, using the XyDelta mechanism (Section 5.2).
package trigger

import (
	"slices"
	"sync"
	"time"

	"xymon/internal/sublang"
	"xymon/internal/xmldom"
	"xymon/internal/xydiff"
)

// Source supplies the forest a continuous query runs over — the System
// passes the warehouse's AllRoots.
type Source func() []*xmldom.Node

// Result is a continuous-query notification: the query code plus its
// (possibly delta) result element. Element is nil when a delta query's
// result did not change: there is nothing to report, but the query did
// evaluate at Time, and a sink that journals evaluation marks (the
// Reporter's, via Notification.Mark) still records it.
type Result struct {
	Subscription string
	Query        string
	Element      *xmldom.Node
	Time         time.Time
}

// Sink receives continuous-query results.
type Sink func(Result)

type registered struct {
	sub     string
	cq      *sublang.ContinuousQuery
	lastRun time.Time
	hasRun  bool
	// lastResult is the previous evaluation, retained for delta queries.
	lastResult *xmldom.Document
}

// Engine owns the continuous queries. Safe for concurrent use.
type Engine struct {
	mu      sync.Mutex
	queries []*registered
	source  Source
	sink    Sink
	clock   func() time.Time

	evaluations uint64
}

// Option configures an Engine.
type Option func(*Engine)

// WithClock substitutes the time source.
func WithClock(clock func() time.Time) Option {
	return func(e *Engine) { e.clock = clock }
}

// New returns an engine evaluating queries over source and sending results
// to sink.
func New(source Source, sink Sink, opts ...Option) *Engine {
	e := &Engine{source: source, sink: sink, clock: time.Now}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Register adds a continuous query owned by subscription sub. It has
// never run, so a frequency-scheduled query evaluates on the next Tick.
func (e *Engine) Register(sub string, cq *sublang.ContinuousQuery) {
	now := e.clock()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queries = append(e.queries, &registered{sub: sub, cq: cq, lastRun: now})
}

// Restore resumes the schedules of the registered queries after a
// restart: each query that evaluated returns its last evaluation, and a
// periodic one then runs when its period since that mark elapses instead
// of at once. The marks live in the Reporter's journal, inside the record
// of the result each evaluation produced, so a mark is never durable
// without its result. The previous result of a delta query is not kept:
// its first evaluation after a restart emits the full result once — a
// duplicate, never a silent gap.
func (e *Engine) Restore(evaluated func(sub, query string) (time.Time, bool)) {
	e.mu.Lock()
	queries := slices.Clone(e.queries)
	e.mu.Unlock()
	for _, r := range queries {
		last, ok := evaluated(r.sub, r.cq.Name)
		if !ok {
			continue
		}
		e.mu.Lock()
		if !r.hasRun {
			r.lastRun, r.hasRun = last, true
		}
		e.mu.Unlock()
	}
}

// Unregister removes every continuous query of a subscription.
func (e *Engine) Unregister(sub string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queries = slices.DeleteFunc(e.queries, func(r *registered) bool { return r.sub == sub })
}

// Tick evaluates every frequency-scheduled query whose period has elapsed.
// Call it regularly; the paper's engine owns a timer.
func (e *Engine) Tick() {
	now := e.clock()
	e.mu.Lock()
	var due []*registered
	for _, r := range e.queries {
		if r.cq.When.Freq == 0 {
			continue
		}
		if !r.hasRun || now.Sub(r.lastRun) >= r.cq.When.Freq.Duration() {
			due = append(due, r)
		}
	}
	e.mu.Unlock()
	for _, r := range due {
		e.evaluate(r, now)
	}
}

// OnNotification runs the queries triggered by the given notification, as
// in `when XylemeCompetitors.ChangeInMyProducts`.
func (e *Engine) OnNotification(sub, label string) {
	now := e.clock()
	e.mu.Lock()
	var due []*registered
	for _, r := range e.queries {
		if r.cq.When.NotifQuery == label && r.cq.When.NotifSub == sub {
			due = append(due, r)
		}
	}
	e.mu.Unlock()
	for _, r := range due {
		e.evaluate(r, now)
	}
}

// evaluate runs one query and emits its (delta) result — a nil Element
// when a delta query's result did not change. The sink is
// immutable after construction and is invoked with no lock held, so a
// sink may call back into the engine (Register, Tick) without
// deadlocking.
func (e *Engine) evaluate(r *registered, now time.Time) {
	var result *xmldom.Node
	if r.cq.Query != nil {
		res, err := r.cq.Query.EvalElement(r.cq.Name, e.source())
		if err != nil {
			return
		}
		result = res
	} else {
		result = xmldom.Element(r.cq.Name)
	}

	e.mu.Lock()
	r.lastRun = now
	e.evaluations++
	out := result
	if r.cq.Delta {
		newDoc := xmldom.NewDocument(result.Clone())
		if r.hasRun && r.lastResult != nil {
			if delta, err := xydiff.Diff(r.lastResult, newDoc); err == nil {
				out = nil // no change: delta queries stay silent
				if !delta.Empty() {
					out = delta.RenderXML(r.cq.Name)
				}
			}
		}
		r.lastResult = newDoc
	}
	r.hasRun = true
	e.mu.Unlock()

	if e.sink != nil {
		e.sink(Result{Subscription: r.sub, Query: r.cq.Name, Element: out, Time: now})
	}
}

// Evaluations returns the number of query evaluations performed.
func (e *Engine) Evaluations() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.evaluations
}

// Len returns the number of registered continuous queries.
func (e *Engine) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.queries)
}
