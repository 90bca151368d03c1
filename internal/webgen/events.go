// Package webgen generates the synthetic inputs of the experiments: the
// random atomic-event workloads of Section 4.2 (controlled Card(A),
// Card(C), m and p), and a deterministic synthetic web of evolving XML
// catalogs and HTML pages that stands in for the real crawl the paper's
// testbed consumed (the substitution is recorded in DESIGN.md).
package webgen

import (
	"math/rand"

	"xymon/internal/core"
)

// EventWorkload is a Section 4.2 experiment input: Card(C) complex events
// of m atomic events each, drawn from an event universe of at most CardA
// codes, plus a stream of documents of p events each.
type EventWorkload struct {
	CardA int // upper bound on the atomic-event universe
	CardC int // number of complex events
	M     int // atomic events per complex event
	P     int // atomic events per document

	Complex [][]core.Event
	Docs    []core.EventSet
}

// K returns the paper's estimate of the average number of complex events
// per atomic event: k ≈ m·Card(C)/Card(A).
func (w *EventWorkload) K() float64 { //xyvet:ignore testonly workload generator of the benchmarks and tests
	if w.CardA == 0 {
		return 0
	}
	return float64(w.M) * float64(w.CardC) / float64(w.CardA)
}

// GenEventWorkload reproduces the experiment setup: "atomic events are
// randomly drawn in the set {0..Card(A)-1} with no guarantee that they
// will all be taken". Each complex event draws m distinct events; each of
// nDocs documents draws p distinct events. The generator is deterministic
// in seed.
func GenEventWorkload(seed int64, cardA, cardC, m, p, nDocs int) *EventWorkload {
	return GenEventWorkloadRand(rand.New(rand.NewSource(seed)), cardA, cardC, m, p, nDocs)
}

// GenEventWorkloadRand is GenEventWorkload drawing from an injected
// generator, for callers that thread one explicitly seeded *rand.Rand
// through a whole experiment.
func GenEventWorkloadRand(rng *rand.Rand, cardA, cardC, m, p, nDocs int) *EventWorkload {
	w := &EventWorkload{CardA: cardA, CardC: cardC, M: m, P: p}
	w.Complex = make([][]core.Event, cardC)
	for i := range w.Complex {
		w.Complex[i] = drawDistinct(rng, m, cardA)
	}
	w.Docs = make([]core.EventSet, nDocs)
	for i := range w.Docs {
		w.Docs[i] = core.Canonical(drawDistinct(rng, p, cardA))
	}
	return w
}

// drawDistinct draws n distinct events from [0, universe). For n close to
// the universe it degrades gracefully by capping at universe.
func drawDistinct(rng *rand.Rand, n, universe int) []core.Event {
	if n > universe {
		n = universe
	}
	out := make([]core.Event, 0, n)
	seen := make(map[core.Event]bool, n)
	for len(out) < n {
		e := core.Event(rng.Intn(universe))
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// Load registers every complex event of the workload through add, the Add
// of a manager.Matcher (core.Matcher's or a baseline's).
func (w *EventWorkload) Load(add func(core.ComplexID, []core.Event) error) error {
	for i, events := range w.Complex {
		if err := add(core.ComplexID(i), events); err != nil {
			return err
		}
	}
	return nil
}
