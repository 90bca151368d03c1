package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"xymon/internal/baseline"
	"xymon/internal/core"
)

// relabel maps every event of events through perm.
func relabel(events []core.Event, perm []core.Event) []core.Event {
	out := make([]core.Event, len(events))
	for i, e := range events {
		out[i] = perm[e]
	}
	return out
}

// The event order is free for correctness: under any relabelling of the
// codes by a bijection, the hash-tree returns the complex events the naive
// scan of internal/baseline returns on the original codes.
func TestMatchInvariantUnderRelabelling(t *testing.T) {
	const universe, complexes, docs = 96, 400, 200
	rng := rand.New(rand.NewSource(17))
	draw := func(n int) []core.Event {
		events := make([]core.Event, n)
		for i := range events {
			events[i] = core.Event(rng.Intn(universe))
		}
		return events
	}
	naive := baseline.NewNaive()
	defs := make([][]core.Event, complexes)
	for id := range defs {
		defs[id] = draw(1 + rng.Intn(4))
		if err := naive.Add(core.ComplexID(id), defs[id]); err != nil {
			t.Fatal(err)
		}
	}
	probes := make([][]core.Event, docs)
	for i := range probes {
		probes[i] = draw(1 + rng.Intn(24))
	}
	for round := 0; round < 8; round++ {
		perm := make([]core.Event, universe)
		for i, p := range rng.Perm(universe) {
			// spread the images so that relabelled codes are not dense either
			perm[i] = core.Event(p)<<20 | core.Event(rng.Intn(1<<20))
		}
		m := core.NewMatcher()
		for id, def := range defs {
			if err := m.Add(core.ComplexID(id), relabel(def, perm)); err != nil {
				t.Fatal(err)
			}
		}
		for i, probe := range probes {
			want := naive.Match(core.Canonical(probe))
			got := m.Match(core.Canonical(relabel(probe, perm)))
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("round %d, document %d: relabelled match %v, naive %v", round, i, got, want)
			}
		}
	}
}

// fanoutShape is the subscription base the order decides the cost of: sites
// (one `URL extends` prefix each), words shared by the subscriptions of every
// site, and one weak event half the queries carry. prefix, word and weak map
// the three kinds of event onto codes; the base and the documents are the
// same for every mapping.
type fanoutShape struct {
	m    *core.Matcher
	docs []core.EventSet
}

const (
	shapePrefixes = 200
	shapeWords    = 40
	shapeDocWords = 58 // + prefix + weak = 60 events
	// words in use; each is shared by half the sites
	shapeVocab = 80
)

func newFanoutShape(t *testing.T, prefix, word func(int) core.Event, weak core.Event) *fanoutShape {
	sh := &fanoutShape{m: core.NewMatcher()}
	rng := rand.New(rand.NewSource(3))
	id := core.ComplexID(0)
	add := func(events ...core.Event) {
		if err := sh.m.Add(id, events); err != nil {
			t.Fatal(err)
		}
		id++
	}
	for p := 0; p < shapePrefixes; p++ {
		for _, w := range rng.Perm(shapeVocab)[:shapeWords] {
			// the two queries of a fan-out subscription
			add(prefix(p), word(w))
			add(prefix(p), word((w+1)%shapeVocab), weak)
		}
	}
	for p := 0; p < shapePrefixes; p++ {
		events := []core.Event{prefix(p), weak}
		for _, w := range rng.Perm(shapeVocab)[:shapeDocWords] {
			events = append(events, word(w))
		}
		sh.docs = append(sh.docs, core.Canonical(events))
	}
	return sh
}

// locationFirst is the order the manager allocates: prefixes, then the weak
// event, then words. contentFirst is the order arrival used to produce on a
// fan-out base — words interned with the first site sort before every later
// site's prefix — kept here as the yardstick.
func locationFirst(t *testing.T) *fanoutShape {
	return newFanoutShape(t,
		func(p int) core.Event { return core.Event(1<<29 | p) },
		func(w int) core.Event { return core.Event(3<<29 | w) },
		2<<29)
}

func contentFirst(t *testing.T) *fanoutShape {
	return newFanoutShape(t,
		func(p int) core.Event { return core.Event(shapeVocab + 1 + p) },
		func(w int) core.Event { return core.Event(w) },
		shapeVocab)
}

// probesPerMatch runs every document once and returns cell probes per
// returned complex event, and the number returned.
func (sh *fanoutShape) probesPerMatch() (float64, int) {
	before := sh.m.Stats()
	matched := 0
	for _, d := range sh.docs {
		matched += len(sh.m.Match(d))
	}
	return float64(sh.m.Stats().CellProbes-before.CellProbes) / float64(matched), matched
}

// With location-first codes a document enters the root table once per event
// and its own prefix's child table once; with content-first codes each of
// its words enters a child table keyed by prefixes and is probed there with
// the whole remaining suffix. The ceiling is on probes per returned match
// (measured: 2.4 location-first, 32.5 content-first).
func TestProbesOnFanoutShape(t *testing.T) {
	const ceiling = 3.0
	loc, nLoc := locationFirst(t).probesPerMatch()
	con, nCon := contentFirst(t).probesPerMatch()
	if nLoc != nCon || nLoc == 0 {
		t.Fatalf("the two orders returned %d and %d matches", nLoc, nCon)
	}
	t.Logf("probes per match: location-first %.1f, content-first %.1f (%d matches)", loc, con, nLoc)
	if loc > ceiling {
		t.Errorf("location-first: %.1f probes per match, ceiling %.0f", loc, ceiling)
	}
	if con < 10*ceiling {
		t.Errorf("content-first yardstick: %.1f probes per match, expected over %.0f", con, 10*ceiling)
	}
}
