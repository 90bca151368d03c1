package core

import (
	"sort"
	"testing"
	"testing/quick"
)

// quickEvents narrows arbitrary uint32 noise into a small event universe
// so random sets actually intersect.
func quickEvents(raw []uint32, universe uint32) []Event {
	events := make([]Event, len(raw))
	for i, v := range raw {
		events[i] = Event(v % universe)
	}
	return events
}

// Property: every id returned by Match is registered, and its definition
// is contained in the probe set (soundness).
func TestQuickMatchSound(t *testing.T) {
	f := func(defs [][]uint32, probe []uint32) bool {
		m := NewMatcher()
		for i, d := range defs {
			if len(d) == 0 {
				continue
			}
			if err := m.Add(ComplexID(i), quickEvents(d, 64)); err != nil {
				return false
			}
		}
		s := Canonical(quickEvents(probe, 64))
		for _, id := range m.Match(s) {
			def := m.Definition(id)
			if def == nil || !s.ContainsAll(def) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: matching is complete — a registered complex event whose
// definition is a subset of the probe is always returned.
func TestQuickMatchComplete(t *testing.T) {
	f := func(defs [][]uint32, probe []uint32) bool {
		m := NewMatcher()
		registered := map[ComplexID]EventSet{}
		for i, d := range defs {
			if len(d) == 0 {
				continue
			}
			events := quickEvents(d, 64)
			if err := m.Add(ComplexID(i), events); err != nil {
				return false
			}
			registered[ComplexID(i)] = Canonical(events)
		}
		s := Canonical(quickEvents(probe, 64))
		matched := map[ComplexID]bool{}
		for _, id := range m.Match(s) {
			if matched[id] {
				return false // duplicates are a bug
			}
			matched[id] = true
		}
		for id, def := range registered {
			if s.ContainsAll(def) && !matched[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Match is invariant under permutation/duplication of the input
// events (Canonical normalises them).
func TestQuickMatchInputNormalisation(t *testing.T) {
	f := func(defs [][]uint32, probe []uint32, dup []uint32) bool {
		m := NewMatcher()
		for i, d := range defs {
			if len(d) == 0 {
				continue
			}
			if err := m.Add(ComplexID(i), quickEvents(d, 32)); err != nil {
				return false
			}
		}
		base := quickEvents(probe, 32)
		noisy := append(append([]Event{}, base...), base...) // duplicated
		for i, j := 0, len(noisy)-1; i < j; i, j = i+1, j-1 {
			noisy[i], noisy[j] = noisy[j], noisy[i] // reversed
		}
		a := m.Match(Canonical(base))
		b := m.Match(Canonical(noisy))
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
