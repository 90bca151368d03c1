// Package core implements the Monitoring Query Processor of the Xyleme
// subscription system ("Monitoring XML Data on the Web", SIGMOD 2001).
//
// The processor watches a flow of alerts. Each alert carries the set of
// atomic events detected on one document. The processor must report, for
// every incoming set S, all registered complex events (conjunctions of
// atomic events, i.e. subsets of the atomic-event universe) that are
// entirely contained in S. The data structure is the paper's "Atomic Event
// Sets" hash-tree: a chain of hash tables indexed by event-ordered prefixes
// of complex events, whose observed matching cost is O(p·log k) for an
// incoming set of p events when each atomic event participates in k complex
// events on average.
package core

import (
	"fmt"
	"slices"
)

// Event is the code of an atomic event. Codes are assigned by the
// subscription manager; the processor only relies on their total order.
// Any order gives the same matches, but a table is probed with every event
// of the document that sorts after the prefix leading to it: give low codes
// to events few documents raise (a URL, a site) and high ones to those
// raised by the dozen (words). See docs/ALGORITHM.md, "Event order".
type Event uint32

// ComplexID identifies a registered complex event (a conjunction of atomic
// events compiled from the where clause of one monitoring query).
type ComplexID uint32

// EventSet is a set of atomic events in canonical form: strictly increasing
// order with no duplicates. The matcher requires canonical sets; use
// Canonical to build one from arbitrary input.
type EventSet []Event

// Canonical returns the canonical (sorted, deduplicated) form of events.
// The input slice is not modified.
func Canonical(events []Event) EventSet {
	if len(events) == 0 {
		return nil
	}
	s := EventSet(slices.Clone(events))
	slices.Sort(s)
	return slices.Compact(s)
}

// IsCanonical reports whether s is strictly increasing.
func (s EventSet) IsCanonical() bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// Contains reports whether the canonical set s contains e.
func (s EventSet) Contains(e Event) bool {
	_, ok := slices.BinarySearch(s, e)
	return ok
}

// ContainsAll reports whether the canonical set s is a superset of the
// canonical set sub.
func (s EventSet) ContainsAll(sub EventSet) bool {
	if len(sub) > len(s) {
		return false
	}
	i := 0
	for _, e := range sub {
		for i < len(s) && s[i] < e {
			i++
		}
		if i >= len(s) || s[i] != e {
			return false
		}
		i++
	}
	return true
}

// Equal reports whether s and t hold the same events.
func (s EventSet) Equal(t EventSet) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s EventSet) Clone() EventSet {
	if s == nil {
		return nil
	}
	c := make(EventSet, len(s))
	copy(c, s)
	return c
}

func (s EventSet) String() string {
	return fmt.Sprintf("%v", []Event(s))
}
