// Package baseline implements reference matchers for the Monitoring Query
// Processor problem, used by the ablation benchmarks of Section 4.1 (the
// paper reports having considered alternative algorithms before choosing
// the Atomic Event Sets structure, one of which was exponential in the
// number of complex events per atomic event).
//
// Two baselines are provided:
//
//   - Naive: scans every registered complex event and tests set inclusion.
//     Cost O(Card(C)·m) per document, independent of p.
//   - Counting: the classical pub/sub counting algorithm over an inverted
//     index from atomic event to subscribing complex events. Cost
//     O(p·k) per document plus per-document counter reset bookkeeping.
//
// Both satisfy manager.Matcher, the surface core.Matcher gives the
// Manager, so the property tests can check the three implementations
// agree on random workloads and a Manager can run over any of them.
package baseline

import (
	"sync"

	"xymon/internal/core"
)

// Naive matches by scanning all registered complex events.
type Naive struct {
	mu   sync.RWMutex
	defs map[core.ComplexID]core.EventSet
}

// NewNaive returns an empty naive matcher.
func NewNaive() *Naive { //xyvet:ignore testonly reference matcher of the differential tests and benchmarks
	return &Naive{defs: make(map[core.ComplexID]core.EventSet)}
}

// Add registers a complex event.
func (n *Naive) Add(id core.ComplexID, events []core.Event) error {
	set := core.Canonical(events)
	if len(set) == 0 {
		return core.ErrEmptyComplexEvent
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.defs[id]; dup {
		return core.ErrDuplicateComplexID
	}
	n.defs[id] = set
	return nil
}

// Remove unregisters a complex event by the definition kept at Add;
// events, which the cluster's ring client routes by, is ignored.
func (n *Naive) Remove(id core.ComplexID, events []core.Event) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.defs[id]; !ok {
		return core.ErrUnknownComplexID
	}
	delete(n.defs, id)
	return nil
}

// MatchAppend appends every complex event contained in s, found by
// exhaustive scan, to dst.
func (n *Naive) MatchAppend(dst []core.ComplexID, s core.EventSet) []core.ComplexID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for id, set := range n.defs {
		if s.ContainsAll(set) {
			dst = append(dst, id)
		}
	}
	return dst
}

// Len returns the number of registered complex events.
func (n *Naive) Len() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.defs)
}

// Counting matches with the counting algorithm: an inverted index maps each
// atomic event to the complex events containing it; matching increments a
// per-complex counter for each event of the document and reports the
// complex events whose counter reaches their arity.
type Counting struct {
	mu    sync.RWMutex
	defs  map[core.ComplexID]core.EventSet
	index map[core.Event][]core.ComplexID
	arity map[core.ComplexID]int
}

// NewCounting returns an empty counting matcher.
func NewCounting() *Counting { //xyvet:ignore testonly reference matcher of the differential tests and benchmarks
	return &Counting{
		defs:  make(map[core.ComplexID]core.EventSet),
		index: make(map[core.Event][]core.ComplexID),
		arity: make(map[core.ComplexID]int),
	}
}

// Add registers a complex event in the inverted index.
func (c *Counting) Add(id core.ComplexID, events []core.Event) error {
	set := core.Canonical(events)
	if len(set) == 0 {
		return core.ErrEmptyComplexEvent
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.defs[id]; dup {
		return core.ErrDuplicateComplexID
	}
	c.defs[id] = set
	c.arity[id] = len(set)
	for _, e := range set {
		c.index[e] = append(c.index[e], id)
	}
	return nil
}

// Remove unregisters a complex event from the inverted index by the
// definition kept at Add; events, which the cluster's ring client routes
// by, is ignored.
func (c *Counting) Remove(id core.ComplexID, events []core.Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	set, ok := c.defs[id]
	if !ok {
		return core.ErrUnknownComplexID
	}
	delete(c.defs, id)
	delete(c.arity, id)
	for _, e := range set {
		list := c.index[e]
		for i, x := range list {
			if x == id {
				copy(list[i:], list[i+1:])
				list = list[:len(list)-1]
				break
			}
		}
		if len(list) == 0 {
			delete(c.index, e)
		} else {
			c.index[e] = list
		}
	}
	return nil
}

// MatchAppend counts per-complex hits over the inverted index and appends
// the complete ones to dst. Because incoming sets are canonical (no
// duplicate events) a complex event of arity m reaches count m exactly
// when all its events are present.
func (c *Counting) MatchAppend(dst []core.ComplexID, s core.EventSet) []core.ComplexID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	counts := make(map[core.ComplexID]int)
	for _, e := range s {
		for _, id := range c.index[e] {
			counts[id]++
			if counts[id] == c.arity[id] {
				dst = append(dst, id)
			}
		}
	}
	return dst
}

// Len returns the number of registered complex events.
func (c *Counting) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.defs)
}
