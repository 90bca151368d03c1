package core

import "sort"

// Compact is a frozen, memory-lean snapshot of a Matcher: the same
// Atomic Event Sets hash-tree flattened into three arrays, with sorted
// sub-tables probed by binary search instead of Go maps. It supports no
// updates — the subscription manager rebuilds it periodically — and exists
// for the Section 4.2 memory discussion: the paper fits Card(C)=10^7
// complex events in ~500 MB of 2001-era C++ hash tables, which a
// pointer-rich map structure cannot approach.
type Compact struct {
	// entries holds every cell; each table is a contiguous, event-sorted
	// run of entries.
	entries []compactEntry
	// marks holds all mark lists back to back.
	marks []ComplexID
	// root is the extent of the root table at the start of entries.
	rootLen int32
	complex int
}

type compactEntry struct {
	event    Event
	childOff int32 // offset of the child table in entries; -1 when none
	childLen int32
	markOff  int32
	markLen  int32
}

// Freeze flattens the current contents of m into a Compact matcher.
func Freeze(m *Matcher) *Compact {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c := &Compact{complex: len(m.defs)}
	// Reserve the root table, then lay out tables breadth-first so each
	// table is contiguous.
	type pending struct {
		t   table
		off int32
	}
	layout := func(t table) (int32, int32) {
		off := int32(len(c.entries))
		events := make([]Event, 0, len(t))
		for e := range t {
			events = append(events, e)
		}
		sort.Slice(events, func(i, j int) bool { return events[i] < events[j] })
		for _, e := range events {
			cell := t[e]
			markOff := int32(len(c.marks))
			c.marks = append(c.marks, cell.marks...)
			c.entries = append(c.entries, compactEntry{
				event:    e,
				childOff: -1,
				markOff:  markOff,
				markLen:  int32(len(cell.marks)),
			})
		}
		return off, int32(len(events))
	}
	rootOff, rootLen := layout(m.root)
	c.rootLen = rootLen
	queue := []pending{{t: m.root, off: rootOff}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		// Children must be laid out in the same sorted order used above.
		events := make([]Event, 0, len(cur.t))
		for e := range cur.t {
			events = append(events, e)
		}
		sort.Slice(events, func(i, j int) bool { return events[i] < events[j] })
		for i, e := range events {
			cell := cur.t[e]
			if cell.child == nil {
				continue
			}
			off, n := layout(cell.child)
			c.entries[cur.off+int32(i)].childOff = off
			c.entries[cur.off+int32(i)].childLen = n
			queue = append(queue, pending{t: cell.child, off: off})
		}
	}
	return c
}

// Match returns the ids of every frozen complex event contained in the
// canonical set s.
func (c *Compact) Match(s EventSet) []ComplexID {
	return c.MatchAppend(nil, s)
}

// MatchAppend appends matches to dst and returns the extended slice.
func (c *Compact) MatchAppend(dst []ComplexID, s EventSet) []ComplexID {
	return c.notif(dst, 0, c.rootLen, s)
}

func (c *Compact) notif(dst []ComplexID, off, n int32, s EventSet) []ComplexID {
	table := c.entries[off : off+n]
	if len(table) < len(s) {
		// Small table: probe its entries against the sorted suffix.
		for j := range table {
			ent := &table[j]
			i := suffixIndex(s, ent.event)
			if i < 0 {
				continue
			}
			dst = append(dst, c.marks[ent.markOff:ent.markOff+ent.markLen]...)
			if ent.childOff >= 0 && i+1 < len(s) {
				dst = c.notif(dst, ent.childOff, ent.childLen, s[i+1:])
			}
		}
		return dst
	}
	for i, e := range s {
		// Binary search within the sorted table run.
		lo, hi := 0, len(table)
		for lo < hi {
			mid := (lo + hi) / 2
			if table[mid].event < e {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo >= len(table) || table[lo].event != e {
			continue
		}
		ent := &table[lo]
		dst = append(dst, c.marks[ent.markOff:ent.markOff+ent.markLen]...)
		if ent.childOff >= 0 && i+1 < len(s) {
			dst = c.notif(dst, ent.childOff, ent.childLen, s[i+1:])
		}
	}
	return dst
}

// Len returns the number of frozen complex events.
func (c *Compact) Len() int { return c.complex }

// MemoryEstimate returns the exact array footprint: 20 bytes per entry
// plus 4 bytes per mark (headers excluded).
func (c *Compact) MemoryEstimate() int64 {
	return int64(len(c.entries))*20 + int64(len(c.marks))*4
}
