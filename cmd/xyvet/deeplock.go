package main

import (
	"fmt"
	"strings"
)

// runDeeplock is lockcheck's interprocedural extension: a call made while
// a lock is held, into a function whose summary says it may block
// (channel send/receive, select with no default, WaitGroup/Cond wait —
// possibly several static calls deep), stalls every other goroutine
// contending for that lock. lockcheck reads the same summaries for the
// channel sends and unresolvable plug points (interface methods,
// callbacks) inside a critical section; this rule covers the remaining
// gap, static concrete calls, and names the exact chain to the blocking
// operation.
func runDeeplock(e *engine) []Finding {
	var out []Finding
	for _, n := range e.nodes {
		if !n.pkg.Analyzed {
			continue
		}
		for _, c := range n.sum.calls {
			if c.async || c.kind != callStatic || len(c.held) == 0 || len(c.targets) == 0 {
				continue
			}
			t := c.targets[0]
			if t.sum.mayBlock == nil {
				continue
			}
			out = append(out, Finding{
				Pos:  c.pos,
				Rule: "deeplock",
				Msg: fmt.Sprintf("call to %s while holding %s may block: %s",
					t.name(), heldNames(c.held), e.renderBlockChain(t)),
			})
		}
	}
	return out
}

// renderBlockChain follows the may-block witness through the call graph
// down to the direct blocking operation: "a.f → a.g: channel send at
// file:42".
func (e *engine) renderBlockChain(t *funcNode) string {
	var b strings.Builder
	b.WriteString(t.name())
	bf := t.sum.mayBlock
	for bf != nil && bf.next != nil {
		b.WriteString(" → ")
		b.WriteString(bf.next.name())
		bf = bf.next.sum.mayBlock
	}
	if bf != nil {
		fmt.Fprintf(&b, ": %s at %s", bf.why, e.shortPos(bf.pos))
	}
	return b.String()
}

// heldNames renders the held-lock set for messages.
func heldNames(held []heldLock) string {
	names := make([]string, len(held))
	for i, h := range held {
		names[i] = h.display
	}
	return strings.Join(names, ", ")
}
