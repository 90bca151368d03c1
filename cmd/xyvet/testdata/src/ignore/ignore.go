// Package ignore exercises the //xyvet:ignore suppression comment, and
// staleignore: each rule an ignore comment names must suppress a finding.
package ignore

import (
	"sync"
	"time"
)

// Suppressed shows both placements: the same line and the line above.
func Suppressed() {
	time.Sleep(time.Millisecond) //xyvet:ignore nondeterm same-line suppression
	//xyvet:ignore nondeterm line-above suppression
	time.Sleep(time.Millisecond)
}

// NotSuppressed shows that ignoring one rule does not silence another;
// the entry that suppressed nothing is a finding of its own.
func NotSuppressed() {
	/* want staleignore */       //xyvet:ignore printcheck wrong rule, the finding below survives
	time.Sleep(time.Millisecond) // want nondeterm
}

// OneOfTwo names two rules, and only one of them reports here.
func OneOfTwo() {
	time.Sleep(time.Millisecond) /* want staleignore */ //xyvet:ignore nondeterm,printcheck
}

type box struct {
	mu sync.Mutex
	ch chan int
}

// Live suppresses a lockcheck finding, so its entry is used.
func (b *box) Live(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- v //xyvet:ignore lockcheck the channel is buffered beyond its writers
}

// Stale suppresses lockcheck where no lock is held.
func (b *box) Stale(v int) {
	b.ch <- v /* want staleignore */ //xyvet:ignore lockcheck no lock is held here
}
