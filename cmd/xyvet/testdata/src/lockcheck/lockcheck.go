// Package lockcheck exercises the lock-discipline analyzer: unpaired
// locks, channel sends and callback invocations inside critical
// sections, and the *Locked caller-holds-the-lock convention.
package lockcheck

import "sync"

// Sink is an in-module plug-point interface, as Delivery or Journal are
// in the real tree.
type Sink interface {
	Emit(v int)
}

type Box struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	vals []int
	ch   chan int
	done chan struct{}
	cb   func(int)
	get  func() int
	sink Sink
}

// Good is the canonical pattern: lock, defer unlock, short section.
func (b *Box) Good(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.vals = append(b.vals, v)
}

// GoodExplicit releases the lock before the send; the explicit unlock
// ends the critical section.
func (b *Box) GoodExplicit(v int) {
	b.mu.Lock()
	b.vals = append(b.vals, v)
	b.mu.Unlock()
	b.ch <- v
}

// Unpaired never releases the lock in the same statement list.
func (b *Box) Unpaired(v int) {
	b.mu.Lock() // want lockcheck
	b.vals = append(b.vals, v)
}

// SendUnderLock blocks the critical section when the channel is full.
func (b *Box) SendUnderLock(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- v // want lockcheck
}

// CallbackUnderLock invokes an injected function value while locked.
func (b *Box) CallbackUnderLock(v int) {
	b.rw.RLock()
	b.cb(v) // want lockcheck
	b.rw.RUnlock()
}

// InterfaceUnderLock calls an in-module interface method while locked.
func (b *Box) InterfaceUnderLock(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sink.Emit(v) // want lockcheck
}

// flushLocked runs with the caller's lock held, per the naming
// convention, so its body is a critical section too.
func (b *Box) flushLocked() {
	for _, v := range b.vals {
		b.ch <- v // want lockcheck
	}
	b.vals = nil
}

// LocalClosure calls a closure defined in the same function; that stays
// under the author's control and is fine while locked.
func (b *Box) LocalClosure(v int) {
	add := func(x int) { b.vals = append(b.vals, x) }
	b.mu.Lock()
	defer b.mu.Unlock()
	add(v)
}

// SpawnUnderLock starts a goroutine whose body sends; the send happens
// outside the lexical critical section and is fine.
func (b *Box) SpawnUnderLock(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	go func() {
		select {
		case b.ch <- v:
		case <-b.done:
		}
	}()
}

// The rows below pin the edges of a critical section: select clauses,
// go and defer arguments, nested and overlapping sections, the *Locked
// convention, case clauses and function literals. Each // want gives
// every finding of its line.

// TrySendUnderLock sends in a select with a default: it never blocks,
// but it still runs inside the critical section.
func (b *Box) TrySendUnderLock(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case b.ch <- v: // want lockcheck
	default:
	}
}

// DeferredArgUnderLock evaluates a callback as a deferred call's
// argument: the argument runs at the defer statement, under the lock.
func (b *Box) DeferredArgUnderLock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	defer b.Good(b.get()) // want lockcheck
}

// NestedSend sends inside two critical sections: a finding per lock.
func (b *Box) NestedSend(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rw.RLock()
	b.ch <- v // want lockcheck lockcheck
	b.rw.RUnlock()
}

// drainLocked takes a second lock under the caller's and sends: one
// finding for each.
func (b *Box) drainLocked() {
	b.rw.Lock()
	defer b.rw.Unlock()
	b.ch <- 0 // want lockcheck lockcheck
}

// Peek leaves a read lock taken in a case clause.
func (b *Box) Peek(k int) int {
	switch k {
	case 0:
		b.rw.RLock() // want lockcheck
		return len(b.vals)
	}
	return 0
}

// Later returns a function literal that locks and sends in its own
// body.
func (b *Box) Later(v int) func() {
	return func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.ch <- v // want lockcheck
	}
}

// flushAll is a package variable's function literal that locks and
// sends: no function declaration holds it.
var flushAll = func(b *Box) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- 0 // want lockcheck
}

// HandOver releases mu after taking rw (hand-over-hand): the send runs
// under rw alone.
func (b *Box) HandOver(v int) {
	b.mu.Lock()
	b.rw.Lock()
	b.mu.Unlock()
	b.ch <- v // want lockcheck
	b.rw.Unlock()
}
