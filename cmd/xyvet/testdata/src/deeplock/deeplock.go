// Package deeplock exercises the interprocedural blocking-call analyzer:
// a call made while a lock is held, into a function that (possibly
// several static calls deep) performs a definite blocking operation.
package deeplock

import "sync"

type Q struct {
	mu sync.Mutex
	ch chan int
	wg sync.WaitGroup
	n  int
}

// send blocks outright: a bare channel send.
func (q *Q) send(v int) {
	q.ch <- v
}

// relay is one static hop above the blocking operation.
func (q *Q) relay(v int) {
	q.send(v)
}

// Bad reaches the channel send through two static calls while holding
// the mutex: every other goroutine contending for q.mu stalls until a
// receiver shows up.
func (q *Q) Bad(v int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.n++
	q.relay(v) // want deeplock
}

// BadWait calls into a WaitGroup wait under the lock.
func (q *Q) settle() {
	q.wg.Wait()
}

func (q *Q) BadWait() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.settle() // want deeplock
}

// through sends and hands q back; done does nothing.
func (q *Q) through(v int) *Q {
	q.send(v)
	return q
}

func (q *Q) done() {}

// BadOperand and BadDeferredOperand both call through under the lock:
// the receiver of the call a defer statement postpones is evaluated at
// the statement, like any plain call.
func (q *Q) BadOperand(v int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.through(v).done() // want deeplock
}

func (q *Q) BadDeferredOperand(v int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	defer q.through(v).done() // want deeplock
}

// Good releases the lock before the blocking call.
func (q *Q) Good(v int) {
	q.mu.Lock()
	q.n++
	q.mu.Unlock()
	q.relay(v)
}

// tryDrain never blocks: the select has a default.
func (q *Q) tryDrain() {
	select {
	case <-q.ch:
	default:
	}
}

// GoodTry calls a function that only polls — no blocking witness, no
// finding.
func (q *Q) GoodTry() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.tryDrain()
}
