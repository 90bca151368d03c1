// Package flow runs the document flow through the notification chain with
// a pool of workers. It realises in-process the paper's two scalability
// mechanisms: the alerters "use different threads for input and output"
// (Section 6.1) and the flow of documents can be split between several
// Monitoring Query Processors (Section 4.2, "Processing speed"
// distribution). Matching is read-mostly, so workers share one processor;
// across machines each worker would hold a replica.
package flow

import (
	"errors"
	"sync"
	"sync/atomic"

	"xymon/internal/alerter"
)

// Handler processes one document; typically System.ProcessDoc.
type Handler func(*alerter.Doc)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("flow: runner is closed")

// Runner is a fixed-size worker pool over a buffered document queue.
type Runner struct {
	handler Handler
	queue   chan *alerter.Doc
	wg      sync.WaitGroup

	// closeMu arbitrates Submit against Close: submitters send while
	// holding it shared, Close flips closed and closes the queue while
	// holding it exclusively, so a send can never hit a closed channel.
	closeMu sync.RWMutex
	closed  atomic.Bool
}

// NewRunner starts workers goroutines draining a queue of the given
// capacity into handler.
func NewRunner(workers, capacity int, handler Handler) *Runner {
	if workers < 1 {
		workers = 1
	}
	if capacity < 1 {
		capacity = 1
	}
	r := &Runner{
		handler: handler,
		queue:   make(chan *alerter.Doc, capacity),
	}
	r.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go r.work()
	}
	return r
}

func (r *Runner) work() {
	defer r.wg.Done()
	for d := range r.queue {
		r.handler(d)
	}
}

// Submit enqueues a document, blocking while the queue is full — the
// back-pressure that keeps a fast crawler from overrunning the processor.
// Submit is safe to race with Close: either the document is accepted
// before the queue closes or ErrClosed is returned, never a panic.
func (r *Runner) Submit(d *alerter.Doc) error {
	if r.closed.Load() {
		return ErrClosed
	}
	r.closeMu.RLock()
	if r.closed.Load() {
		r.closeMu.RUnlock()
		return ErrClosed
	}
	// The send blocks under the read lock on purpose: Close cannot close
	// the channel until every in-flight send has finished, and workers
	// keep draining the queue, so the send always completes.
	r.queue <- d //xyvet:ignore lockcheck send must hold closeMu shared so Close cannot close the queue mid-send
	r.closeMu.RUnlock()
	return nil
}

// Close stops accepting documents and waits for the queue to drain.
func (r *Runner) Close() {
	r.closeMu.Lock()
	if r.closed.Swap(true) {
		r.closeMu.Unlock()
		r.wg.Wait()
		return
	}
	close(r.queue)
	r.closeMu.Unlock()
	r.wg.Wait()
}
