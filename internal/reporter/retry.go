package reporter

import (
	"sync"
	"time"
)

// The paper's Reporter hands reports to sendmail and moves on; a
// saturated or crashed daemon silently eats them. The retry queue keeps
// every failed report, re-attempts it on the Reporter's own timer with
// capped exponential backoff, and — once the attempt budget is spent —
// parks it on a dead-letter queue with the final error, so an operator
// can tell "delivered late" from "lost, and here is why".

// retryEntry is one report waiting for redelivery.
type retryEntry struct {
	rep      *Report
	attempts int // failed attempts so far
	nextTry  time.Time
	lastErr  error
}

// DeadLetter is a report that exhausted its delivery attempts.
type DeadLetter struct {
	Report   *Report
	Attempts int
	Reason   string // the final delivery error
	Time     time.Time
}

// retryState is the Reporter's redelivery bookkeeping. Its lock is
// independent of the notification stripes and is never held across a
// Deliver call.
type retryState struct {
	mu          sync.Mutex
	queue       []*retryEntry
	dead        []DeadLetter
	maxAttempts int // total attempts per report; 0 disables retrying
	maxDead     int // dead-letter cap; <= 0 is unbounded
	base        time.Duration
	max         time.Duration
	// outstanding tracks reports journaled as fired whose delivery
	// outcome has not landed yet; the WAL checkpoint snapshots it and
	// recovery turns it back into retry-queue entries (see durable.go).
	outstanding map[uint64]walRecord
}

// DefaultDeadLetterCap bounds the dead-letter queue: a sink that stays
// down for days must not grow it without limit. Oldest letters are
// evicted first; WithDeadLetterCap changes the bound.
const DefaultDeadLetterCap = 1024

// WithDeadLetterCap bounds the dead-letter queue to n letters, evicting
// oldest-first past the cap (n <= 0 removes the bound). Evictions are
// counted in RetryStats.
func WithDeadLetterCap(n int) Option {
	return func(r *Reporter) { r.retry.maxDead = n }
}

// evictDeadLocked enforces the dead-letter cap. Caller holds rt.mu.
func (r *Reporter) evictDeadLocked() {
	rt := &r.retry
	if rt.maxDead <= 0 || len(rt.dead) <= rt.maxDead {
		return
	}
	n := len(rt.dead) - rt.maxDead
	copy(rt.dead, rt.dead[n:])
	for i := len(rt.dead) - n; i < len(rt.dead); i++ {
		rt.dead[i] = DeadLetter{} // release the evicted reports
	}
	rt.dead = rt.dead[:len(rt.dead)-n]
	r.evicted.Add(uint64(n))
}

// WithRetryPolicy sets the delivery retry budget: maxAttempts total
// attempts per report (0 disables retrying entirely — a failure is only
// counted, the pre-retry behaviour), with the delay between attempts
// growing from base, doubling, capped at max. The default is 5 attempts,
// 1m base, 1h cap.
func WithRetryPolicy(maxAttempts int, base, max time.Duration) Option {
	return func(r *Reporter) {
		r.retry.maxAttempts = maxAttempts
		if base > 0 {
			r.retry.base = base
		}
		if max > 0 {
			r.retry.max = max
		}
	}
}

// retryDelay is the backoff before attempt attempts+1: base·2ⁿ⁻¹ capped
// at max.
func retryDelay(base, max time.Duration, attempts int) time.Duration {
	d := base
	for i := 1; i < attempts && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// noteFailure routes a failed delivery into the retry queue, or the
// dead-letter queue once the attempt budget is spent. Called with no
// other Reporter lock held.
func (r *Reporter) noteFailure(rep *Report, attempts int, err error, now time.Time) {
	rt := &r.retry
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.maxAttempts == 0 {
		// Retrying disabled: the failure is counted and the report
		// intentionally dropped — resolve it so recovery does not
		// resurrect what this configuration chose to lose.
		r.resolveLocked(rep, "lost", err.Error(), attempts, now)
		return
	}
	if attempts >= rt.maxAttempts {
		rt.dead = append(rt.dead, DeadLetter{
			Report:   rep,
			Attempts: attempts,
			Reason:   err.Error(),
			Time:     now,
		})
		r.deadLettered.Add(1)
		r.resolveLocked(rep, "dead", err.Error(), attempts, now)
		r.evictDeadLocked()
		return
	}
	rt.queue = append(rt.queue, &retryEntry{
		rep:      rep,
		attempts: attempts,
		nextTry:  now.Add(retryDelay(rt.base, rt.max, attempts)),
		lastErr:  err,
	})
}

// drainRetries re-attempts every queued report whose backoff has elapsed.
// Deliver runs with no lock held; failures re-enter the queue (or the
// dead-letter queue) through noteFailure. The done records it writes
// ride the next commit, like deliver's.
func (r *Reporter) drainRetries(now time.Time) {
	rt := &r.retry
	rt.mu.Lock()
	var due []*retryEntry
	keep := rt.queue[:0]
	for _, e := range rt.queue {
		if e.nextTry.After(now) {
			keep = append(keep, e)
		} else {
			due = append(due, e)
		}
	}
	rt.queue = keep
	rt.mu.Unlock()
	for _, e := range due {
		r.retried.Add(1)
		if err := r.delivery.Deliver(e.rep); err != nil {
			r.failed.Add(1)
			r.noteFailure(e.rep, e.attempts+1, err, now)
		} else {
			r.delivered.Add(1)
			r.noteDelivered(e.rep)
		}
	}
}

// RetryPending returns the number of reports waiting for redelivery.
func (r *Reporter) RetryPending() int {
	r.retry.mu.Lock()
	defer r.retry.mu.Unlock()
	return len(r.retry.queue)
}

// DeadLetters returns a copy of the dead-letter queue.
func (r *Reporter) DeadLetters() []DeadLetter {
	r.retry.mu.Lock()
	defer r.retry.mu.Unlock()
	return append([]DeadLetter(nil), r.retry.dead...)
}

// ID returns the dead letter's stream offset — where its fired record
// sits in the journal, and the handle Redrive takes. It is 0 when the
// Reporter runs without a WAL (redrive everything with no ids in that
// configuration).
func (d DeadLetter) ID() uint64 { return d.Report.id }

// Redrive moves dead letters back onto the retry queue with a fresh
// attempt budget — the operator's "the sink is fixed, try again". With
// no ids every dead letter is redriven; otherwise only those whose
// ID() matches. The move is journaled, so a redrive survives a crash:
// recovery rebuilds the report as outstanding, not dead. Returns the
// number of letters moved; they deliver on the next Tick.
func (r *Reporter) Redrive(ids ...uint64) int {
	want := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	now := r.clock()
	rt := &r.retry
	rt.mu.Lock()
	defer rt.mu.Unlock()
	keep := rt.dead[:0]
	moved := 0
	for _, d := range rt.dead {
		if len(ids) > 0 && !want[d.Report.id] {
			keep = append(keep, d)
			continue
		}
		moved++
		if r.log != nil {
			// Journal the redrive, and track the report as outstanding
			// again so a checkpoint taken before its redelivery outcome
			// snapshots it into the retry queue, not the dead queue.
			r.journal(walRecord{T: "redrive", ID: d.Report.id, Time: now})
			rt.outstanding[d.Report.id] = d.Report.outstanding()
		}
		rt.queue = append(rt.queue, &retryEntry{rep: d.Report, nextTry: now})
	}
	for i := len(keep); i < len(rt.dead); i++ {
		rt.dead[i] = DeadLetter{}
	}
	rt.dead = keep
	r.redriven.Add(uint64(moved))
	return moved
}

// RetryStats counts the Reporter's redelivery activity.
type RetryStats struct {
	// Retried counts redelivery attempts.
	Retried uint64
	// DeadLettered counts reports that exhausted their attempt budget.
	DeadLettered uint64
	// Evicted counts dead letters dropped oldest-first by the cap.
	Evicted uint64
	// Redriven counts dead letters moved back onto the retry queue.
	Redriven uint64
}

// RetryStats snapshots the redelivery counters.
func (r *Reporter) RetryStats() RetryStats {
	return RetryStats{
		Retried:      r.retried.Load(),
		DeadLettered: r.deadLettered.Load(),
		Evicted:      r.evicted.Load(),
		Redriven:     r.redriven.Load(),
	}
}
