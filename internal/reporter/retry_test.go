package reporter

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// flakySink fails the first failN deliveries, then accepts everything.
type flakySink struct {
	failN int
	calls int
	sent  []*Report
}

func (s *flakySink) Deliver(rep *Report) error {
	s.calls++
	if s.calls <= s.failN {
		return errors.New("spool full")
	}
	s.sent = append(s.sent, rep)
	return nil
}

// retryRig builds a Reporter on a virtual clock with one immediate-report
// subscription.
func retryRig(sink Delivery, opts ...Option) (*Reporter, *time.Time) {
	now := time.Date(2001, 5, 21, 9, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	r := New(sink, append([]Option{WithClock(clock)}, opts...)...)
	r.Register("S", nil)
	return r, &now
}

func TestRetryQueueRedelivers(t *testing.T) {
	sink := &flakySink{failN: 1}
	r, now := retryRig(sink)

	r.Notify(Notification{Subscription: "S"})
	if st := r.Stats(); st.Delivered != 0 || st.Failed != 1 {
		t.Fatalf("after failed delivery: delivered=%d failed=%d", st.Delivered, st.Failed)
	}
	if st := r.Stats(); st.RetryPending != 1 {
		t.Fatalf("RetryPending = %d, want 1", st.RetryPending)
	}

	// Before the backoff elapses, Tick must not re-attempt.
	r.Tick()
	if sink.calls != 1 {
		t.Fatalf("Tick inside backoff re-attempted: %d calls", sink.calls)
	}

	*now = now.Add(2 * time.Minute)
	r.Tick()
	st := r.Stats()
	if st.Delivered != 1 {
		t.Fatalf("after retry Tick: delivered=%d, want 1", st.Delivered)
	}
	if st.RetryPending != 0 || len(r.DeadLetters()) != 0 {
		t.Errorf("pending=%d dead=%d after successful retry", st.RetryPending, len(r.DeadLetters()))
	}
	if st.Retried != 1 || st.DeadLettered != 0 {
		t.Errorf("Retried, DeadLettered = (%d, %d), want (1, 0)", st.Retried, st.DeadLettered)
	}
	if len(sink.sent) != 1 || sink.sent[0].Subscription != "S" {
		t.Errorf("sink got %v", sink.sent)
	}
}

func TestDeadLetterAfterBudget(t *testing.T) {
	sink := &flakySink{failN: 1 << 30} // never succeeds
	r, now := retryRig(sink, WithRetryPolicy(3, time.Minute, time.Hour))

	r.Notify(Notification{Subscription: "S"})
	for i := 0; i < 6; i++ {
		*now = now.Add(time.Hour)
		r.Tick()
	}
	if sink.calls != 3 {
		t.Fatalf("sink saw %d attempts, want exactly the budget of 3", sink.calls)
	}
	st := r.Stats()
	if st.RetryPending != 0 {
		t.Errorf("RetryPending = %d after exhausting the budget", st.RetryPending)
	}
	dead := r.DeadLetters()
	if len(dead) != 1 {
		t.Fatalf("DeadLetters = %d entries, want 1", len(dead))
	}
	dl := dead[0]
	if dl.Attempts != 3 || dl.Report.Subscription != "S" || !strings.Contains(dl.Reason, "spool full") {
		t.Errorf("dead letter = %+v", dl)
	}
	if st.DeadLettered != 1 || st.DeadLetters != 1 {
		t.Errorf("deadLettered = %d, queue length %d, want 1 and 1", st.DeadLettered, st.DeadLetters)
	}
	if st.Failed != 3 {
		t.Errorf("failed = %d, want 3 (one per attempt)", st.Failed)
	}
}

// TestRetryDisabled: a budget of at most one attempt never retries; the
// first failure dead-letters the report instead of dropping it.
func TestRetryDisabled(t *testing.T) {
	for _, maxAttempts := range []int{0, 1} {
		sink := &flakySink{failN: 1 << 30}
		r, now := retryRig(sink, WithRetryPolicy(maxAttempts, 0, 0))
		r.Notify(Notification{Subscription: "S"})
		*now = now.Add(24 * time.Hour)
		r.Tick()
		if sink.calls != 1 {
			t.Errorf("maxAttempts %d still re-attempted: %d calls", maxAttempts, sink.calls)
		}
		if r.Stats().RetryPending != 0 || len(r.DeadLetters()) != 1 {
			t.Errorf("maxAttempts %d: pending=%d dead=%d, want 0 and 1", maxAttempts, r.Stats().RetryPending, len(r.DeadLetters()))
		}
	}
}

func TestRetryDelayGrowsAndCaps(t *testing.T) {
	base, max := time.Minute, 10*time.Minute
	want := []time.Duration{
		time.Minute, 2 * time.Minute, 4 * time.Minute,
		8 * time.Minute, 10 * time.Minute, 10 * time.Minute,
	}
	for i, w := range want {
		if got := retryDelay(base, max, i+1); got != w {
			t.Errorf("retryDelay(attempt %d) = %v, want %v", i+1, got, w)
		}
	}
}
