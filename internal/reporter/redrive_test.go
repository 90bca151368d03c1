package reporter

import (
	"testing"
	"time"

	"xymon/internal/stream"
)

// TestRedriveMovesDeadLettersBack: Redrive turns terminal forensics
// back into queued work with a fresh attempt budget, and the healed
// sink gets the report on the next Tick.
func TestRedriveMovesDeadLettersBack(t *testing.T) {
	sink := &flakySink{failN: 1}
	r, now := retryRig(sink, WithRetryPolicy(1, time.Second, time.Second))
	r.Notify(Notification{Subscription: "S", Label: "l", Element: elem("again")})
	if len(r.DeadLetters()) != 1 {
		t.Fatalf("dead letters = %d, want 1 (maxAttempts 1 dead-letters on first failure)", len(r.DeadLetters()))
	}

	if moved := r.Redrive(); moved != 1 {
		t.Fatalf("Redrive moved %d, want 1", moved)
	}
	if len(r.DeadLetters()) != 0 || r.RetryPending() != 1 {
		t.Fatalf("after redrive: dead=%d pending=%d", len(r.DeadLetters()), r.RetryPending())
	}
	*now = now.Add(time.Second)
	r.Tick()
	if len(sink.sent) != 1 || !contains(sink.sent[0].Doc.XML(), "again") {
		t.Fatalf("redriven report not delivered: %+v", sink.sent)
	}
	if st := r.RetryStats(); st.Redriven != 1 {
		t.Errorf("Redriven stat = %d", st.Redriven)
	}
}

// TestRedriveByID: selective redrive touches only the named letters.
func TestRedriveByID(t *testing.T) {
	dir := t.TempDir()
	sink := &flakySink{failN: 1 << 30}
	r, now := durableRig(t, dir, sink, WithRetryPolicy(1, time.Second, time.Second))
	r.Register("A", nil)
	r.Register("B", nil)
	r.Notify(Notification{Subscription: "A", Label: "l", Element: elem("a")})
	r.Notify(Notification{Subscription: "B", Label: "l", Element: elem("b")})
	dead := r.DeadLetters()
	if len(dead) != 2 {
		t.Fatalf("dead letters = %d", len(dead))
	}
	// A dead letter's id is its fired record's stream offset: A fired
	// first, at offset 0, B at 1.
	var idA uint64
	for _, d := range dead {
		if want := map[string]uint64{"A": 0, "B": 1}[d.Report.Subscription]; d.ID() != want {
			t.Fatalf("dead letter for %s has id %d, its offset is %d", d.Report.Subscription, d.ID(), want)
		}
		if d.Report.Subscription == "A" {
			idA = d.ID()
		}
	}
	if moved := r.Redrive(idA); moved != 1 {
		t.Fatalf("Redrive(%d) moved %d", idA, moved)
	}
	rest := r.DeadLetters()
	if len(rest) != 1 || rest[0].Report.Subscription != "B" {
		t.Fatalf("selective redrive left %+v", rest)
	}
	_ = now
}

// TestRedriveSurvivesCrash pins the satellite's durability clause: a
// journaled redrive survives a restart — recovery rebuilds the report
// as queued work, not as a dead letter.
func TestRedriveSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	sink1 := &flakySink{failN: 1 << 30}
	r1, now1 := durableRig(t, dir, sink1, WithRetryPolicy(1, time.Second, time.Second))
	r1.Register("S", nil)
	r1.Notify(Notification{Subscription: "S", Label: "l", Element: elem("payload")})
	if len(r1.DeadLetters()) != 1 {
		t.Fatalf("dead letters = %d", len(r1.DeadLetters()))
	}
	if moved := r1.Redrive(); moved != 1 {
		t.Fatal("redrive moved nothing")
	}
	_ = now1
	// Crash: the first incarnation is dropped without checkpointing.

	sink2 := &flakySink{}
	r2, now2 := durableRig(t, dir, sink2, WithRetryPolicy(1, time.Second, time.Second))
	r2.Register("S", nil)
	if err := r2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := len(r2.DeadLetters()); got != 0 {
		t.Fatalf("redriven report recovered as %d dead letters", got)
	}
	if got := r2.RetryPending(); got != 1 {
		t.Fatalf("recovered retry queue = %d, want the redriven report", got)
	}
	*now2 = now2.Add(time.Second)
	r2.Tick()
	if len(sink2.sent) != 1 || !contains(sink2.sent[0].Doc.XML(), "payload") {
		t.Fatalf("redriven report lost across crash: %+v", sink2.sent)
	}

	// Third incarnation: the delivery resolved it; nothing comes back.
	r3, _ := durableRig(t, dir, &flakySink{}, WithRetryPolicy(1, time.Second, time.Second))
	r3.Register("S", nil)
	if err := r3.Recover(); err != nil {
		t.Fatal(err)
	}
	if r3.RetryPending() != 0 || len(r3.DeadLetters()) != 0 {
		t.Errorf("resolved redrive resurrected: pending=%d dead=%d", r3.RetryPending(), len(r3.DeadLetters()))
	}
}

// TestPublishAtDeliveryTime: every fired report lands in the stream
// exactly once — at build time, before the push attempt, so a failing
// sink does not hide it from pull consumers — and retries do not
// duplicate it.
func TestPublishAtDeliveryTime(t *testing.T) {
	dir := t.TempDir()
	sink := &flakySink{failN: 1}
	r, now := durableRig(t, dir, sink)
	r.Register("S", nil)
	r.Notify(Notification{Subscription: "S", Label: "l", Element: elem("one")}) // push fails, the stream has it
	r.Notify(Notification{Subscription: "S", Label: "l", Element: elem("two")}) // push succeeds
	*now = now.Add(2 * time.Minute)
	r.Tick() // the retry of "one" must not write it again

	if len(sink.sent) != 2 {
		t.Fatalf("%d reports delivered, want 2", len(sink.sent))
	}
	if got := r.log.Next(); got != 2 {
		t.Fatalf("stream holds %d records, want 2 (no retry duplicates)", got)
	}
	rd, err := stream.OpenReader(dir, "t", stream.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	recs, err := rd.Poll(10)
	if err != nil || len(recs) != 2 {
		t.Fatalf("Poll = %d recs, %v", len(recs), err)
	}
	if !contains(recs[0].XML, "one") || !contains(recs[1].XML, "two") {
		t.Errorf("stream payloads: %q, %q", recs[0].XML, recs[1].XML)
	}
	if recs[0].Subscription != "S" || recs[0].Notifications != 1 || recs[0].Origin != "" {
		t.Errorf("stream record meta: %+v", recs[0])
	}
}

// TestRecoveredReportsReachStream: a report that fired before a crash
// and was never delivered is in the stream at its fired offset already
// — recovery redelivers it without writing it to the stream again.
func TestRecoveredReportsReachStream(t *testing.T) {
	dir := t.TempDir()
	sink1 := &flakySink{failN: 1 << 30}
	r1, _ := durableRig(t, dir, sink1)
	r1.Register("S", nil)
	r1.Notify(Notification{Subscription: "S", Label: "l", Element: elem("lost-and-found")})

	sink2 := &flakySink{}
	r2, now2 := durableRig(t, dir, sink2)
	r2.Register("S", nil)
	if err := r2.Recover(); err != nil {
		t.Fatal(err)
	}
	*now2 = now2.Add(time.Second)
	r2.Tick()
	if len(sink2.sent) != 1 || sink2.sent[0].id != 0 {
		t.Fatalf("recovered redelivery: %d reports", len(sink2.sent))
	}
	if got := r2.log.Next(); got != 1 {
		t.Fatalf("the stream holds %d records after the redelivery, want the one fired", got)
	}
	rd, err := stream.OpenReader(dir, "t", stream.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if recs, err := rd.Poll(10); err != nil || len(recs) != 1 || !contains(recs[0].XML, "lost-and-found") {
		t.Fatalf("Poll = %+v, %v", recs, err)
	}
}
