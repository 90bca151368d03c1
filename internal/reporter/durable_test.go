package reporter

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xymon/internal/stream"
	"xymon/internal/sublang"
	"xymon/internal/xmldom"
)

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// durableRig builds a WAL-backed Reporter on a virtual clock.
func durableRig(t *testing.T, dir string, sink Delivery, opts ...Option) (*Reporter, *time.Time) {
	t.Helper()
	l, err := stream.Open(dir, stream.Options{})
	if err != nil {
		t.Fatalf("stream.Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	now := time.Date(2001, 5, 21, 9, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	r := New(sink, append([]Option{WithClock(clock), WithWAL(l)}, opts...)...)
	return r, &now
}

func elem(text string) *xmldom.Node {
	e := xmldom.Element("N")
	e.AppendChild(xmldom.Text(text))
	return e
}

// TestDurableBufferSurvivesRestart pins the tentpole's reporter layer:
// notifications gathered but not yet reported come back after a restart
// and the next Tick reports them.
func TestDurableBufferSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	sink1 := &flakySink{}
	r1, _ := durableRig(t, dir, sink1)
	// Count threshold of 3: two notifications stay buffered.
	r1.Register("S", reportEvery(3))
	r1.Notify(Notification{Subscription: "S", Label: "l", Element: elem("one")})
	r1.Notify(Notification{Subscription: "S", Label: "l", Element: elem("two")})
	if len(sink1.sent) != 0 || r1.Buffered("S") != 2 {
		t.Fatalf("premature report: sent=%d buffered=%d", len(sink1.sent), r1.Buffered("S"))
	}

	// Restart: fresh Reporter over the same WAL directory.
	sink2 := &flakySink{}
	r2, _ := durableRig(t, dir, sink2)
	r2.Register("S", reportEvery(3))
	if err := r2.Recover(nil); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := r2.Buffered("S"); got != 2 {
		t.Fatalf("recovered buffer = %d notifications, want 2", got)
	}
	// The recovered buffer is pending: the next Tick reports it rather
	// than holding the notifications hostage to a re-derived condition.
	r2.Tick()
	if len(sink2.sent) != 1 || sink2.sent[0].Notifications != 2 {
		t.Fatalf("after recovery Tick: %+v", sink2.sent)
	}
	doc := sink2.sent[0].Doc.XML()
	for _, want := range []string{"one", "two"} {
		if !contains(doc, want) {
			t.Errorf("recovered report %q lacks %q", doc, want)
		}
	}
}

// reportEvery builds a count-threshold report spec: fires once the
// buffer exceeds n-1 notifications.
func reportEvery(n int) *sublang.ReportSpec {
	return &sublang.ReportSpec{When: []sublang.ReportTerm{{Kind: sublang.TermCount, Count: n - 1}}}
}

// TestDurableOutstandingRedelivers pins at-least-once across a restart:
// a report whose delivery never got acknowledged re-enters the retry
// queue and is redelivered by the recovered Reporter.
func TestDurableOutstandingRedelivers(t *testing.T) {
	dir := t.TempDir()
	// The first incarnation's sink always fails: the report stays
	// outstanding (fired, never done).
	sink1 := &flakySink{failN: 1 << 30}
	r1, _ := durableRig(t, dir, sink1)
	r1.Register("S", nil) // immediate
	r1.Notify(Notification{Subscription: "S", Label: "l", Element: elem("payload")})
	if sink1.calls != 1 || len(sink1.sent) != 0 {
		t.Fatalf("first incarnation: calls=%d sent=%d", sink1.calls, len(sink1.sent))
	}

	sink2 := &flakySink{}
	r2, now2 := durableRig(t, dir, sink2)
	r2.Register("S", nil)
	if err := r2.Recover(nil); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := r2.Stats().RetryPending; got != 1 {
		t.Fatalf("recovered retry queue = %d entries, want 1", got)
	}
	*now2 = now2.Add(time.Second)
	r2.Tick()
	if len(sink2.sent) != 1 || !contains(sink2.sent[0].Doc.XML(), "payload") {
		t.Fatalf("recovered redelivery: %+v", sink2.sent)
	}
	if got := r2.Stats().RetryPending; got != 0 {
		t.Errorf("retry queue after redelivery = %d", got)
	}

	// Third incarnation: the done record resolved the report, nothing to
	// redeliver — at-least-once does not mean redeliver forever.
	sink3 := &flakySink{}
	r3, _ := durableRig(t, dir, sink3)
	r3.Register("S", nil)
	if err := r3.Recover(nil); err != nil {
		t.Fatalf("third Recover: %v", err)
	}
	if got := r3.Stats().RetryPending; got != 0 {
		t.Errorf("resolved report resurrected: %d pending", got)
	}
}

// TestDurableCheckpointCompacts drives Checkpoint: state survives via
// the snapshot, and recovery works identically from the compacted log.
func TestDurableCheckpointCompacts(t *testing.T) {
	dir := t.TempDir()
	sink1 := &flakySink{failN: 1 << 30}
	r1, _ := durableRig(t, dir, sink1)
	r1.Register("S", nil)
	r1.Register("Buf", reportEvery(5))
	r1.Notify(Notification{Subscription: "S", Label: "l", Element: elem("out")})
	r1.Notify(Notification{Subscription: "Buf", Label: "l", Element: elem("kept")})
	if err := r1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	r1.Notify(Notification{Subscription: "Buf", Label: "l", Element: elem("tail")})

	sink2 := &flakySink{}
	r2, now2 := durableRig(t, dir, sink2)
	r2.Register("S", nil)
	r2.Register("Buf", reportEvery(5))
	if err := r2.Recover(nil); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := r2.Buffered("Buf"); got != 2 {
		t.Fatalf("recovered buffer = %d, want 2 (snapshot + tail)", got)
	}
	if got := r2.Stats().RetryPending; got != 1 {
		t.Fatalf("recovered outstanding = %d, want 1", got)
	}
	*now2 = now2.Add(time.Second)
	r2.Tick()
	if len(sink2.sent) != 2 { // redelivered "out" + pending Buf report
		t.Fatalf("after recovery Tick: %d deliveries", len(sink2.sent))
	}
}

// TestDeadLetterCapUnderFaultStorm pins the satellite: the dead-letter
// queue holds its cap under a storm of failing deliveries, evicting
// oldest-first and counting what it dropped.
func TestDeadLetterCapUnderFaultStorm(t *testing.T) {
	sink := &flakySink{failN: 1 << 30}
	r, now := retryRig(sink, WithRetryPolicy(1, time.Second, time.Second), WithDeadLetterCap(4))
	for i := 0; i < 10; i++ {
		r.Register(fmt.Sprintf("S%d", i), nil)
	}
	for i := 0; i < 10; i++ {
		// maxAttempts 1: every failed delivery dead-letters immediately.
		r.Notify(Notification{Subscription: fmt.Sprintf("S%d", i), Label: "l", Element: elem("x")})
		*now = now.Add(time.Second)
		r.Tick()
	}
	dead := r.DeadLetters()
	if len(dead) != 4 {
		t.Fatalf("dead letters = %d, want the cap of 4", len(dead))
	}
	// Oldest-first eviction: the survivors are the newest four.
	for i, dl := range dead {
		if want := fmt.Sprintf("S%d", 6+i); dl.Report.Subscription != want {
			t.Errorf("dead[%d] = %s, want %s", i, dl.Report.Subscription, want)
		}
	}
	st := r.Stats()
	if st.Evicted != 6 || st.DeadLettered != 10 {
		t.Errorf("Stats = %+v, want Evicted=6 DeadLettered=10", st)
	}
}

// TestDurableDeadLettersSurviveRestart: the forensic trail survives too.
func TestDurableDeadLettersSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	sink1 := &flakySink{failN: 1 << 30}
	r1, now1 := durableRig(t, dir, sink1, WithRetryPolicy(1, time.Second, time.Second))
	r1.Register("S", nil)
	r1.Notify(Notification{Subscription: "S", Label: "l", Element: elem("gone")})
	*now1 = now1.Add(time.Second)
	r1.Tick()
	if len(r1.DeadLetters()) != 1 {
		t.Fatalf("dead letters before restart = %d", len(r1.DeadLetters()))
	}

	r2, _ := durableRig(t, dir, &flakySink{})
	r2.Register("S", nil)
	if err := r2.Recover(nil); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	dead := r2.DeadLetters()
	if len(dead) != 1 || dead[0].Report.Subscription != "S" || dead[0].Attempts != 1 {
		t.Fatalf("recovered dead letters = %+v", dead)
	}
	if dead[0].Report.Doc == nil || !contains(dead[0].Report.Doc.XML(), "gone") {
		t.Errorf("recovered dead letter lost its payload")
	}
	// The dead report must not re-enter the retry queue.
	if got := r2.Stats().RetryPending; got != 0 {
		t.Errorf("dead report resurrected into retry queue: %d", got)
	}
}

// TestRecoverTwiceIsIdempotentReporter: recovering the same WAL twice
// must not duplicate buffers or retry entries (double restart shape).
func TestRecoverTwiceIsIdempotentReporter(t *testing.T) {
	dir := t.TempDir()
	sink1 := &flakySink{failN: 1 << 30}
	r1, _ := durableRig(t, dir, sink1)
	r1.Register("S", nil)
	r1.Register("Buf", reportEvery(5))
	r1.Notify(Notification{Subscription: "S", Label: "l", Element: elem("x")})
	r1.Notify(Notification{Subscription: "Buf", Label: "l", Element: elem("y")})

	r2, _ := durableRig(t, dir, &flakySink{})
	r2.Register("S", nil)
	r2.Register("Buf", reportEvery(5))
	if err := r2.Recover(nil); err != nil {
		t.Fatalf("first Recover: %v", err)
	}
	if err := r2.Recover(nil); err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	if got := r2.Buffered("Buf"); got != 1 {
		t.Errorf("buffer after double recovery = %d, want 1", got)
	}
	if got := r2.Stats().RetryPending; got != 1 {
		t.Errorf("retry queue after double recovery = %d, want 1", got)
	}
}

// TestFollowerCopyKeepsFollowersBuffer: a fired batch's follower copy
// names the subscription whose buffer the report consumed, so recovery
// empties that buffer and not the follower's own, which a follower that
// is a subscription in its own right may hold.
func TestFollowerCopyKeepsFollowersBuffer(t *testing.T) {
	dir := t.TempDir()
	register := func(r *Reporter) {
		r.Register("Imm", nil)
		r.Register("Fol", reportEvery(3))
		if err := r.Follow("Fol", "Imm"); err != nil {
			t.Fatal(err)
		}
	}
	r1, _ := durableRig(t, dir, &flakySink{})
	register(r1)
	r1.Notify(Notification{Subscription: "Fol", Label: "l", Element: elem("own")})
	r1.Notify(Notification{Subscription: "Imm", Label: "l", Element: elem("shared")})

	r2, _ := durableRig(t, dir, &flakySink{})
	register(r2)
	if err := r2.Recover(nil); err != nil {
		t.Fatal(err)
	}
	if got := r2.Buffered("Fol"); got != 1 {
		t.Errorf("the follower's own buffer recovered with %d notifications, want 1", got)
	}
	if got := r2.Buffered("Imm"); got != 0 {
		t.Errorf("the reported buffer recovered with %d notifications, want 0", got)
	}
}

// TestFailedFiredWriteKeepsReportOwed: a report whose fired record
// cannot be written does not leave the Reporter — the journal could not
// account for it — and its subscription's buffer stays, so a checkpoint
// taken meanwhile snapshots the notifications, not nothing. After
// recovery the report is still owed: the next Tick builds and delivers
// it, to the follower too, at the stream's first offsets.
func TestFailedFiredWriteKeepsReportOwed(t *testing.T) {
	dir := t.TempDir()
	var failAppend atomic.Bool
	l1, err := stream.Open(dir, stream.Options{Hook: func(op, _ string) error {
		if op == stream.OpAppend && failAppend.Load() {
			return errors.New("injected")
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	register := func(r *Reporter) {
		r.Register("S", nil)
		if err := r.Follow("F", "S"); err != nil {
			t.Fatal(err)
		}
	}
	sink1 := &flakySink{}
	r1 := New(sink1, WithWAL(l1))
	register(r1)
	failAppend.Store(true)
	r1.Notify(Notification{Subscription: "S", Label: "l", Element: elem("held")})
	r1.Tick()
	if len(sink1.sent) != 0 || r1.Stats().JournalErrors == 0 {
		t.Fatalf("a report with no fired record left the Reporter: %d sent, %d journal errors", len(sink1.sent), r1.Stats().JournalErrors)
	}
	if got := r1.Buffered("S"); got != 1 {
		t.Fatalf("the failed build kept %d notifications, want 1", got)
	}
	if err := r1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := stream.Open(dir, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	sink2 := &flakySink{}
	r2 := New(sink2, WithWAL(l2))
	register(r2)
	if err := r2.Recover(nil); err != nil {
		t.Fatal(err)
	}
	r2.Tick()
	if len(sink2.sent) != 2 {
		t.Fatalf("after recovery the owed report reached %d recipients, want 2", len(sink2.sent))
	}
	for i, rep := range sink2.sent {
		if !contains(rep.Doc.XML(), "held") || rep.id != uint64(i) {
			t.Errorf("recipient %s got %s at offset %d", rep.Subscription, rep.Doc.XML(), rep.id)
		}
	}
}

// TestEvaluationMarksSurviveRestart: a continuous query's result marks
// the query evaluated in its own record, a mark alone (an unchanged
// delta) buffers and fires nothing, and marks come back from the
// snapshot and the tail alike. Unregister and re-registration drop them
// as they drop buffers; a result atmost suppresses marks nothing.
func TestEvaluationMarksSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	sink := &flakySink{}
	r1, now := durableRig(t, dir, sink)
	capped := &sublang.ReportSpec{When: []sublang.ReportTerm{{Kind: sublang.TermCount, Count: 9}}, AtMostCount: 1}
	r1.Register("S", nil)
	r1.Register("Capped", capped)
	r1.Register("Gone", nil)
	t0, t1 := *now, now.Add(time.Hour)
	r1.Notify(Notification{Subscription: "S", Label: "Q", Element: elem("full"), Time: t0, Mark: true})
	r1.Notify(Notification{Subscription: "Capped", Label: "Q", Element: elem("kept"), Time: t0, Mark: true})
	r1.Notify(Notification{Subscription: "Capped", Label: "Q", Element: elem("suppressed"), Time: t1, Mark: true})
	r1.Notify(Notification{Subscription: "Gone", Label: "Q", Element: elem("x"), Time: t0, Mark: true})
	r1.Unregister("Gone")
	if err := r1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	r1.Notify(Notification{Subscription: "S", Label: "Q", Time: t1, Mark: true})
	r1.Notify(Notification{Subscription: "S", Label: "Unchanged", Time: t1, Mark: true})
	if len(sink.sent) != 2 || r1.Buffered("S") != 0 {
		t.Fatalf("marks alone fired or buffered: %d reports, %d buffered", len(sink.sent), r1.Buffered("S"))
	}

	r2, _ := durableRig(t, dir, &flakySink{})
	for _, sub := range []string{"S", "Capped", "Gone"} {
		r2.Register(sub, nil)
	}
	if err := r2.Recover(nil); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	for _, c := range []struct {
		sub, query string
		want       time.Time // zero: no mark
	}{
		{"S", "Q", t1}, {"S", "Unchanged", t1}, {"Capped", "Q", t0}, {"Gone", "Q", time.Time{}}, {"S", "Never", time.Time{}},
	} {
		got, ok := r2.Evaluated(c.sub, c.query)
		if ok != !c.want.IsZero() || !got.Equal(c.want) {
			t.Errorf("Evaluated(%s, %s) = %v, %v; want %v", c.sub, c.query, got, ok, c.want)
		}
	}
	r2.Register("S", nil)
	if _, ok := r2.Evaluated("S", "Q"); ok {
		t.Error("a re-registered subscription inherited its predecessor's mark")
	}
}

// TestMarkAloneRidesNextBarrier: a mark alone costs no fsync of its own;
// the next barrier — here an idle Tick's — makes it durable.
func TestMarkAloneRidesNextBarrier(t *testing.T) {
	var c fsyncCounter
	r, now := commitRig(t, t.TempDir(), &flakySink{}, &c)
	r.Register("S", nil)
	r.Notify(Notification{Subscription: "S", Label: "Q", Element: elem("full"), Time: *now, Mark: true})
	if rep, other := c.take(); rep != 1 || other != 0 {
		t.Fatalf("a marked result cost %d + %d fsyncs, want the one barrier", rep, other)
	}
	r.Notify(Notification{Subscription: "S", Label: "Q", Time: *now, Mark: true})
	if rep, other := c.take(); rep != 0 || other != 0 {
		t.Fatalf("a mark alone cost %d + %d fsyncs, want none", rep, other)
	}
	r.Tick()
	if rep, _ := c.take(); rep != 1 {
		t.Fatalf("the Tick after a mark alone synced %d times, want 1", rep)
	}
}
