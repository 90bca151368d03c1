package reporter

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"xymon/internal/stream"
	"xymon/internal/sublang"
	"xymon/internal/wal"
)

// fsyncCounter counts wal.file.sync per log key — the fsyncs a document
// actually paid, on the reporter journal and on the stream.
type fsyncCounter struct {
	mu sync.Mutex
	n  map[string]int
	// failKey makes every fsync of that log fail.
	failKey string
}

func (c *fsyncCounter) hook(op, key string) error {
	if op != wal.OpFileSync {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if key == c.failKey {
		return errors.New("fsync: input/output error")
	}
	if c.n == nil {
		c.n = make(map[string]int)
	}
	c.n[key]++
	return nil
}

// take returns the fsyncs counted on (reporter, stream) since the last
// take.
func (c *fsyncCounter) take() (rep, st int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, st = c.n["reporter"], c.n["stream"]
	c.n = nil
	return rep, st
}

// commitRig builds a Reporter journaling into dir/reporter and
// publishing to dir/stream, both reporting their fsyncs to c.
func commitRig(t *testing.T, dir string, sink Delivery, c *fsyncCounter) (*Reporter, *time.Time) {
	t.Helper()
	st, err := stream.Open(filepath.Join(dir, "stream"), stream.Options{Hook: c.hook})
	if err != nil {
		t.Fatalf("stream.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	l, err := wal.Open(filepath.Join(dir, "reporter"), wal.Options{Hook: c.hook})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	now := time.Date(2001, 5, 21, 9, 0, 0, 0, time.UTC)
	r := New(sink, WithClock(func() time.Time { return now }), WithWAL(l), WithStream(st))
	return r, &now
}

// TestGroupCommitBarriersPerDocument pins the gain as a count: a
// document costs two fsyncs when it fires reports (one on the journal,
// then one on the stream) and one when it only buffers, however many
// notifications it raises and however many reports it fires.
func TestGroupCommitBarriersPerDocument(t *testing.T) {
	var c fsyncCounter
	sink := &flakySink{}
	r, _ := commitRig(t, t.TempDir(), sink, &c)
	r.Register("A", reportEvery(6))
	r.Register("B", reportEvery(6))
	r.Register("Quiet", reportEvery(1000))

	var firing, quiet []Notification
	for i := 0; i < 12; i++ {
		firing = append(firing, Notification{Subscription: "AB"[i%2 : i%2+1], Label: "l", Element: elem(fmt.Sprint("f", i))})
		quiet = append(quiet, Notification{Subscription: "Quiet", Label: "l", Element: elem(fmt.Sprint("q", i))})
	}
	r.NotifyBatch(firing)
	if len(sink.sent) != 2 {
		t.Fatalf("12 notifications over two count-6 subscriptions fired %d reports, want 2", len(sink.sent))
	}
	if rep, st := c.take(); rep != 1 || st != 1 {
		t.Errorf("N=12, R=2: %d fsyncs on reporter/ and %d on stream/, want 1 and 1", rep, st)
	}

	r.NotifyBatch(quiet)
	if rep, st := c.take(); rep != 1 || st != 0 {
		t.Errorf("a batch that fires nothing: %d fsyncs on reporter/ and %d on stream/, want 1 and 0", rep, st)
	}
	r.Notify(Notification{Subscription: "Quiet", Label: "l", Element: elem("one more")})
	if rep, st := c.take(); rep != 1 || st != 0 {
		t.Errorf("a single buffered Notify: %d fsyncs on reporter/ and %d on stream/, want 1 and 0", rep, st)
	}
	r.Notify(Notification{Subscription: "nobody", Label: "l"})
	if rep, st := c.take(); rep != 0 || st != 0 {
		t.Errorf("a notification nobody takes journals nothing, yet cost %d + %d fsyncs", rep, st)
	}
	if n := r.JournalErrors(); n != 0 {
		t.Errorf("JournalErrors = %d", n)
	}
}

// TestGroupCommitTickBarriers: a Tick that fires K reports with nothing
// to retry costs 1 + 1 fsyncs for every K.
func TestGroupCommitTickBarriers(t *testing.T) {
	daily := &sublang.ReportSpec{When: []sublang.ReportTerm{{Kind: sublang.TermPeriodic, Freq: sublang.Daily}}}
	for _, k := range []int{1, 5} {
		var c fsyncCounter
		sink := &flakySink{}
		r, now := commitRig(t, t.TempDir(), sink, &c)
		for i := 0; i < k; i++ {
			sub := fmt.Sprint("P", i)
			r.Register(sub, daily)
			r.Notify(Notification{Subscription: sub, Label: "l", Element: elem(sub)})
		}
		c.take()
		r.Tick() // nothing due: nothing journaled, nothing to commit
		if rep, st := c.take(); rep != 0 || st != 0 {
			t.Errorf("K=%d: an idle Tick cost %d + %d fsyncs", k, rep, st)
		}
		*now = now.Add(25 * time.Hour)
		r.Tick()
		if len(sink.sent) != k {
			t.Fatalf("K=%d: Tick fired %d reports", k, len(sink.sent))
		}
		if rep, st := c.take(); rep != 1 || st != 1 {
			t.Errorf("K=%d: Tick cost %d fsyncs on reporter/ and %d on stream/, want 1 and 1", k, rep, st)
		}
	}
}

// TestDoneRidesNextBarrier: the done records a call writes are not
// synced by that call. They become durable with the next reporter/
// barrier at no extra fsync — the next call's barrier (1), a Tick that
// fires nothing, or Close.
func TestDoneRidesNextBarrier(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "reporter", wal.SegmentFileName(1))
	var c fsyncCounter
	var synced int64 // how far into seg the last reporter/ fsync reached
	hook := func(op, key string) error {
		if op == wal.OpFileSync && key == "reporter" {
			fi, err := os.Stat(seg)
			if err != nil {
				return err
			}
			synced = fi.Size()
		}
		return c.hook(op, key)
	}
	st, err := stream.Open(filepath.Join(dir, "stream"), stream.Options{Hook: hook})
	if err != nil {
		t.Fatalf("stream.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	l, err := wal.Open(filepath.Join(dir, "reporter"), wal.Options{Hook: hook})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	sink := &flakySink{}
	r := New(sink, WithWAL(l), WithStream(st))
	r.Register("S", nil)
	// dones counts the done records written to seg and those of them the
	// last fsync covered.
	dones := func() (written, durable int) {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); {
			payload, size, err := wal.Binary{}.Next(data[off:])
			if err != nil {
				t.Fatalf("frame at byte %d: %v", off, err)
			}
			var rec walRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				t.Fatal(err)
			}
			off += size
			if rec.T == "done" {
				written++
				if off <= int(synced) {
					durable++
				}
			}
		}
		return written, durable
	}
	step := func(what string, call func(), wantRep, wantSt, wantWritten, wantDurable int) {
		t.Helper()
		call()
		if rep, st := c.take(); rep != wantRep || st != wantSt {
			t.Errorf("%s: %d fsyncs on reporter/ and %d on stream/, want %d and %d", what, rep, st, wantRep, wantSt)
		}
		if w, d := dones(); w != wantWritten || d != wantDurable {
			t.Errorf("%s: %d done records written, %d durable; want %d and %d", what, w, d, wantWritten, wantDurable)
		}
	}
	notify := func() { r.Notify(Notification{Subscription: "S", Label: "l", Element: elem("x")}) }

	step("call 1", notify, 1, 1, 1, 0)
	step("call 2: its barrier (1) covers call 1's done", notify, 1, 1, 2, 1)
	step("an idle Tick", r.Tick, 1, 0, 2, 2)
	step("a second idle Tick", r.Tick, 0, 0, 2, 2)
	step("call 3", notify, 1, 1, 3, 2)
	step("Close", func() {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}, 1, 0, 3, 3)
	if len(sink.sent) != 3 || r.JournalErrors() != 0 {
		t.Errorf("%d reports delivered, %d journal errors; want 3 and 0", len(sink.sent), r.JournalErrors())
	}
}

// TestFailedBarrierDegradesLikeFailedAppend: when the journal's fsync
// fails the barrier is counted in JournalErrors and the document goes on
// — published, delivered — on in-memory state, as a failed append does.
func TestFailedBarrierDegradesLikeFailedAppend(t *testing.T) {
	c := fsyncCounter{failKey: "reporter"}
	sink := &flakySink{}
	r, _ := commitRig(t, t.TempDir(), sink, &c)
	r.Register("S", nil)
	r.Notify(Notification{Subscription: "S", Label: "l", Element: elem("through")})
	if n := r.JournalErrors(); n == 0 {
		t.Error("failed commit barriers were not counted in JournalErrors")
	}
	if len(sink.sent) != 1 {
		t.Fatalf("delivery stopped at a failed barrier: %d reports sent", len(sink.sent))
	}
	if pub, errs := r.StreamStats(); pub != 1 || errs != 0 {
		t.Errorf("stream after a failed journal barrier: %d published, %d errors", pub, errs)
	}
}

// TestRecoverAtEveryFrameOfABatch is the power-loss property of group
// commit: the frames of one document's batch are all written before the
// first barrier, so a power loss may keep any prefix of them. Whatever
// the prefix — cut at each frame boundary and inside each frame —
// Recover must come back to a state the run legally passed through:
// each buffer holds, in order, the notifications journaled since its
// last fired record, and every report fired without a done is on the
// retry queue, delivered by the next Tick.
func TestRecoverAtEveryFrameOfABatch(t *testing.T) {
	register := func(r *Reporter) {
		r.Register("Imm", nil)
		r.Register("Fol", nil)
		if err := r.Follow("Fol", "Imm"); err != nil {
			t.Fatal(err)
		}
		r.Register("Cnt", reportEvery(3))
		r.Register("Buf", reportEvery(100))
	}
	dir := t.TempDir()
	r1, _ := durableRig(t, filepath.Join(dir, "reporter"), &flakySink{})
	register(r1)
	// History before the document: two buffered notifications.
	r1.Notify(Notification{Subscription: "Buf", Label: "l", Element: elem("b0")})
	r1.Notify(Notification{Subscription: "Cnt", Label: "l", Element: elem("c0")})
	const history = 2
	// The document: buffers, a count report and two immediate reports
	// with a follower copy each.
	var batch []Notification
	for _, n := range [][2]string{{"Buf", "b1"}, {"Cnt", "c1"}, {"Imm", "i0"}, {"Buf", "b2"}, {"Cnt", "c2"}, {"Imm", "i1"}} {
		batch = append(batch, Notification{Subscription: n[0], Label: "l", Element: elem(n[1])})
	}
	r1.NotifyBatch(batch)

	data, err := os.ReadFile(filepath.Join(dir, "reporter", wal.SegmentFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	var recs []walRecord
	var ends []int // ends[i] is the byte offset where frame i ends
	for off := 0; off < len(data); {
		payload, size, err := wal.Binary{}.Next(data[off:])
		if err != nil {
			t.Fatalf("frame at byte %d: %v", off, err)
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
		off += size
		ends = append(ends, off)
	}
	// 6 notif + 5 fired (Cnt, and Imm + its follower twice) + 5 done.
	if len(recs) != history+16 {
		t.Fatalf("journal holds %d records, want %d", len(recs), history+16)
	}

	for k := history; k <= len(recs); k++ {
		cuts := []int{ends[k-1]}
		if k < len(recs) {
			cuts = append(cuts, ends[k-1]+5) // a torn frame k keeps the same prefix
		}
		// The state the run had once record k-1 was applied.
		buffers := make(map[string][]string)
		outstanding := make(map[uint64]bool)
		var maxID uint64
		for _, rec := range recs[:k] {
			switch rec.T {
			case "notif":
				buffers[rec.Sub] = append(buffers[rec.Sub], rec.XML)
			case "fired":
				delete(buffers, rec.Origin)
				outstanding[rec.ID] = true
				maxID = max(maxID, rec.ID)
			case "done":
				delete(outstanding, rec.ID)
			}
		}
		for _, cut := range cuts {
			name := fmt.Sprintf("records=%d/bytes=%d", k, cut)
			dir2 := filepath.Join(t.TempDir(), "reporter")
			if err := os.MkdirAll(dir2, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir2, wal.SegmentFileName(1)), data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			sink := &flakySink{}
			r2, now := durableRig(t, dir2, sink)
			register(r2)
			if err := r2.Recover(); err != nil {
				t.Fatalf("%s: Recover: %v", name, err)
			}
			for _, sub := range []string{"Imm", "Fol", "Cnt", "Buf"} {
				if got := r2.Buffered(sub); got != len(buffers[sub]) {
					t.Errorf("%s: %s recovered %d buffered notifications, the run had %d", name, sub, got, len(buffers[sub]))
				}
			}
			if got := r2.RetryPending(); got != len(outstanding) {
				t.Errorf("%s: %d reports back on the retry queue, %d were fired without a done", name, got, len(outstanding))
			}
			*now = now.Add(time.Second)
			r2.Tick()
			if got := r2.RetryPending(); got != 0 {
				t.Errorf("%s: retry queue holds %d after the recovery Tick", name, got)
			}
			// The Tick redelivers the outstanding reports and reports each
			// recovered buffer — whose content must be exactly the
			// journaled prefix, in order. Reports built after recovery
			// carry ids above every journaled one.
			fresh := make(map[string]*Report)
			for _, rep := range sink.sent {
				if rep.walID > maxID {
					fresh[rep.Subscription] = rep
				}
			}
			pending := len(buffers)
			if len(buffers["Imm"]) > 0 {
				pending++ // its follower's copy
			}
			for sub, want := range buffers {
				rep := fresh[sub]
				if rep == nil {
					t.Errorf("%s: %s's recovered buffer was never reported", name, sub)
					continue
				}
				var got []string
				for _, ch := range rep.Doc.Children {
					got = append(got, ch.XML())
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: %s's recovered buffer reported %v, journaled prefix is %v", name, sub, got, want)
				}
			}
			if want := len(outstanding) + pending; len(sink.sent) != want {
				t.Errorf("%s: recovery Tick delivered %d reports, want %d redelivered + %d from buffers",
					name, len(sink.sent), len(outstanding), pending)
			}
		}
	}
}
