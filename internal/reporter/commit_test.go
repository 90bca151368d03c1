package reporter

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xymon/internal/stream"
	"xymon/internal/sublang"
	"xymon/internal/wal"
)

// fsyncCounter counts wal.file.sync per log key — the fsyncs a document
// actually paid, on the reporter journal and anywhere else.
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

// take returns the fsyncs counted on the reporter journal and on any
// other key since the last take.
func (c *fsyncCounter) take() (rep, other int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, n := range c.n {
		if key == "reporter" {
			rep += n
		} else {
			other += n
		}
	}
	c.n = nil
	return rep, other
}

// commitRig builds a Reporter journaling into dir/reporter — the log
// whose fired batches are the change-stream — with its fsyncs counted
// by c.
func commitRig(t *testing.T, dir string, sink Delivery, c *fsyncCounter) (*Reporter, *time.Time) {
	t.Helper()
	l, err := stream.Open(filepath.Join(dir, "reporter"), stream.Options{Hook: c.hook})
	if err != nil {
		t.Fatalf("stream.Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	now := time.Date(2001, 5, 21, 9, 0, 0, 0, time.UTC)
	r := New(sink, WithClock(func() time.Time { return now }), WithWAL(l))
	return r, &now
}

// TestGroupCommitBarriersPerDocument pins the gain as a count: a
// document costs one fsync, whether it fires reports or only buffers,
// however many notifications it raises and however many reports it
// fires — the fired records are the stream, so publishing them costs no
// second barrier.
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
	if rep, other := c.take(); rep != 1 || other != 0 {
		t.Errorf("N=12, R=2: %d fsyncs on reporter/ and %d elsewhere, want 1 and 0", rep, other)
	}
	if got := r.log.Stats().Next; got != 2 {
		t.Errorf("the stream holds %d records after two reports fired", got)
	}

	r.NotifyBatch(quiet)
	if rep, other := c.take(); rep != 1 || other != 0 {
		t.Errorf("a batch that fires nothing: %d fsyncs on reporter/ and %d elsewhere, want 1 and 0", rep, other)
	}
	r.Notify(Notification{Subscription: "Quiet", Label: "l", Element: elem("one more")})
	if rep, other := c.take(); rep != 1 || other != 0 {
		t.Errorf("a single buffered Notify: %d fsyncs on reporter/ and %d elsewhere, want 1 and 0", rep, other)
	}
	r.Notify(Notification{Subscription: "nobody", Label: "l"})
	if rep, other := c.take(); rep != 0 || other != 0 {
		t.Errorf("a notification nobody takes journals nothing, yet cost %d + %d fsyncs", rep, other)
	}
	if n := r.Stats().JournalErrors; n != 0 {
		t.Errorf("JournalErrors = %d", n)
	}
}

// TestGroupCommitTickBarriers: a Tick that fires K reports with nothing
// to retry costs one fsync for every K.
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
		if rep, other := c.take(); rep != 0 || other != 0 {
			t.Errorf("K=%d: an idle Tick cost %d + %d fsyncs", k, rep, other)
		}
		*now = now.Add(25 * time.Hour)
		r.Tick()
		if len(sink.sent) != k {
			t.Fatalf("K=%d: Tick fired %d reports", k, len(sink.sent))
		}
		if rep, other := c.take(); rep != 1 || other != 0 {
			t.Errorf("K=%d: Tick cost %d fsyncs on reporter/ and %d elsewhere, want 1 and 0", k, rep, other)
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
	l, err := stream.Open(filepath.Join(dir, "reporter"), stream.Options{Hook: hook})
	if err != nil {
		t.Fatalf("stream.Open: %v", err)
	}
	sink := &flakySink{}
	r := New(sink, WithWAL(l))
	r.Register("S", nil)
	// dones counts the done records written to seg and those of them the
	// last fsync covered.
	dones := func() (written, durable int) {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range readFrames(t, data) {
			if f.rec.T == "done" {
				written++
				if f.end <= int(synced) {
					durable++
				}
			}
		}
		return written, durable
	}
	step := func(what string, call func(), wantRep, wantWritten, wantDurable int) {
		t.Helper()
		call()
		if rep, other := c.take(); rep != wantRep || other != 0 {
			t.Errorf("%s: %d fsyncs on reporter/ and %d elsewhere, want %d and 0", what, rep, other, wantRep)
		}
		if w, d := dones(); w != wantWritten || d != wantDurable {
			t.Errorf("%s: %d done records written, %d durable; want %d and %d", what, w, d, wantWritten, wantDurable)
		}
	}
	notify := func() { r.Notify(Notification{Subscription: "S", Label: "l", Element: elem("x")}) }

	step("call 1", notify, 1, 1, 0)
	step("call 2: its barrier (1) covers call 1's done", notify, 1, 2, 1)
	step("an idle Tick", r.Tick, 1, 2, 2)
	step("a second idle Tick", r.Tick, 0, 2, 2)
	step("call 3", notify, 1, 3, 2)
	step("Close", func() {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}, 1, 3, 3)
	if len(sink.sent) != 3 || r.Stats().JournalErrors != 0 {
		t.Errorf("%d reports delivered, %d journal errors; want 3 and 0", len(sink.sent), r.Stats().JournalErrors)
	}
}

// TestFailedBarrierDegradesLikeFailedAppend: when the journal's fsync
// fails the barrier is counted in JournalErrors and the document goes on
// — written to the stream, delivered — on in-memory state, as a failed
// append does.
func TestFailedBarrierDegradesLikeFailedAppend(t *testing.T) {
	c := fsyncCounter{failKey: "reporter"}
	sink := &flakySink{}
	r, _ := commitRig(t, t.TempDir(), sink, &c)
	r.Register("S", nil)
	r.Notify(Notification{Subscription: "S", Label: "l", Element: elem("through")})
	if n := r.Stats().JournalErrors; n == 0 {
		t.Error("failed commit barriers were not counted in JournalErrors")
	}
	if len(sink.sent) != 1 {
		t.Fatalf("delivery stopped at a failed barrier: %d reports sent", len(sink.sent))
	}
	if got := r.log.Stats().Records; got != 1 {
		t.Errorf("stream after a failed journal barrier: %d records written, want 1", got)
	}
}

// journalFrame is one frame of a reporter journal: a JSON record, or a
// fired batch with its reports' stream records. end is the byte offset
// where the frame ends.
type journalFrame struct {
	rec   walRecord
	fired []stream.Record
	end   int
}

// readFrames decodes a reporter segment frame by frame. A fired batch is
// 'S', version, base offset (uint64), count (uint32), then each record
// as a uint32 length and its JSON; record i's offset is base+i.
func readFrames(t *testing.T, data []byte) []journalFrame {
	t.Helper()
	var out []journalFrame
	for off := 0; off < len(data); {
		payload, size, err := wal.Binary{}.Next(data[off:])
		if err != nil {
			t.Fatalf("frame at byte %d: %v", off, err)
		}
		off += size
		f := journalFrame{end: off}
		if payload[0] != 'S' {
			if err := json.Unmarshal(payload, &f.rec); err != nil {
				t.Fatal(err)
			}
			out = append(out, f)
			continue
		}
		f.rec.T = "fired"
		base := binary.LittleEndian.Uint64(payload[2:10])
		for rest := payload[14:]; len(rest) > 0; {
			n := binary.LittleEndian.Uint32(rest)
			rec := stream.Record{Offset: base + uint64(len(f.fired))}
			if err := json.Unmarshal(rest[4:4+n], &rec); err != nil {
				t.Fatal(err)
			}
			f.fired = append(f.fired, rec)
			rest = rest[4+n:]
		}
		out = append(out, f)
	}
	return out
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
	frames := readFrames(t, data)
	// 6 notif + 3 fired batches (Cnt's, and Imm's with its follower's
	// copy, twice) + 5 done.
	if len(frames) != history+14 {
		t.Fatalf("journal holds %d frames, want %d", len(frames), history+14)
	}

	for k := history; k <= len(frames); k++ {
		cuts := []int{frames[k-1].end}
		if k < len(frames) {
			cuts = append(cuts, frames[k-1].end+5) // a torn frame k keeps the same prefix
		}
		// The state the run had once frame k-1 was applied; next is the
		// first stream offset no journaled report holds.
		buffers := make(map[string][]string)
		outstanding := make(map[uint64]bool)
		var next uint64
		for _, f := range frames[:k] {
			switch rec := f.rec; rec.T {
			case "notif":
				buffers[rec.Sub] = append(buffers[rec.Sub], rec.XML)
			case "fired":
				for _, fr := range f.fired {
					delete(buffers, cmp.Or(fr.Origin, fr.Subscription))
					outstanding[fr.Offset] = true
					next = fr.Offset + 1
				}
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
			if err := r2.Recover(nil); err != nil {
				t.Fatalf("%s: Recover: %v", name, err)
			}
			for _, sub := range []string{"Imm", "Fol", "Cnt", "Buf"} {
				if got := r2.Buffered(sub); got != len(buffers[sub]) {
					t.Errorf("%s: %s recovered %d buffered notifications, the run had %d", name, sub, got, len(buffers[sub]))
				}
			}
			if got := r2.Stats().RetryPending; got != len(outstanding) {
				t.Errorf("%s: %d reports back on the retry queue, %d were fired without a done", name, got, len(outstanding))
			}
			*now = now.Add(time.Second)
			r2.Tick()
			if got := r2.Stats().RetryPending; got != 0 {
				t.Errorf("%s: retry queue holds %d after the recovery Tick", name, got)
			}
			// The Tick redelivers the outstanding reports and reports each
			// recovered buffer — whose content must be exactly the
			// journaled prefix, in order. Reports built after recovery
			// carry ids past every journaled one.
			fresh := make(map[string]*Report)
			for _, rep := range sink.sent {
				if rep.id >= next {
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

// TestReportIDsAreStreamOffsets: a report's id is the offset its fired
// record was written at, assigned under the log's lock, so ids follow
// log order even while stripes fire concurrently. Eight goroutines
// notify across stripes, virtual followers registered, every delivery
// failing into the dead-letter queue: a replay from offset 0 is
// contiguous and holds each fired report exactly once, and each dead
// letter's ID names its own report's offset. After a checkpoint and a
// recovery, numbering goes on from the head with no offset reused, and
// recovered dead letters keep their ids. CI repeats it under -race.
func TestReportIDsAreStreamOffsets(t *testing.T) {
	dir := t.TempDir()
	const workers, docs, subs = 8, 10, 16
	open := func() (*Reporter, *stream.Log) {
		l, err := stream.Open(dir, stream.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r := New(DeliveryFunc(func(*Report) error { return errors.New("sink down") }),
			WithRetryPolicy(1, time.Minute, time.Minute), WithDeadLetterCap(0), WithWAL(l))
		for i := 0; i < subs; i++ {
			r.Register(fmt.Sprint("S", i), nil)
		}
		for i := 0; i < subs; i += 4 {
			if err := r.Follow(fmt.Sprint("F", i), fmt.Sprint("S", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Recover(nil); err != nil {
			t.Fatal(err)
		}
		return r, l
	}
	// fire has every worker push docs batches of three notifications;
	// it returns how many records the reports they fire must take: one
	// each, two where a follower gets a copy.
	fire := func(r *Reporter, round int) uint64 {
		var wg sync.WaitGroup
		var want atomic.Uint64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for d := 0; d < docs; d++ {
					batch := make([]Notification, 3)
					for i := range batch {
						s := (w*3 + d + i*5) % subs
						batch[i] = Notification{Subscription: fmt.Sprint("S", s), Label: "l",
							Element: elem(fmt.Sprintf("r%d-w%d-d%d-n%d", round, w, d, i))}
						want.Add(1)
						if s%4 == 0 {
							want.Add(1) // F<s> follows S<s>
						}
					}
					r.NotifyBatch(batch)
				}
			}()
		}
		wg.Wait()
		return want.Load()
	}
	replayed := make(map[uint64]stream.Record)
	// check replays [from, head) and holds the dead letters to it.
	check := func(r *Reporter, from, want uint64) uint64 {
		t.Helper()
		rd, err := stream.OpenReader(dir, "check", stream.ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		rd.Seek(from)
		copies := make(map[[2]string]int)
		next := from
		for {
			recs, err := rd.Poll(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 {
				break
			}
			for _, rec := range recs {
				if rec.Offset != next {
					t.Fatalf("replay jumped from offset %d to %d", next, rec.Offset)
				}
				next++
				replayed[rec.Offset] = rec
				copies[[2]string{rec.Subscription, rec.XML}]++
			}
		}
		if next-from != want || uint64(len(copies)) != want {
			t.Fatalf("replay from %d: %d records, %d distinct reports; want %d fired", from, next-from, len(copies), want)
		}
		named := make(map[uint64]bool)
		for _, d := range r.DeadLetters() {
			rec, ok := replayed[d.ID()]
			if !ok || named[d.ID()] || rec.Subscription != d.Report.Subscription || rec.XML != d.Report.Doc.XML() {
				t.Fatalf("dead letter for %s (%s) names offset %d, which holds %+v", d.Report.Subscription, d.Report.Doc.XML(), d.ID(), rec)
			}
			named[d.ID()] = true
		}
		if uint64(len(named)) != next {
			t.Fatalf("%d dead letters name an offset, %d reports fired", len(named), next)
		}
		return next
	}

	r1, l1 := open()
	head := check(r1, 0, fire(r1, 1))
	if err := r1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	r2, l2 := open()
	defer l2.Close()
	if got := l2.Stats().Next; got != head {
		t.Fatalf("recovered head %d, the first incarnation ended at %d", got, head)
	}
	check(r2, head, fire(r2, 2))
	if n := r1.Stats().JournalErrors + r2.Stats().JournalErrors; n != 0 {
		t.Errorf("JournalErrors = %d", n)
	}
}
