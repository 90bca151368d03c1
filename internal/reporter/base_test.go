package reporter

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"xymon/internal/stream"
)

// openBase opens a Reporter journaling into the stream log at dir. The
// log is closed when the test ends, if the test has not closed it.
func openBase(t *testing.T, dir string, o stream.Options) (*Reporter, *stream.Log) {
	t.Helper()
	l, err := stream.Open(dir, o)
	if err != nil {
		t.Fatalf("stream.Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return New(nil, WithWAL(l)), l
}

// subscribe registers name with an immediate report and journals it.
func subscribe(t *testing.T, r *Reporter, name string) {
	t.Helper()
	if err := r.Persist(r.Register(name, nil), "subscription "+name); err != nil {
		t.Fatalf("Persist(%s): %v", name, err)
	}
}

// recoverBase recovers r, registering the base it is handed, and returns
// the names in the order they came.
func recoverBase(t *testing.T, r *Reporter) []string {
	t.Helper()
	var got []string
	err := r.Recover(func(name, src string) error {
		if src != "subscription "+name {
			t.Errorf("%s recovered with source %q", name, src)
		}
		got = append(got, name)
		r.Register(name, nil) // the Reporter holds none of its locks here
		return nil
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return got
}

// TestBaseRoundTrip: the sub and unsub records bring back the base the
// journal ends with, in registration order, and a recovered subscription
// is in the journaled base again — its removal is journaled too.
func TestBaseRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, l := openBase(t, dir, stream.Options{})
	for _, name := range []string{"z", "a", "m"} {
		subscribe(t, r, name)
	}
	if err := r.Unregister("a"); err != nil {
		t.Fatal(err)
	}
	l.Close()

	r, l = openBase(t, dir, stream.Options{})
	if got := recoverBase(t, r); !slices.Equal(got, []string{"z", "m"}) {
		t.Fatalf("recovered base %v, want [z m]", got)
	}
	if err := r.Unregister("z"); err != nil {
		t.Fatal(err)
	}
	subscribe(t, r, "a")
	l.Close()

	r, _ = openBase(t, dir, stream.Options{})
	if got := recoverBase(t, r); !slices.Equal(got, []string{"m", "a"}) {
		t.Fatalf("recovered base %v, want [m a]", got)
	}
}

// TestBaseCheckpointPlusTail: a checkpoint's snapshot holds the base in
// registration order, not by name, and recovery replays the tail after
// it; a subscription that left before the checkpoint is gone from both.
func TestBaseCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	r, l := openBase(t, dir, stream.Options{})
	for _, name := range []string{"z", "m", "b"} {
		subscribe(t, r, name)
	}
	if err := r.Unregister("m"); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	subscribe(t, r, "a")
	l.Close()

	want := []string{"z", "b", "a"}
	for range 2 { // the second round recovers a snapshot of a recovered base
		r, l = openBase(t, dir, stream.Options{})
		if got := recoverBase(t, r); !slices.Equal(got, want) {
			t.Fatalf("recovered base %v, want %v", got, want)
		}
		if err := r.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
}

// TestRecoverBaseTwiceIsIdempotent: recovering the same journal twice
// hands the same base in the same order, doubles no buffer, and restores
// the retry and dead-letter queues rather than appending to them — one
// dead letter stays one, and an outstanding report is delivered once.
func TestRecoverBaseTwiceIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	// The sink is down: z's first report dead-letters after its two
	// attempts, its second stays outstanding on the retry queue.
	r, now := durableRig(t, dir, &flakySink{failN: 1 << 30}, WithRetryPolicy(2, time.Minute, time.Minute))
	subscribe(t, r, "z")
	if err := r.Persist(r.Register("a", reportEvery(5)), "subscription a"); err != nil {
		t.Fatal(err)
	}
	r.Notify(Notification{Subscription: "a", Label: "l", Element: elem("x")})
	r.Notify(Notification{Subscription: "z", Label: "l", Element: elem("dead")})
	*now = now.Add(time.Hour)
	r.Tick()
	r.Notify(Notification{Subscription: "z", Label: "l", Element: elem("owed")})
	if st := r.Stats(); st.DeadLetters != 1 || st.RetryPending != 1 {
		t.Fatalf("before the restart: %d dead letters, %d pending; want 1 and 1", st.DeadLetters, st.RetryPending)
	}
	r.log.Close()

	sink := &flakySink{}
	r, now = durableRig(t, dir, sink)
	var got []string
	register := func(name, _ string) error {
		got = append(got, name)
		r.Register(name, reportEvery(5))
		return nil
	}
	for range 2 {
		if err := r.Recover(register); err != nil {
			t.Fatalf("Recover: %v", err)
		}
	}
	if want := []string{"z", "a", "z", "a"}; !slices.Equal(got, want) {
		t.Fatalf("handed %v over two recoveries, want %v", got, want)
	}
	if n := r.Buffered("a"); n != 1 {
		t.Errorf("buffer after double recovery = %d, want 1", n)
	}
	if st := r.Stats(); len(r.DeadLetters()) != 1 || st.DeadLetters != 1 || st.DeadLettered != 1 || st.RetryPending != 1 {
		t.Errorf("after double recovery: %d dead letters (queue length %d, DeadLettered %d), %d pending; want 1 each",
			len(r.DeadLetters()), st.DeadLetters, st.DeadLettered, st.RetryPending)
	}
	*now = now.Add(time.Second)
	r.Tick()
	owed := 0
	for _, rep := range sink.sent {
		if rep.Subscription == "z" {
			owed++
		}
	}
	if owed != 1 {
		t.Errorf("the outstanding report was delivered %d times after double recovery, want once", owed)
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r.log.Close()
	r, _ = openBase(t, dir, stream.Options{})
	if got := recoverBase(t, r); !slices.Equal(got, []string{"z", "a"}) {
		t.Fatalf("base after double recovery and a checkpoint %v, want [z a]", got)
	}
}

// TestRecoverRefusesUnparsableRecord: an intact frame that does not
// parse is damage, not a crash artifact — the CRC held, so the writer
// wrote it — and recovery refuses it rather than drop a record of the
// base.
func TestRecoverRefusesUnparsableRecord(t *testing.T) {
	dir := t.TempDir()
	r, l := openBase(t, dir, stream.Options{})
	subscribe(t, r, "a")
	if err := l.Write([]byte("garbage")); err != nil {
		t.Fatal(err)
	}
	subscribe(t, r, "b")
	l.Close()

	r, _ = openBase(t, dir, stream.Options{})
	if err := r.Recover(func(string, string) error { return nil }); err == nil || !strings.Contains(err.Error(), "corrupt journal record") {
		t.Fatalf("Recover over an unparsable record = %v, want a corrupt-record error", err)
	}
}

// TestRecoverRefusesUnknownKind: a well-formed record of a kind this
// build does not write may carry state it cannot restore, so recovery
// refuses it instead of stepping over it.
func TestRecoverRefusesUnknownKind(t *testing.T) {
	dir := t.TempDir()
	r, l := openBase(t, dir, stream.Options{})
	subscribe(t, r, "a")
	if err := l.Write([]byte(`{"t":"resub","sub":"a"}`)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	r, _ = openBase(t, dir, stream.Options{})
	if err := r.Recover(func(string, string) error { return nil }); err == nil || !strings.Contains(err.Error(), `unknown kind "resub"`) {
		t.Fatalf("Recover over an unknown record kind = %v, want an unknown-kind error", err)
	}
}

// TestSubscribeBesideCheckpoint holds the journal invariant under
// concurrency: workers subscribe and unsubscribe beside a Checkpoint
// loop, and after each restart the base is exactly the subscriptions
// whose last Persist or Unregister returned nil. A Persist or Unregister
// that wrote its record and changed the base in two critical sections
// fails it within ten runs under the race detector: a checkpoint between
// the two puts the record and the base on opposite sides of its boundary.
func TestSubscribeBesideCheckpoint(t *testing.T) {
	const workers, names, ops, restarts = 4, 6, 40, 3
	dir := t.TempDir()
	live := make([]map[string]bool, workers)
	for w := range live {
		live[w] = make(map[string]bool)
	}
	for round := range restarts + 1 {
		r, l := openBase(t, dir, stream.Options{SegmentBytes: 512})
		got := recoverBase(t, r)
		var want []string
		for _, m := range live {
			for name, ok := range m {
				if ok {
					want = append(want, name)
				}
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("restart %d: recovered base %v, want %v", round, got, want)
		}
		if round == restarts {
			break
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		var stopOnce sync.Once
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := r.Checkpoint(); err != nil {
					t.Errorf("Checkpoint: %v", err)
					return
				}
			}
		}()
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// The last checkpoint lands beside the others' Persist
				// and Unregister calls, not after them.
				defer stopOnce.Do(func() { close(stop) })
				rng := rand.New(rand.NewPCG(uint64(round), uint64(w)))
				for range ops {
					name := fmt.Sprintf("w%d-%d", w, rng.IntN(names))
					if live[w][name] {
						if err := r.Unregister(name); err != nil {
							t.Errorf("Unregister(%s): %v", name, err)
							return
						}
						live[w][name] = false
						continue
					}
					if err := r.Persist(r.Register(name, nil), "subscription "+name); err != nil {
						t.Errorf("Persist(%s): %v", name, err)
						return
					}
					live[w][name] = true
					r.Notify(Notification{Subscription: name, Label: "l", Element: elem(name)})
				}
			}()
		}
		wg.Wait()
		<-done
		if t.Failed() {
			return
		}
		l.Close()
	}
}

// TestBaseFramesKeepStreamOffsets: sub and unsub records are owner
// frames between the fired batches, so they move no consumer's offset —
// a report's offset counts reports only, before and after a restart.
func TestBaseFramesKeepStreamOffsets(t *testing.T) {
	dir := t.TempDir()
	r, l := openBase(t, dir, stream.Options{})
	subscribe(t, r, "S")
	report := func() { r.Notify(Notification{Subscription: "S", Label: "l", Element: elem("x")}) }
	report() // offset 0
	subscribe(t, r, "T")
	report() // offset 1
	if err := r.Unregister("T"); err != nil {
		t.Fatal(err)
	}
	report() // offset 2
	rd, err := stream.OpenReader(dir, "c", stream.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	poll := func(want ...uint64) {
		t.Helper()
		recs, err := rd.Poll(0)
		if err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for _, rec := range recs {
			if rec.Subscription != "S" {
				t.Errorf("record %d is for %q", rec.Offset, rec.Subscription)
			}
			got = append(got, rec.Offset)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("polled offsets %v, want %v", got, want)
		}
	}
	poll(0, 1, 2)
	rd.Seek(1) // a cursor parked between a sub and an unsub frame
	poll(1, 2)
	if err := rd.Commit(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	r, _ = openBase(t, dir, stream.Options{})
	if got := recoverBase(t, r); !slices.Equal(got, []string{"S"}) {
		t.Fatalf("recovered base %v, want [S]", got)
	}
	subscribe(t, r, "U")
	report()
	poll(3)
}

// TestLaggingConsumerKeepsUnsubscribedGone: a consumer lagging at the
// StreamMaxBehind floor pins the segments from before a checkpoint that
// hold a sub and an unsub of one name, while the segment holding the
// base's first sub record is compacted away. After a restart the base is
// whole and the name stays gone: it comes from the checkpoint's
// snapshot, not from the segments the consumer pins.
func TestLaggingConsumerKeepsUnsubscribedGone(t *testing.T) {
	const reports, lag = 8, 6
	dir := t.TempDir()
	o := stream.Options{SegmentBytes: 256, MaxBehind: lag}
	r, l := openBase(t, dir, o)
	rd, err := stream.OpenReader(dir, "lag", stream.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	subscribe(t, r, "S")
	for i := range reports {
		switch i {
		case reports - lag:
			// The consumer reads what came so far and parks at the floor.
			if recs, err := rd.Poll(0); err != nil || len(recs) != i {
				t.Fatalf("consumer polled %d records, %v; want %d", len(recs), err, i)
			}
			if err := rd.Commit(); err != nil {
				t.Fatal(err)
			}
			subscribe(t, r, "X")
		case reports - 2:
			if err := r.Unregister("X"); err != nil {
				t.Fatal(err)
			}
		}
		r.Notify(Notification{Subscription: "S", Label: "l", Element: elem("x")})
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	var pinned strings.Builder
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		pinned.Write(data)
	}
	for rec, want := range map[string]bool{`"t":"sub","sub":"S"`: false, `"t":"sub","sub":"X"`: true, `"t":"unsub","sub":"X"`: true} {
		if strings.Contains(pinned.String(), rec) != want {
			t.Fatalf("the retained segments hold the record %s: %v, want %v", rec, !want, want)
		}
	}
	r, _ = openBase(t, dir, o)
	if got := recoverBase(t, r); !slices.Equal(got, []string{"S"}) {
		t.Fatalf("recovered base %v, want [S]", got)
	}
	recs, err := rd.Poll(1)
	if err != nil || len(recs) != 1 || recs[0].Offset != reports-lag {
		t.Fatalf("the lagging consumer reads %v, %v; want offset %d", recs, err, reports-lag)
	}
}
