package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xymon/internal/wal"
)

// batchFrame encodes recs as one batch at base, framed as the wal
// writes it.
func batchFrame(t testing.TB, base uint64, recs ...Record) []byte {
	t.Helper()
	enc := make([][]byte, len(recs))
	for i := range recs {
		b, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		enc[i] = b
	}
	frame, err := wal.Binary{}.AppendFrame(nil, appendBatch(nil, base, enc))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v %v", segs, err)
	}
	return filepath.Join(dir, wal.SegmentFileName(segs[len(segs)-1].idx))
}

// TestTailTornAndDamagedFrames appends a batch frame to the active
// segment one byte at a time with a Poll after each: nothing may surface
// until the last byte lands, then the whole batch exactly once. A
// complete frame with a flipped payload byte then fails the poll with
// wal.ErrCorrupt, rolling back Next past the intact batch the same pass
// had read ahead of it — on the tail and again on the re-list after it.
func TestTailTornAndDamagedFrames(t *testing.T) {
	dir := t.TempDir()
	l := openStream(t, dir, Options{})
	publishN(t, l, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := openReader(t, dir, "c", ReaderOptions{})
	if all := drain(t, r); len(all) != 3 {
		t.Fatalf("drained %d records, want 3", len(all))
	}

	f, err := os.OpenFile(activeSegment(t, dir), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frame := batchFrame(t, 3,
		Record{Subscription: "T", Time: t0, XML: "<a/>"},
		Record{Subscription: "U", Time: t0, XML: "<b/>"})
	for i := range frame {
		if _, err := f.Write(frame[i : i+1]); err != nil {
			t.Fatal(err)
		}
		recs, err := r.Poll(0)
		if err != nil {
			t.Fatalf("Poll with %d of %d bytes: %v", i+1, len(frame), err)
		}
		if i < len(frame)-1 {
			if len(recs) != 0 {
				t.Fatalf("%d records surfaced with %d of %d bytes written", len(recs), i+1, len(frame))
			}
			continue
		}
		if len(recs) != 2 || recs[0].Offset != 3 || recs[0].Subscription != "T" || recs[1].Offset != 4 || recs[1].XML != "<b/>" {
			t.Fatalf("completed batch polled as %+v", recs)
		}
	}
	if recs, err := r.Poll(0); len(recs) != 0 || err != nil {
		t.Fatalf("batch returned twice: %d records, %v", len(recs), err)
	}

	good := batchFrame(t, 5, Record{Subscription: "V", Time: t0})
	fixed := batchFrame(t, 6, Record{Subscription: "W", Time: t0, XML: "<damaged/>"})
	bad := append([]byte(nil), fixed...)
	bad[len(bad)-4] ^= 0x20
	if _, err := f.Write(append(good, bad...)); err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"tail", "re-list"} {
		if _, err := r.Poll(0); !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("%s: Poll over a damaged frame = %v, want wal.ErrCorrupt", pass, err)
		}
		if got := r.Next(); got != 5 {
			t.Fatalf("%s: Next = %d after the failed poll, want it rolled back to 5", pass, got)
		}
	}

	// Repaired in place, the frame reads back from the rolled-back
	// position: the failed passes consumed nothing.
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(st.Size() - int64(len(bad))); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(fixed); err != nil {
		t.Fatal(err)
	}
	recs, err := r.Poll(0)
	if err != nil || len(recs) != 2 || recs[0].Offset != 5 || recs[1].Subscription != "W" {
		t.Fatalf("after the repair: %+v, %v; want offsets 5 and 6", recs, err)
	}
}

// TestTailRelistsWhenSegmentShrinks: a held segment a poll finds cut
// below the reader's position from outside the writer is re-listed, so
// what is written after the cut reads like the rescan reads it, not
// from the stale byte offset in the middle of a frame.
func TestTailRelistsWhenSegmentShrinks(t *testing.T) {
	dir := t.TempDir()
	l := openStream(t, dir, Options{})
	publishN(t, l, 1)
	path := activeSegment(t, dir)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	publishN(t, l, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := openReader(t, dir, "c", ReaderOptions{})
	if all := drain(t, r); len(all) != 3 {
		t.Fatalf("drained %d records, want 3", len(all))
	}

	if err := os.Truncate(path, st.Size()); err != nil {
		t.Fatal(err)
	}
	if recs, err := r.Poll(0); len(recs) != 0 || err != nil {
		t.Fatalf("poll over the cut: %d records, %v", len(recs), err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	long := strings.Repeat("x", 200)
	if _, err := f.Write(batchFrame(t, 1,
		Record{Subscription: "A", Time: t0, XML: long},
		Record{Subscription: "B", Time: t0, XML: long},
		Record{Subscription: "C", Time: t0, XML: long})); err != nil {
		t.Fatal(err)
	}
	orc := &oracleReader{dir: dir, consumer: "c", next: r.Next()}
	want, werr := orc.Poll(DefaultMaxFetch)
	got, gerr := r.Poll(0)
	if gerr != nil || werr != nil || !sameRecords(got, want) || len(got) != 1 || got[0].Subscription != "C" {
		t.Fatalf("after the shrink: %+v, %v; rescan %+v, %v", got, gerr, want, werr)
	}
}

// TestPollBesidePublish runs one publisher and one tailing consumer
// concurrently over 256-byte segments, the publisher calling Checkpoint as
// it goes but never running more than MaxBehind ahead of the consumer:
// every record must arrive exactly once, in offset order, and no poll
// may report a truncation. Run under -race.
func TestPollBesidePublish(t *testing.T) {
	dir := t.TempDir()
	const total, maxBehind = 300, 40
	l := openStream(t, dir, Options{SegmentBytes: 256, MaxBehind: maxBehind})
	r := openReader(t, dir, "c", ReaderOptions{MaxFetch: 5})

	var consumed atomic.Uint64
	quit := make(chan struct{})
	defer close(quit)
	errc := make(chan error, 1)
	go func() {
		errc <- func() error {
			rng := rand.New(rand.NewPCG(7, 0))
			for next := uint64(0); next < total; {
				batch := make([]Record, min(1+rng.Uint64N(3), total-next))
				for next+uint64(len(batch))-consumed.Load() > maxBehind {
					select {
					case <-quit:
						return nil
					case <-time.After(50 * time.Microsecond):
					}
				}
				for i := range batch {
					batch[i] = Record{Subscription: "S", Time: t0, XML: fmt.Sprint(next + uint64(i))}
				}
				if _, err := l.Publish(batch); err != nil {
					return err
				}
				next += uint64(len(batch))
				if rng.IntN(5) == 0 {
					if _, err := checkpoint(l); err != nil {
						return err
					}
				}
			}
			return nil
		}()
	}()

	deadline := time.Now().Add(time.Minute)
	var next uint64
	for next < total {
		recs, err := r.Poll(0)
		if err != nil {
			t.Fatalf("Poll at %d (head %d, first retained %d): %v", next, l.Next(), l.Stats().FirstRetained, err)
		}
		for _, rec := range recs {
			if rec.Offset != next || rec.XML != fmt.Sprint(next) {
				t.Fatalf("record %d (%q) arrived where %d was due", rec.Offset, rec.XML, next)
			}
			next++
		}
		consumed.Store(next)
		if len(recs) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("stuck at %d of %d (head %d)", next, total, l.Next())
			}
			runtime.Gosched()
		} else if next%3 == 0 {
			if err := r.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("publisher: %v", err)
	}
	if recs, err := r.Poll(0); len(recs) != 0 || err != nil {
		t.Fatalf("after the last record: %d more, %v", len(recs), err)
	}
}

// TestPollCostIndependentOfSegmentSize pins what a poll costs once the
// reader is deep into a large active segment, owner frames between its
// batches as the reporter writes them: returning one new record behind
// a new owner frame allocates a few kilobytes however much of the
// segment lies behind the position (the rescan it replaced read the
// whole segment), and a caught-up poll allocates only its two path
// probes — the stat that checks the held segment is still the one on
// disk, and the failed open of the segment after it.
func TestPollCostIndependentOfSegmentSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector moves stack objects to the heap")
	}
	dir := t.TempDir()
	l := openStream(t, dir, Options{SegmentBytes: 8 << 20})
	batch := make([]Record, 64)
	for i := range batch {
		batch[i] = Record{Subscription: "S", Time: t0, Notifications: 1, XML: strings.Repeat("x", 1000)}
	}
	owner := ownerFrame(1000)
	for l.Next() < 1024 {
		for i := 0; i < 32; i++ {
			if err := l.Write(owner); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Publish(batch); err != nil {
			t.Fatal(err)
		}
	}
	r := openReader(t, dir, "c", ReaderOptions{})
	drain(t, r)
	if st := l.Stats(); st.Segments != 1 || r.pos < 3<<19 {
		t.Fatalf("want one active segment with over 1.5 MiB consumed: %d segments, position %d", st.Segments, r.pos)
	}

	if err := l.Write(owner); err != nil {
		t.Fatal(err)
	}
	publishN(t, l, 1)
	orc := &oracleReader{dir: dir, consumer: "c", next: r.Next()}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs, err := r.Poll(0)
	runtime.ReadMemStats(&after)
	if err != nil || len(recs) != 1 {
		t.Fatalf("Poll = %d records, %v; want the one new record", len(recs), err)
	}
	tailBytes := after.TotalAlloc - before.TotalAlloc
	runtime.ReadMemStats(&before)
	if recs, err := orc.Poll(DefaultMaxFetch); err != nil || len(recs) != 1 {
		t.Fatalf("oracle Poll = %d records, %v", len(recs), err)
	}
	runtime.ReadMemStats(&after)
	t.Logf("one new record after %d consumed bytes: tail %d B allocated, rescan %d B", r.pos, tailBytes, after.TotalAlloc-before.TotalAlloc)
	if tailBytes >= 8<<10 {
		t.Errorf("Poll of one new record allocated %d B, want under 8 KiB", tailBytes)
	}

	allocs := testing.AllocsPerRun(100, func() {
		if recs, err := r.Poll(0); len(recs) != 0 || err != nil {
			t.Fatalf("caught-up Poll = %d records, %v", len(recs), err)
		}
	})
	if allocs > 4 {
		t.Errorf("caught-up Poll allocates %v objects, want at most 4", allocs)
	}
}
