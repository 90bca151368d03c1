package stream

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"xymon/internal/wal"
)

var t0 = time.Date(2001, 5, 21, 9, 0, 0, 0, time.UTC)

func openStream(t *testing.T, dir string, o Options) *Log {
	t.Helper()
	l, err := Open(dir, o)
	if err != nil {
		t.Fatalf("stream.Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func publishN(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		rec := Record{Subscription: "S", Time: t0, Notifications: 1, XML: fmt.Sprintf("<r n=%q/>", fmt.Sprint(l.Stats().Next))}
		if _, err := l.Publish([]Record{rec}); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
}

// checkpoint checkpoints a log whose owner keeps no state of its own.
func checkpoint(l *Log) (uint64, error) {
	return l.Checkpoint(func(func([]byte) error) error { return nil })
}

// openReader opens a Reader closed when the test ends.
func openReader(t *testing.T, dir, consumer string, o ReaderOptions) *Reader {
	t.Helper()
	r, err := OpenReader(dir, consumer, o)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// drain polls everything available, asserting contiguous offsets from
// the reader's position.
func drain(t *testing.T, r *Reader) []Record {
	t.Helper()
	var all []Record
	for {
		recs, err := r.Poll(7)
		if err != nil {
			t.Fatalf("Poll: %v", err)
		}
		if len(recs) == 0 {
			return all
		}
		all = append(all, recs...)
	}
}

func TestPublishPollRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openStream(t, dir, Options{})
	base, err := l.Publish([]Record{
		{Subscription: "A", Time: t0, Notifications: 2, XML: "<a/>"},
		{Subscription: "B", Time: t0, Notifications: 1, XML: "<b/>"},
	})
	if err != nil || base != 0 {
		t.Fatalf("Publish = %d, %v", base, err)
	}
	publishN(t, l, 3)
	if got := l.Stats().Next; got != 5 {
		t.Fatalf("Next = %d, want 5", got)
	}

	r := openReader(t, dir, "c1", ReaderOptions{})
	all := drain(t, r)
	if len(all) != 5 {
		t.Fatalf("drained %d records, want 5", len(all))
	}
	for i, rec := range all {
		if rec.Offset != uint64(i) {
			t.Errorf("record %d has offset %d", i, rec.Offset)
		}
	}
	if all[0].Subscription != "A" || all[0].XML != "<a/>" || all[1].Subscription != "B" {
		t.Errorf("payload round-trip: %+v", all[:2])
	}
	if err := r.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := openReader(t, dir, "c1", ReaderOptions{}).Next(); got != 5 {
		t.Errorf("committed = %d, want 5", got)
	}
}

// TestReaderResumesFromCursor pins the crash-resume contract: a new
// Reader starts at the committed cursor, replaying anything polled but
// not committed — never skipping.
func TestReaderResumesFromCursor(t *testing.T) {
	dir := t.TempDir()
	l := openStream(t, dir, Options{})
	publishN(t, l, 10)

	r1 := openReader(t, dir, "c", ReaderOptions{})
	if recs, err := r1.Poll(4); err != nil || len(recs) != 4 {
		t.Fatalf("first poll: %d, %v", len(recs), err)
	}
	if err := r1.Commit(); err != nil {
		t.Fatal(err)
	}
	// Poll more but crash (drop the reader) before committing.
	if recs, err := r1.Poll(4); err != nil || len(recs) != 4 {
		t.Fatalf("second poll: %d, %v", len(recs), err)
	}

	r2 := openReader(t, dir, "c", ReaderOptions{})
	if got := r2.Next(); got != 4 {
		t.Fatalf("resumed at %d, want the committed 4", got)
	}
	all := drain(t, r2)
	if len(all) != 6 || all[0].Offset != 4 {
		t.Fatalf("replay = %d records from %d, want 6 from 4", len(all), all[0].Offset)
	}
}

// TestWriterRecoversOffsets: reopening the log continues offsets where
// the previous incarnation stopped, across segment rotations.
func TestWriterRecoversOffsets(t *testing.T) {
	dir := t.TempDir()
	l := openStream(t, dir, Options{SegmentBytes: 256})
	publishN(t, l, 20)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openStream(t, dir, Options{SegmentBytes: 256})
	if got := l2.Stats().Next; got != 20 {
		t.Fatalf("recovered Next = %d, want 20", got)
	}
	publishN(t, l2, 5)
	r := openReader(t, dir, "c", ReaderOptions{})
	if all := drain(t, r); len(all) != 25 || all[24].Offset != 24 {
		t.Fatalf("drained %d, last %d", len(all), all[len(all)-1].Offset)
	}
}

// TestRetentionTruncatesPastFloor drives the retention contract: the
// slowest cursor pins segments until it passes the MaxBehind floor;
// beyond it, segments go and the lagging consumer gets ErrTruncated
// with a working SeekOldest re-sync.
func TestRetentionTruncatesPastFloor(t *testing.T) {
	dir := t.TempDir()
	l := openStream(t, dir, Options{SegmentBytes: 256, MaxBehind: 10})

	// A consumer committed at 0 pins everything while within the floor.
	r := openReader(t, dir, "slow", ReaderOptions{})
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	publishN(t, l, 8)
	if first, err := checkpoint(l); err != nil || first != 0 {
		t.Fatalf("Checkpoint within floor = %d, %v; want 0 (cursor pins)", first, err)
	}

	// Push the head far past the floor: the cursor no longer pins.
	publishN(t, l, 40)
	first, err := checkpoint(l)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if first == 0 {
		t.Fatal("retention reclaimed nothing past the floor")
	}
	if min := l.Stats().Next - 10; first > min {
		t.Errorf("retention overshot the floor: first=%d, head=%d", first, l.Stats().Next)
	}

	if _, err := r.Poll(4); !errors.Is(err, ErrTruncated) {
		t.Fatalf("lagging poll error = %v, want ErrTruncated", err)
	}
	var te *TruncatedError
	if _, err := r.Poll(4); !errors.As(err, &te) || te.First != first {
		t.Fatalf("typed truncation detail = %v, want First=%d", err, first)
	}

	// Documented re-sync path.
	got, err := r.SeekOldest()
	if err != nil || got != first {
		t.Fatalf("SeekOldest = %d, %v; want %d", got, err, first)
	}
	all := drain(t, r)
	if uint64(len(all)) != l.Stats().Next-first {
		t.Fatalf("post-resync drain = %d records, want %d", len(all), l.Stats().Next-first)
	}
	for i, rec := range all {
		if rec.Offset != first+uint64(i) {
			t.Fatalf("post-resync offsets not contiguous at %d", i)
		}
	}
}

// TestRetentionSurvivesReopen: retained segments and the head offset
// survive a writer restart after retention reclaimed a prefix.
func TestRetentionSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l := openStream(t, dir, Options{SegmentBytes: 256, MaxBehind: 5})
	publishN(t, l, 30)
	first, err := checkpoint(l)
	if err != nil || first == 0 {
		t.Fatalf("Checkpoint = %d, %v", first, err)
	}
	// Checkpoint twice in a row: idempotent, no further reclaim possible.
	if again, err := checkpoint(l); err != nil || again != first {
		t.Fatalf("second Checkpoint = %d, %v; want %d", again, err, first)
	}
	l.Close()

	l2 := openStream(t, dir, Options{SegmentBytes: 256, MaxBehind: 5})
	if got := l2.Stats().Next; got != 30 {
		t.Fatalf("recovered Next = %d, want 30", got)
	}
	if got := l2.Stats().FirstRetained; got != first {
		t.Fatalf("recovered FirstRetained = %d, want %d", got, first)
	}
	r := openReader(t, dir, "c", ReaderOptions{})
	if _, err := r.Poll(1); !errors.Is(err, ErrTruncated) {
		t.Fatal("offset 0 should be truncated after reopen")
	}
}

// TestCursorTornCommitRecovers: a leftover cursor temp file (crash
// between write and rename) is discarded — recovery resumes from the
// previously committed offset.
func TestCursorTornCommitRecovers(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCursor(dir, "w", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(7); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn commit: temp written, rename never happened.
	tmp := filepath.Join(dir, "cursors", "w.cur.tmp")
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCursor(dir, "w", nil)
	if err != nil {
		t.Fatalf("OpenCursor over torn temp: %v", err)
	}
	if got := c2.Offset(); got != 7 {
		t.Fatalf("recovered offset = %d, want the committed 7", got)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("torn temp file survived recovery")
	}
}

// TestCursorCorruptionFailsLoudly: a damaged installed cursor must not
// silently reset the consumer to zero (which would re-deliver the
// world) — it fails loudly.
func TestCursorCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	c, _ := OpenCursor(dir, "w", nil)
	if err := c.Commit(9); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cursors", "w.cur")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCursor(dir, "w", nil); err == nil {
		t.Fatal("corrupt cursor opened silently")
	}
}

// TestHookGatesEverySeam: a failing hook blocks each operation at its
// named point, and the op names are what the crash harness arms.
func TestHookGatesEverySeam(t *testing.T) {
	dir := t.TempDir()
	var deny string
	var seen []string
	hook := func(op, key string) error {
		seen = append(seen, op)
		if op == deny {
			return errors.New("injected")
		}
		return nil
	}
	l, err := Open(dir, Options{Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	deny = OpAppend
	if _, err := l.Publish([]Record{{Subscription: "S"}}); err == nil {
		t.Error("publish survived a denied stream.append")
	}
	deny = ""
	if _, err := l.Publish([]Record{{Subscription: "S"}}); err != nil {
		t.Fatal(err)
	}

	r := openReader(t, dir, "c", ReaderOptions{Hook: hook})
	deny = OpRead
	if _, err := r.Poll(1); err == nil {
		t.Error("poll survived a denied stream.read")
	}
	deny = OpCursorCommit
	if err := r.Commit(); err == nil {
		t.Error("commit survived a denied cursor.commit")
	}
	deny = OpCursorInstall
	if err := r.Commit(); err == nil {
		t.Error("commit survived a denied cursor.commit.install")
	}
	// The install-point failure left a temp file but no install: the
	// committed offset is unchanged.
	if got := openReader(t, dir, "c", ReaderOptions{}).Next(); got != 0 {
		t.Errorf("denied commit moved the cursor to %d", got)
	}
	deny = ""
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{OpAppend, OpRead, OpCursorCommit, OpCursorInstall} {
		found := false
		for _, op := range seen {
			if op == want {
				found = true
			}
		}
		if !found {
			t.Errorf("op %s never consulted", want)
		}
	}
}

// TestLagsGauge: per-consumer lag reflects commits, the backpressure
// gauge retention and operators read; the checkpoint that reads the
// cursors records it, and one that cannot read them clears it.
func TestLagsGauge(t *testing.T) {
	dir := t.TempDir()
	denyCursors := false
	l := openStream(t, dir, Options{Hook: func(op, key string) error {
		if denyCursors && op == OpRead && key == "cursors" {
			return errors.New("injected")
		}
		return nil
	}})
	publishN(t, l, 12)
	fast := openReader(t, dir, "fast", ReaderOptions{})
	slow := openReader(t, dir, "slow", ReaderOptions{})
	drain(t, fast)
	if err := fast.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := slow.Poll(3); err != nil {
		t.Fatal(err)
	}
	if err := slow.Commit(); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Lags != nil {
		t.Error("lags before any checkpoint read the cursors")
	}
	if _, err := checkpoint(l); err != nil {
		t.Fatal(err)
	}
	if lags := l.Stats().Lags; len(lags) != 2 || lags["fast"] != 0 || lags["slow"] != 9 {
		t.Errorf("lags = %v, want fast=0 slow=9", lags)
	}
	denyCursors = true
	if _, err := checkpoint(l); err == nil {
		t.Error("a checkpoint that could not read the cursors returned no error")
	}
	if lags := l.Stats().Lags; lags != nil {
		t.Errorf("lags %v kept past a checkpoint that could not read the cursors", lags)
	}
}

// TestTornTailHidesPartialBatch: a torn frame at the active segment's
// tail ends a poll silently (no phantom records), and the writer's next
// Open discards it so appends continue cleanly.
func TestTornTailHidesPartialBatch(t *testing.T) {
	dir := t.TempDir()
	l := openStream(t, dir, Options{})
	publishN(t, l, 3)
	l.Close()

	// Tear the tail: append garbage shorter than a frame header's worth
	// of a real batch.
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v %v", segs, err)
	}
	active := filepath.Join(dir, wal.SegmentFileName(segs[len(segs)-1].idx))
	f, err := os.OpenFile(active, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x99, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// A reader over the torn tail sees exactly the intact records.
	r := openReader(t, dir, "c", ReaderOptions{})
	if all := drain(t, r); len(all) != 3 {
		t.Fatalf("reader over torn tail drained %d, want 3", len(all))
	}

	// The writer reopens, truncates the tear, and continues at offset 3.
	l2 := openStream(t, dir, Options{})
	if got := l2.Stats().Next; got != 3 {
		t.Fatalf("reopened Next = %d, want 3", got)
	}
	publishN(t, l2, 1)
	r2 := openReader(t, dir, "c2", ReaderOptions{})
	all := drain(t, r2)
	if len(all) != 4 || all[3].Offset != 3 {
		t.Fatalf("after repair: %d records, last offset %d", len(all), all[len(all)-1].Offset)
	}
}

// TestBoundedFetch: Poll never exceeds the reader's MaxFetch cap.
func TestBoundedFetch(t *testing.T) {
	dir := t.TempDir()
	l := openStream(t, dir, Options{})
	publishN(t, l, 50)
	r := openReader(t, dir, "c", ReaderOptions{MaxFetch: 8})
	if recs, err := r.Poll(0); err != nil || len(recs) != 8 {
		t.Fatalf("Poll(0) = %d records, %v; want the 8 cap", len(recs), err)
	}
	if recs, err := r.Poll(100); err != nil || len(recs) != 8 {
		t.Fatalf("Poll(100) = %d records, %v; want the 8 cap", len(recs), err)
	}
	if recs, err := r.Poll(3); err != nil || len(recs) != 3 {
		t.Fatalf("Poll(3) = %d records, %v", len(recs), err)
	}
}

// TestOwnerFramesBesideBatches: a log's owner writes frames of its own
// between the batches. Readers step over them — the listing finds each
// segment's first batch behind them, a segment holding nothing else has
// no base — offsets count records only, the writer's Open re-derives
// the head past them, and Recover hands the owner its frames and the
// records in log order.
func TestOwnerFramesBesideBatches(t *testing.T) {
	dir := t.TempDir()
	l := openStream(t, dir, Options{SegmentBytes: 256})
	var want []string // log order: owner payloads and record subscriptions
	for i := 0; i < 12; i++ {
		owner := fmt.Sprintf(`{"t":"notif","n":%d,"pad":"%0100d"}`, i, 0)
		if err := l.Write([]byte(owner)); err != nil {
			t.Fatal(err)
		}
		want = append(want, owner)
		if i%3 == 2 {
			continue // some segments hold owner frames only
		}
		if _, err := l.Append([]Record{{Subscription: fmt.Sprint("R", i), Time: t0}}); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprint("R", i))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	ownerOnly := 0
	for _, s := range segs {
		data, err := os.ReadFile(filepath.Join(dir, wal.SegmentFileName(s.idx)))
		if err != nil {
			t.Fatal(err)
		}
		first := ^uint64(0)
		for off := 0; off < len(data); {
			payload, size, err := wal.Binary{}.Next(data[off:])
			if err != nil {
				t.Fatal(err)
			}
			if base, _, err := decodeBatchHeader(payload); isBatch(payload) && err == nil && first == ^uint64(0) {
				first = base
			}
			off += size
		}
		if s.hasBase != (first != ^uint64(0)) || s.hasBase && s.base != first {
			t.Errorf("segment %d listed with base %d (%v), its first batch is at %d", s.idx, s.base, s.hasBase, first)
		}
		if !s.hasBase && len(data) > 0 {
			ownerOnly++
		}
	}
	if len(segs) < 3 || ownerOnly == 0 {
		t.Fatalf("%d segments, %d holding owner frames only: the rotation did not bite", len(segs), ownerOnly)
	}

	r := openReader(t, dir, "c", ReaderOptions{})
	all := drain(t, r)
	if len(all) != 8 {
		t.Fatalf("drained %d records, want 8", len(all))
	}
	for i, rec := range all {
		if rec.Offset != uint64(i) {
			t.Fatalf("record %d has offset %d", i, rec.Offset)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openStream(t, dir, Options{SegmentBytes: 256})
	if got := l2.Stats().Next; got != 8 {
		t.Fatalf("reopened Next = %d, want 8", got)
	}
	var got []string
	var records uint64
	if err := l2.Recover(func(payload []byte) error {
		got = append(got, string(payload))
		return nil
	}, func(rec Record) error {
		if rec.Offset != records {
			t.Errorf("record %d replayed at offset %d", records, rec.Offset)
		}
		records++
		got = append(got, rec.Subscription)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Recover replayed\n%v\nwrote\n%v", got, want)
	}
}

// TestCheckpointCarriesOwnerSnapshot: Checkpoint installs the owner's
// snapshot beside the stream's head. Recover hands it back and replays
// only what was written after it, and with every cursor at the head the
// head survives retention reclaiming every batch.
func TestCheckpointCarriesOwnerSnapshot(t *testing.T) {
	dir := t.TempDir()
	l := openStream(t, dir, Options{})
	publishN(t, l, 5)
	if err := l.Write([]byte(`{"t":"before"}`)); err != nil {
		t.Fatal(err)
	}
	r := openReader(t, dir, "c", ReaderOptions{})
	drain(t, r)
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	first, err := l.Checkpoint(func(emit func([]byte) error) error {
		return emit([]byte(`{"state":1}`))
	})
	if err != nil || first != 5 {
		t.Fatalf("Checkpoint = %d, %v; want every record reclaimed, first retained 5", first, err)
	}
	if err := l.Write([]byte(`{"t":"after"}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openStream(t, dir, Options{})
	if got := l2.Stats().Next; got != 5 {
		t.Fatalf("reopened Next = %d, want 5", got)
	}
	var got []string
	if err := l2.Recover(func(payload []byte) error {
		got = append(got, string(payload))
		return nil
	}, func(rec Record) error {
		got = append(got, fmt.Sprint("record ", rec.Offset))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := `[{"state":1} {"t":"after"}]`; fmt.Sprint(got) != want {
		t.Fatalf("Recover replayed %v, want %s", got, want)
	}
	publishN(t, l2, 1)
	if recs := drain(t, r); len(recs) != 1 || recs[0].Offset != 5 {
		t.Fatalf("after the checkpoint the consumer read %+v, want offset 5", recs)
	}
}

// TestSegmentIndexBesideOwnerWrites: an owner writes frames while
// batches are appended, and any of its frames can rotate the log. The
// segment files are the offset index retention keys on: oldest first, a
// cursor parked on each segment's first batch survives a checkpoint and
// reads that record. CI repeats it under -race.
func TestSegmentIndexBesideOwnerWrites(t *testing.T) {
	dir := t.TempDir()
	l := openStream(t, dir, Options{SegmentBytes: 200})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if _, err := l.Append([]Record{{Subscription: "S", Time: t0}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if err := l.Write([]byte(`{"t":"notif"}`)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bases []uint64
	for _, s := range segs {
		if s.hasBase {
			bases = append(bases, s.base)
		}
	}
	if len(bases) < 20 {
		t.Fatalf("%d segments hold a batch: the rotation did not bite", len(bases))
	}

	c, err := OpenCursor(dir, "c", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, off := range bases[:20] {
		if err := c.Commit(off); err != nil {
			t.Fatal(err)
		}
		if _, err := checkpoint(l); err != nil {
			t.Fatal(err)
		}
		r := openReader(t, dir, "c", ReaderOptions{})
		recs, err := r.Poll(1)
		if err != nil || len(recs) != 1 || recs[0].Offset != off {
			t.Fatalf("cursor at %d after a checkpoint read %+v, %v", off, recs, err)
		}
		r.Close()
	}
}

// TestCheckpointBesideCorruptCursor: a consumer's damaged cursor file
// does not stop its owner compacting. The checkpoint installs — the
// owner's snapshot replaces every frame before it — retaining what a
// cursor at offset 0 would need, so only the MaxBehind floor reclaims,
// and the cursor error comes back after it.
func TestCheckpointBesideCorruptCursor(t *testing.T) {
	dir := t.TempDir()
	l := openStream(t, dir, Options{SegmentBytes: 256, MaxBehind: 10})
	publishN(t, l, 30)
	if err := l.Write([]byte(`{"t":"before"}`)); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCursor(dir, "broken", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(25); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := os.WriteFile(filepath.Join(dir, "cursors", "broken.cur"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	first, err := l.Checkpoint(func(emit func([]byte) error) error {
		return emit([]byte(`{"state":1}`))
	})
	if err == nil {
		t.Fatal("a corrupt cursor went unreported")
	}
	if first == 0 || first > l.Stats().Next-10 {
		t.Fatalf("first retained %d with head %d: the floor alone should have reclaimed up to %d", first, l.Stats().Next, l.Stats().Next-10)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openStream(t, dir, Options{SegmentBytes: 256, MaxBehind: 10})
	var got []string
	if err := l2.Recover(func(payload []byte) error {
		got = append(got, string(payload))
		return nil
	}, func(rec Record) error {
		got = append(got, fmt.Sprint("record ", rec.Offset))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := `[{"state":1}]`; fmt.Sprint(got) != want {
		t.Fatalf("Recover after the checkpoint replayed %v, want %s", got, want)
	}
}
