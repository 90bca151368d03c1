package stream

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"xymon/internal/wal"
)

// cursorFrame is the frame in one slot as Commit writes it; the zeros
// padding it to the whole slot are left to the caller.
func cursorFrame(t testing.TB, seq, off uint64) []byte {
	t.Helper()
	var p [16]byte
	binary.LittleEndian.PutUint64(p[:8], seq)
	binary.LittleEndian.PutUint64(p[8:], off)
	frame, err := wal.Binary{}.AppendFrame(nil, p[:])
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// commitAll opens consumer "w" under dir and commits each offset in
// turn, returning the cursor file's path.
func commitAll(t *testing.T, dir string, offs ...uint64) string {
	t.Helper()
	c, err := OpenCursor(dir, "w", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, off := range offs {
		if err := c.Commit(off); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, cursorDirName, "w"+cursorExt)
}

// reopen writes data as the cursor file and opens it.
func reopen(t *testing.T, dir, path string, data []byte) (*Cursor, error) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return OpenCursor(dir, "w", nil)
}

// state describes an opened cursor for a failure message.
func state(c *Cursor, err error) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("offset %d in slot %d", c.Offset(), c.slot)
}

// TestCursorCommitsInPlace: the first commit installs slot 0, every
// later one overwrites the older slot, and a reopen reads the newest.
func TestCursorCommitsInPlace(t *testing.T) {
	dir := t.TempDir()
	path := commitAll(t, dir, 5, 7, 9)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 2*slotSize)
	copy(want, cursorFrame(t, 3, 9))
	copy(want[slotSize:], cursorFrame(t, 2, 7))
	if string(data) != string(want) {
		t.Fatalf("cursor file after commits 5, 7, 9:\n% x\nwant\n% x", data, want)
	}
	c, err := OpenCursor(dir, "w", nil)
	if err != nil || c.Offset() != 9 {
		t.Fatalf("reopened: %s; want offset 9", state(c, err))
	}
}

// TestCursorCommitFsyncs holds every in-place commit to one real fsync —
// counted through the fsync seam — and one OpFileSync firing. The hook
// fires before the fsync, so without this count a deleted Sync would
// fail no test. The first commit installs the file through
// wal.WriteFileSync and fires neither.
func TestCursorCommitFsyncs(t *testing.T) {
	var real, hooked int
	orig := fsync
	fsync = func(f *os.File) error {
		real++
		return orig(f)
	}
	t.Cleanup(func() { fsync = orig })
	c, err := OpenCursor(t.TempDir(), "f", func(op, _ string) error {
		if op == wal.OpFileSync {
			hooked++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, off := range []uint64{4, 8, 15, 16} {
		if err := c.Commit(off); err != nil {
			t.Fatalf("Commit(%d): %v", off, err)
		}
		if real != i || hooked != i {
			t.Fatalf("after %d commits: %d fsyncs and %d OpFileSync firings, want %d of each", i+1, real, hooked, i)
		}
	}
}

// TestCursorTornNewerSlotAtEveryByte: a write cut anywhere in the newer
// slot — a byte flipped, the rest never written, or the rest still the
// slot's older frame — recovers the previous offset.
func TestCursorTornNewerSlotAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	// Slot 0 ends with seq 3 at an offset with no zero byte, slot 1 with
	// seq 2 at 7.
	path := commitAll(t, dir, 5, 7, 0x0102030405060708)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	older := cursorFrame(t, 1, 5) // what slot 0 held before the write
	newer := good[:len(older)]
	for i := range newer {
		for _, tear := range []struct {
			name string
			cut  func(slot []byte)
		}{
			{"flipped", func(s []byte) { s[i] ^= 0x40 }},
			{"unwritten", func(s []byte) { clear(s[i:]) }},
			{"half old", func(s []byte) { copy(s[i:], older[i:]) }},
		} {
			data := append([]byte(nil), good...)
			tear.cut(data[:len(newer)])
			if string(data) == string(good) {
				continue // the cut left the whole write in place
			}
			c, err := reopen(t, dir, path, data)
			if err != nil || c.Offset() != 7 {
				t.Fatalf("newer slot %s at byte %d: %s; want the previous offset 7", tear.name, i, state(c, err))
			}
		}
	}
}

// TestCursorNoIntactSlotFailsLoudly: both slots damaged, or one damaged
// beside an empty one, or a frame followed by stray bytes, is damage,
// not a fresh consumer.
func TestCursorNoIntactSlotFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	path := commitAll(t, dir, 5, 7)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	both := append([]byte(nil), good...)
	both[10] ^= 1
	both[slotSize+10] ^= 1
	lone := append([]byte(nil), good...)
	clear(lone[slotSize:])
	lone[10] ^= 1
	stray := append([]byte(nil), good[:slotSize]...)
	stray[slotSize-1] = 1
	long := append(append([]byte(nil), good...), make([]byte, 2*slotSize)...)
	for name, data := range map[string][]byte{
		"both slots damaged":          both,
		"damaged beside an empty one": lone,
		"stray byte after the frame":  stray,
		"longer than two slots":       long,
	} {
		if _, err := reopen(t, dir, path, data); err == nil {
			t.Errorf("%s: opened silently", name)
		}
	}
}

// TestCursorEmptySlots: an all-zero slot is empty. A file of zeros is a
// consumer with nothing committed, and its first commit installs.
func TestCursorEmptySlots(t *testing.T) {
	dir := t.TempDir()
	path := commitAll(t, dir, 5)
	zeros := make([]byte, 2*slotSize)
	c, err := reopen(t, dir, path, zeros)
	if err != nil || c.Offset() != 0 || c.slot != -1 {
		t.Fatalf("all-zero cursor: %s", state(c, err))
	}
	if err := c.Commit(3); err != nil {
		t.Fatal(err)
	}
	c.Close()
	oneSlot := append(cursorFrame(t, 4, 11), make([]byte, 2*slotSize-24)...)
	if c, err := reopen(t, dir, path, oneSlot); err != nil || c.Offset() != 11 {
		t.Fatalf("slot 0 beside an empty slot 1: %s; want offset 11", state(c, err))
	}
}

// TestCursorCommitOverDamagedSlot: a commit into a damaged slot writes
// the whole slot, so what it wrote reads back.
func TestCursorCommitOverDamagedSlot(t *testing.T) {
	dir := t.TempDir()
	path := commitAll(t, dir)
	data := make([]byte, 2*slotSize)
	copy(data, cursorFrame(t, 4, 11))
	for i := slotSize; i < len(data); i++ {
		data[i] = 0xff
	}
	c, err := reopen(t, dir, path, data)
	if err != nil || c.Offset() != 11 {
		t.Fatalf("intact slot 0 beside a damaged slot 1: %s; want offset 11", state(c, err))
	}
	if err := c.Commit(12); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if c, err := OpenCursor(dir, "w", nil); err != nil || c.Offset() != 12 {
		t.Fatalf("after a commit into the damaged slot: %s; want offset 12", state(c, err))
	}
}

// TestCursorLegacyFile: the single-frame format (an 8-byte offset
// payload) opens at its offset as seq 0 in slot 0. The next commit
// writes slot 1 and leaves slot 0 as it was.
func TestCursorLegacyFile(t *testing.T) {
	dir := t.TempDir()
	path := commitAll(t, dir)
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], 42)
	legacy, err := wal.Binary{}.AppendFrame(nil, p[:])
	if err != nil {
		t.Fatal(err)
	}
	c, err := reopen(t, dir, path, legacy)
	if err != nil || c.Offset() != 42 {
		t.Fatalf("legacy cursor: %s; want offset 42", state(c, err))
	}
	if err := c.Commit(42); err != nil {
		t.Fatal(err)
	}
	c.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:len(legacy)]) != string(legacy) || len(data) != 2*slotSize {
		t.Fatalf("after one commit the legacy file reads\n% x", data)
	}
	if c, err := OpenCursor(dir, "w", nil); err != nil || c.Offset() != 42 || c.slot != 1 {
		t.Fatalf("two-slot file from a legacy one: %s; want offset 42 in slot 1", state(c, err))
	}
}

// TestCursorClose: a cursor holds its file open from the first in-place
// commit; Close releases it, twice is harmless, and a later Commit
// opens it again.
func TestCursorClose(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCursor(dir, "w", nil)
	if err != nil {
		t.Fatal(err)
	}
	for off := uint64(1); off <= 3; off++ {
		if err := c.Commit(off); err != nil {
			t.Fatal(err)
		}
	}
	if c.f == nil {
		t.Fatal("no descriptor held after in-place commits")
	}
	if err := c.Close(); err != nil || c.f != nil {
		t.Fatalf("Close: %v, descriptor %v", err, c.f)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := c.Commit(4); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c2, err := OpenCursor(dir, "w", nil); err != nil || c2.Offset() != 4 {
		t.Fatalf("after Close and Commit(4): %s", state(c2, err))
	}
}

// TestReaderCloseReleasesCursor: a Seek drops only the tailed segment,
// so the cursor keeps its descriptor; Reader.Close releases both.
func TestReaderCloseReleasesCursor(t *testing.T) {
	dir := t.TempDir()
	publishN(t, openStream(t, dir, Options{}), 3)
	r := openReader(t, dir, "c", ReaderOptions{})
	for i := 0; i < 2; i++ {
		if _, err := r.Poll(1); err != nil {
			t.Fatal(err)
		}
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	r.Seek(0)
	if r.cur.f == nil || r.f != nil {
		t.Fatalf("after Seek: cursor descriptor %v, segment %v; want the cursor's kept, the segment's dropped", r.cur.f, r.f)
	}
	if _, err := r.Poll(1); err != nil || r.f == nil {
		t.Fatalf("Poll after Seek: %v, segment %v", err, r.f)
	}
	if err := r.Close(); err != nil || r.cur.f != nil || r.f != nil {
		t.Fatalf("Close: %v; cursor %v, segment %v still held", err, r.cur.f, r.f)
	}
}

// TestRetainBesideCursorCommit runs retention beside a consumer that
// polls and commits, both over 256-byte segments. A retention cursor
// read may land on the slot a commit is overwriting; it must then read
// the other slot, so Checkpoint never fails and never reclaims past the
// offset being committed, and the consumer never sees a truncation.
// The cursor hook also reads every cursor between each slot write and
// its fsync. Run under -race.
func TestRetainBesideCursorCommit(t *testing.T) {
	dir := t.TempDir()
	const total = 400
	l := openStream(t, dir, Options{SegmentBytes: 256})
	publishN(t, l, total)
	var committing atomic.Uint64 // the offset of the newest Commit begun
	hook := func(op, key string) error {
		if op != wal.OpFileSync {
			return nil
		}
		cursors, err := readCursors(dir)
		if err != nil {
			return err
		}
		if got, want := cursors["c"], committing.Load(); got != want {
			return fmt.Errorf("written but unsynced commit of %d reads back %d", want, got)
		}
		return nil
	}
	r := openReader(t, dir, "c", ReaderOptions{Hook: hook, MaxFetch: 3})

	done := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		defer close(done)
		errc <- func() error {
			for r.Next() < total {
				if _, err := r.Poll(0); err != nil {
					return err
				}
				committing.Store(r.Next())
				if err := r.Commit(); err != nil {
					return err
				}
			}
			return nil
		}()
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		floor := committing.Load()
		first, err := checkpoint(l)
		if err != nil {
			t.Fatalf("Checkpoint beside Commit: %v", err)
		}
		if bound := committing.Load(); first > bound {
			t.Fatalf("retention reclaimed to %d past the offset being committed, %d (was %d)", first, bound, floor)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("consumer: %v", err)
	}
	if first, err := checkpoint(l); err != nil || first == 0 || first > total {
		t.Fatalf("final Checkpoint = %d, %v; want it to reclaim behind the committed %d", first, err, total)
	}
}
