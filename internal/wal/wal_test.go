package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// collect replays a log into a slice of payload copies.
func collect(t *testing.T, l *Log) (snapshot []byte, records [][]byte) {
	t.Helper()
	err := l.Recover(
		func(s []byte) error { snapshot = append([]byte(nil), s...); return nil },
		func(p []byte) error { records = append(records, append([]byte(nil), p...)); return nil },
	)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return snapshot, records
}

func openLog(t *testing.T, dir string, o Options) *Log {
	t.Helper()
	l, err := Open(dir, o)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func TestLogAppendRecover(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	want := [][]byte{[]byte("one"), []byte("two"), {}, []byte("four")}
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := openLog(t, dir, Options{})
	snap, got := collect(t, l2)
	if snap != nil {
		t.Errorf("snapshot before any checkpoint: %q", snap)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestLogRotationAndOrder(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of records.
	l := openLog(t, dir, Options{SegmentBytes: 64})
	var want [][]byte
	for i := 0; i < 40; i++ {
		p := []byte(fmt.Sprintf("record-%02d", i))
		want = append(want, p)
		if err := l.Append(p); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if st := l.Stats(); st.Rotations == 0 {
		t.Fatal("no rotation at 64-byte segments")
	}
	l.Close()

	l2 := openLog(t, dir, Options{SegmentBytes: 64})
	_, got := collect(t, l2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records across segments, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q (ordering across segments)", i, got[i], want[i])
		}
	}
}

func TestLogCheckpointCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{SegmentBytes: 64})
	for i := 0; i < 20; i++ {
		if err := l.Append([]byte(fmt.Sprintf("pre-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(func(w io.Writer) error {
		_, err := w.Write([]byte("STATE-AT-20"))
		return err
	}); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Compaction: the pre-checkpoint segments are gone from disk.
	entries, _ := os.ReadDir(dir)
	segs := 0
	for _, e := range entries {
		if len(e.Name()) > 4 && e.Name()[:4] == "seg-" {
			segs++
		}
	}
	if segs != 1 {
		t.Errorf("%d segments after checkpoint, want 1 (compaction)", segs)
	}

	l2 := openLog(t, dir, Options{SegmentBytes: 64})
	snap, got := collect(t, l2)
	if string(snap) != "STATE-AT-20" {
		t.Errorf("snapshot = %q", snap)
	}
	if len(got) != 3 || string(got[0]) != "post-0" || string(got[2]) != "post-2" {
		t.Errorf("tail after checkpoint = %q", got)
	}
}

// TestLogTornTail pins binary torn-tail recovery, including the
// satellite case of a tail that is exactly one byte of a frame header.
func TestLogTornTail(t *testing.T) {
	for _, tear := range []struct {
		name string
		cut  func(frame []byte) []byte
	}{
		{"one-header-byte", func(f []byte) []byte { return f[:1] }},
		{"half-header", func(f []byte) []byte { return f[:binaryHeader/2] }},
		{"header-only", func(f []byte) []byte { return f[:binaryHeader] }},
		{"half-payload", func(f []byte) []byte { return f[:binaryHeader+(len(f)-binaryHeader)/2] }},
	} {
		t.Run(tear.name, func(t *testing.T) {
			dir := t.TempDir()
			l := openLog(t, dir, Options{})
			for i := 0; i < 3; i++ {
				if err := l.Append([]byte(fmt.Sprintf("intact-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()

			// Simulate the crash: a partial frame lands on the active
			// segment's tail.
			frame, err := Binary{}.AppendFrame(nil, []byte("torn-record"))
			if err != nil {
				t.Fatal(err)
			}
			seg := filepath.Join(dir, segName(1))
			f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tear.cut(frame)); err != nil {
				t.Fatal(err)
			}
			f.Close()

			l2 := openLog(t, dir, Options{})
			if st := l2.Stats(); st.TornBytes == 0 {
				t.Error("torn bytes not counted")
			}
			_, got := collect(t, l2)
			if len(got) != 3 {
				t.Fatalf("recovered %d records, want the 3 intact ones", len(got))
			}
			// The tail was truncated: appends resume on a clean boundary.
			if err := l2.Append([]byte("after")); err != nil {
				t.Fatalf("Append after torn recovery: %v", err)
			}
			l2.Close()
			l3 := openLog(t, dir, Options{})
			_, got = collect(t, l3)
			if len(got) != 4 || string(got[3]) != "after" {
				t.Fatalf("after torn recovery + append: %q", got)
			}
		})
	}
}

// TestLogMidFileCorruptionFailsLoudly pins the boundary of the
// tolerance: a complete frame with a bad CRC, or an implausible length,
// is damage — recovery must refuse, not silently drop records.
func TestLogMidFileCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the middle record: CRC mismatch.
	data[binaryHeader+5+binaryHeader] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupt segment = %v, want ErrCorrupt", err)
	}
}

// TestLogCrashResidue simulates every on-disk state a crash inside
// Checkpoint can leave and requires Open to repair it.
func TestLogCrashResidue(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		l := openLog(t, dir, Options{SegmentBytes: 64})
		for i := 0; i < 10; i++ {
			if err := l.Append([]byte(fmt.Sprintf("r-%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Checkpoint(func(w io.Writer) error { _, err := w.Write([]byte("SNAP")); return err }); err != nil {
			t.Fatal(err)
		}
		if err := l.Append([]byte("tail")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		return dir
	}

	t.Run("leftover-temp", func(t *testing.T) {
		dir := build(t)
		// Crash after writing the temp, before the rename: the temp must
		// be discarded, the installed checkpoint still rules.
		if err := os.WriteFile(filepath.Join(dir, checkpointTmp), []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
		l := openLog(t, dir, Options{})
		snap, got := collect(t, l)
		if string(snap) != "SNAP" || len(got) != 1 || string(got[0]) != "tail" {
			t.Fatalf("recovered snap=%q tail=%q", snap, got)
		}
		if _, err := os.Stat(filepath.Join(dir, checkpointTmp)); !os.IsNotExist(err) {
			t.Error("leftover temp checkpoint survived Open")
		}
	})

	t.Run("leftover-covered-segments", func(t *testing.T) {
		dir := build(t)
		// Crash between the rename and the compaction: resurrect a
		// covered segment; Open must delete it, and recovery must not
		// replay it (its records are inside the snapshot already).
		stale, err := Binary{}.AppendFrame(nil, []byte("covered-record"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(1)), stale, 0o644); err != nil {
			t.Fatal(err)
		}
		l := openLog(t, dir, Options{})
		snap, got := collect(t, l)
		if string(snap) != "SNAP" || len(got) != 1 || string(got[0]) != "tail" {
			t.Fatalf("recovered snap=%q tail=%q (covered segment replayed?)", snap, got)
		}
		if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
			t.Error("covered segment survived Open")
		}
	})

	t.Run("missing-segment", func(t *testing.T) {
		dir := t.TempDir()
		l := openLog(t, dir, Options{SegmentBytes: 32})
		for i := 0; i < 12; i++ {
			if err := l.Append([]byte(fmt.Sprintf("r-%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		if err := os.Remove(filepath.Join(dir, segName(2))); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open with a missing middle segment = %v, want ErrCorrupt", err)
		}
	})
}

// TestFileWriteSyncGroupCommit pins the File's write / barrier split:
// Write reaches the OS at once and never fsyncs, Sync covers every frame
// written so far with one fsync and is a no-op with nothing unsynced.
func TestFileWriteSyncGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grouped.wal")
	fsyncs := 0
	f, err := OpenFile(path, FileOptions{Hook: func(op, _ string) error {
		if op == OpFileSync {
			fsyncs++
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := f.Write([]byte(fmt.Sprintf("g-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Writes reach the OS immediately even though no barrier ran yet:
	// every record is visible to a replay right now.
	var n int
	if err := f.Replay(func([]byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 10 || fsyncs != 0 {
		t.Fatalf("before the barrier: replay saw %d of 10 records, %d fsyncs (want 0)", n, fsyncs)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if fsyncs != 1 {
		t.Fatalf("10 writes + Sync + Sync = %d fsyncs, want 1", fsyncs)
	}
	if err := f.Append([]byte("solo")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if fsyncs != 2 {
		t.Fatalf("Append + Close with nothing unsynced = %d fsyncs in total, want 2", fsyncs)
	}
}

func TestLinesFraming(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lines.log")
	f, err := OpenFile(path, FileOptions{Framing: Lines{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append([]byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := f.Append([]byte("with\nnewline")); err == nil {
		t.Fatal("newline payload accepted by Lines framing")
	}
	f.Close()
	// A torn line (no trailing newline) is truncated away on replay.
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, append(raw, []byte(`{"b":`)...), 0o644); err != nil {
		t.Fatal(err)
	}
	f2, err := OpenFile(path, FileOptions{Framing: Lines{}})
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	if err := f2.Replay(func(p []byte) error { got = append(got, append([]byte(nil), p...)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0]) != `{"a":1}` {
		t.Fatalf("lines replay = %q", got)
	}
	data, _ := os.ReadFile(path)
	if !bytes.Equal(data, raw) {
		t.Errorf("torn line not truncated: %q", data)
	}
	f2.Close()
}

// TestLogHookFailsAppendCleanly pins the OpAppend hook contract: an
// error there fails the append before any byte lands.
func TestLogHookFailsAppendCleanly(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	armed := false
	l := openLog(t, dir, Options{Hook: func(op, key string) error {
		if armed && op == OpAppend {
			return boom
		}
		return nil
	}})
	if err := l.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	armed = true
	if err := l.Append([]byte("rejected")); !errors.Is(err, boom) {
		t.Fatalf("hooked append = %v", err)
	}
	armed = false
	l.Close()
	l2 := openLog(t, dir, Options{})
	_, got := collect(t, l2)
	if len(got) != 1 || string(got[0]) != "ok" {
		t.Fatalf("after failed append: %q", got)
	}
}

func TestCheckpointSnapshotTooLargeFails(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{MaxFrame: 128})
	if err := l.Append(bytes.Repeat([]byte("x"), 200)); err == nil {
		t.Fatal("oversized record accepted")
	}
	if err := l.Append([]byte("fits")); err != nil {
		t.Fatal(err)
	}
	l.Close()
}

// TestCheckpointRetainPreservesSegments pins the stream satellite: a
// retention-aware checkpoint covers every record in its snapshot but
// keeps segments ≥ retain on disk, recovery does not replay them, and
// they survive a reopen until a later checkpoint raises the bound.
func TestCheckpointRetainPreservesSegments(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{SegmentBytes: 64})
	for i := 0; i < 20; i++ {
		if err := l.Append([]byte(fmt.Sprintf("pre-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore := l.Segments()
	if len(segsBefore) < 3 {
		t.Fatalf("want ≥3 segments before checkpoint, have %v", segsBefore)
	}
	// Retain everything from the second live segment onward.
	keepFrom := segsBefore[1]
	if err := l.CheckpointRetain(keepFrom, func(w io.Writer) error {
		_, err := w.Write([]byte("SNAP"))
		return err
	}); err != nil {
		t.Fatalf("CheckpointRetain: %v", err)
	}
	for _, idx := range l.Segments() {
		if idx < keepFrom {
			t.Errorf("segment %d below retain bound survived", idx)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, SegmentFileName(keepFrom))); err != nil {
		t.Fatalf("retained segment gone: %v", err)
	}
	if err := l.Append([]byte("post-0")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Reopen: retained segments stay on disk, recovery replays only the
	// post-boundary tail (the snapshot covers the retained history).
	l2 := openLog(t, dir, Options{SegmentBytes: 64})
	if got := l2.Segments(); got[0] != keepFrom {
		t.Errorf("reopened segments = %v, want first %d", got, keepFrom)
	}
	snap, got := collect(t, l2)
	if string(snap) != "SNAP" {
		t.Errorf("snapshot = %q", snap)
	}
	if len(got) != 1 || string(got[0]) != "post-0" {
		t.Errorf("replayed tail = %q, want just post-0", got)
	}

	// A plain Checkpoint afterwards compacts the retained history away.
	if err := l2.Checkpoint(func(w io.Writer) error {
		_, err := w.Write([]byte("SNAP2"))
		return err
	}); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := l2.Segments(); len(got) != 1 {
		t.Errorf("segments after plain checkpoint = %v, want 1", got)
	}
	l2.Close()
}
