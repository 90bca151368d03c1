package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// opCounter is a Hook that counts how often each op fired.
type opCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *opCounter) hook(op, _ string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == nil {
		c.n = make(map[string]int)
	}
	c.n[op]++
	return nil
}

func (c *opCounter) count(op string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[op]
}

// TestLogWriteSyncIsOneFsync pins the commit barrier as a count: M
// writes and one Sync cost one fsync, a second Sync none, and Append
// stays write + barrier. The segment files report to the log's hook
// under the log's key.
func TestLogWriteSyncIsOneFsync(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "mylog")
	var ops opCounter
	var keys sync.Map
	l := openLog(t, dir, Options{Hook: func(op, key string) error {
		keys.Store(key, true)
		return ops.hook(op, key)
	}})
	const m = 7
	for i := 0; i < m; i++ {
		if err := l.Write([]byte(fmt.Sprintf("w-%d", i))); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	if got := ops.count(OpFileSync) + ops.count(OpAppendDone); got != 0 {
		t.Fatalf("%d barrier ops fired before any Sync", got)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("second Sync: %v", err)
	}
	for op, want := range map[string]int{OpAppend: m, OpFileAppend: m, OpFileSync: 1, OpAppendDone: 1} {
		if got := ops.count(op); got != want {
			t.Errorf("%d writes + Sync + Sync: %s fired %d times, want %d", m, op, got, want)
		}
	}
	if err := l.Append([]byte("solo")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	for op, want := range map[string]int{OpAppend: m + 1, OpFileAppend: m + 1, OpFileSync: 2, OpAppendDone: 2} {
		if got := ops.count(op); got != want {
			t.Errorf("after one Append: %s fired %d times, want %d", op, got, want)
		}
	}
	keys.Range(func(k, _ any) bool {
		if k != "mylog" {
			t.Errorf("hook consulted with key %q, want the log's key %q", k, "mylog")
		}
		return true
	})
	l.Close()
	_, got := collect(t, openLog(t, dir, Options{}))
	if len(got) != m+1 {
		t.Fatalf("recovered %d records, want %d", len(got), m+1)
	}
}

// TestLogConcurrentCommittersShareFsync runs two goroutines that each
// write one record and commit it. Neither may return from Sync before an
// fsync covered its own frame, and together they may pay at most two
// fsyncs (one when the first barrier already covered both frames).
func TestLogConcurrentCommittersShareFsync(t *testing.T) {
	dir := t.TempDir()
	var fsyncs, covered atomic.Int64
	seg := filepath.Join(dir, segName(1))
	l := openLog(t, dir, Options{Hook: func(op, _ string) error {
		switch op {
		case OpFileSync:
			fsyncs.Add(1)
		case OpAppendDone:
			// Fired under the log's lock right after the fsync: no write
			// can have landed since, so the file size is what it covered.
			st, err := os.Stat(seg)
			if err != nil {
				return err
			}
			covered.Store(st.Size())
		}
		return nil
	}})
	defer l.Close()

	const rounds = 100
	for round := 0; round < rounds; round++ {
		before := fsyncs.Load()
		payloads := [2][]byte{
			[]byte(fmt.Sprintf("round-%03d-a", round)),
			[]byte(fmt.Sprintf("round-%03d-b", round)),
		}
		var sawCovered [2]int64
		var wg sync.WaitGroup
		for g := range payloads {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if err := l.Write(payloads[g]); err != nil {
					t.Errorf("Write: %v", err)
				}
				if err := l.Sync(); err != nil {
					t.Errorf("Sync: %v", err)
				}
				sawCovered[g] = covered.Load()
			}(g)
		}
		wg.Wait()
		if n := fsyncs.Load() - before; n < 1 || n > 2 {
			t.Fatalf("round %d: two committers paid %d fsyncs, want 1 or 2", round, n)
		}
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for g, p := range payloads {
			end := int64(bytes.Index(data, p) + len(p))
			if sawCovered[g] < end {
				t.Fatalf("round %d: committer %d returned with %d bytes covered, its frame ends at %d",
					round, g, sawCovered[g], end)
			}
		}
	}
}

// TestLogRotationMidBatchSealsSynced: a batch of writes that crosses a
// rotation leaves nothing unsynced behind in the sealed segment — the
// rotation itself is a barrier for it — and the batch's own Sync then
// only has the active segment to cover.
func TestLogRotationMidBatchSealsSynced(t *testing.T) {
	dir := t.TempDir()
	var ops opCounter
	l := openLog(t, dir, Options{SegmentBytes: 64, Hook: ops.hook})
	const n = 20
	for i := 0; i < n; i++ {
		if err := l.Write([]byte(fmt.Sprintf("batch-rec-%02d", i))); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	rot := int(l.Stats().Rotations)
	if rot == 0 {
		t.Fatal("no rotation at 64-byte segments")
	}
	if got := ops.count(OpFileSync); got != rot {
		t.Fatalf("%d rotations inside an uncommitted batch fsynced %d sealed segments", rot, got)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := ops.count(OpFileSync); got != rot+1 {
		t.Fatalf("the batch's barrier: %d fsyncs in total, want %d", got, rot+1)
	}
	l.Close()
	_, got := collect(t, openLog(t, dir, Options{SegmentBytes: 64}))
	if len(got) != n {
		t.Fatalf("recovered %d records across the rotated batch, want %d", len(got), n)
	}
}

// TestLogSyncFailureKeepsFramesUnsynced: a barrier that fails leaves the
// frames owed, so the next Sync retries the fsync instead of skipping it.
func TestLogSyncFailureKeepsFramesUnsynced(t *testing.T) {
	boom := errors.New("disk says no")
	fail := true
	fsyncs := 0
	l := openLog(t, t.TempDir(), Options{Hook: func(op, _ string) error {
		if op != OpFileSync {
			return nil
		}
		if fail {
			return boom
		}
		fsyncs++
		return nil
	}})
	defer l.Close()
	if err := l.Write([]byte("owed")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync with a failing fsync hook = %v, want the hook's error", err)
	}
	fail = false
	if err := l.Sync(); err != nil || fsyncs != 1 {
		t.Fatalf("retry after a failed barrier: err=%v fsyncs=%d, want nil and 1", err, fsyncs)
	}
}

// countFsyncs swaps the fsync seam, for the rest of the test, for one
// that counts the fsyncs a File really issues.
func countFsyncs(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	orig := fsync
	fsync = func(f *os.File) error {
		n.Add(1)
		return orig(f)
	}
	t.Cleanup(func() { fsync = orig })
	return &n
}

// TestFsyncsMatchSyncHook holds the fsyncs a File really issues to its
// OpFileSync firings through Append, Write + Sync, Close and a Log's
// rotations. The hook fires before the fsync, so without this count a
// deleted Sync would fail no test.
func TestFsyncsMatchSyncHook(t *testing.T) {
	real := countFsyncs(t)
	var ops opCounter
	check := func(step string, want int) {
		t.Helper()
		if hooked, got := ops.count(OpFileSync), int(real.Load()); hooked != want || got != want {
			t.Fatalf("after %s: %d OpFileSync firings and %d fsyncs, want %d of each", step, hooked, got, want)
		}
	}
	f, err := OpenFile(filepath.Join(t.TempDir(), "f.log"), FileOptions{Hook: ops.hook})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	check("Append", 1)
	if err := f.Write([]byte("w")); err != nil {
		t.Fatal(err)
	}
	check("Write", 1)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	check("Write + Sync", 2)
	if err := f.Write([]byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	check("Write + Close", 3)

	l := openLog(t, t.TempDir(), Options{SegmentBytes: 64, Hook: ops.hook})
	for i := 0; i < 20; i++ {
		if err := l.Write([]byte(fmt.Sprintf("rec-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	rot := int(l.Stats().Rotations)
	if rot == 0 {
		t.Fatal("no rotation at 64-byte segments")
	}
	check("rotations", 3+rot)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	check("Log.Sync", 4+rot)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
