package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// The named durability points of the log, reported to the Hook. The
// crash harness arms faults.ModeCrash rules at these names; a hook
// error at OpAppend fails the append cleanly before anything is
// written. The segment files report their own finer pair
// (OpFileAppend, OpFileSync) to the same Hook under the same key.
const (
	// OpAppend fires on entry to Append and Write, once per record,
	// before any byte is written.
	OpAppend = "wal.append"
	// OpAppendDone fires after a commit barrier's fsync (Append's own,
	// or a Sync that had frames to cover), before it is acknowledged.
	OpAppendDone = "wal.append.done"
	// OpCheckpointTemp fires after the checkpoint temp file is written
	// and fsynced, before the rename installs it.
	OpCheckpointTemp = "wal.checkpoint.temp"
	// OpCheckpointInstall fires after the rename, before the parent
	// directory is fsynced and old segments are compacted away.
	OpCheckpointInstall = "wal.checkpoint.install"
	// OpCheckpointCompact fires mid-compaction, after the first covered
	// segment was deleted.
	OpCheckpointCompact = "wal.checkpoint.compact"
)

// Hook observes the log's durability points; the crash harness uses it
// to kill the process at each one. Returning an error from OpAppend
// fails the append before it writes; errors at later points surface to
// the caller after the durable work already happened.
type Hook func(op, key string) error

// Options configures a Log.
type Options struct {
	// SegmentBytes rotates the active segment once it reaches this many
	// bytes; 0 means 1 MiB.
	SegmentBytes int64
	// MaxFrame caps record size; 0 means DefaultMaxFrame. Ignored when
	// Framing is set.
	MaxFrame int
	// Framing substitutes the record codec; nil means Binary (length ‖
	// CRC32C frames). The cluster coordinator's transfer journal passes
	// Lines to keep its records greppable JSON, the same trade the
	// subscription journal makes.
	Framing Framing
	// Hook, when non-nil, is consulted at every Op point with the log's
	// key (the directory's base name).
	Hook Hook
}

// Stats counts a Log's activity.
type Stats struct {
	Appends     uint64
	Rotations   uint64
	Checkpoints uint64
	// TornBytes counts bytes truncated from the active segment when the
	// log was opened — the residue of a crash mid-append.
	TornBytes int64
}

// Log is a segmented, checkpointed write-ahead log: binary frames in
// rotated append-only segment files, plus a snapshot installed
// atomically (temp file → fsync → rename → parent-dir fsync) whose
// installation compacts away every segment it covers. Safe for
// concurrent use. Recovery contract: Open, then Recover, then Append.
//
// "The frame reached the log" and "the log is durable" are separate
// steps: Write frames a record in log order, Sync is the commit barrier
// — one fsync covering every frame written so far. Append is the pair,
// for callers with one record to commit. A batch of Writes followed by
// one Sync is a group commit: a power loss before the barrier can lose
// or tear any suffix of the batch, never a frame before it.
type Log struct {
	mu  sync.Mutex
	dir string
	key string
	o   Options
	fr  Framing

	seg    *File // active segment
	segs   []int // live segment indexes, ascending; last is active
	bound  int   // first segment the checkpoint does not cover
	retain int   // first segment preserved on disk (≤ bound)
	snap   []byte
	closed bool
	stats  Stats
}

const (
	checkpointName = "checkpoint.wal"
	checkpointTmp  = "checkpoint.tmp"
)

func segName(idx int) string { return fmt.Sprintf("seg-%08d.wal", idx) }

// SegmentFileName returns the file name (inside the log directory) of
// the segment with the given index. Layered readers — internal/stream's
// offset-addressable change-stream — locate retained segments by it.
func SegmentFileName(idx int) string { return segName(idx) }

// checkpointMeta is the first frame of a checkpoint file.
type checkpointMeta struct {
	// Boundary is the first segment index NOT covered by the snapshot:
	// recovery restores the snapshot, then replays segments ≥ Boundary.
	Boundary int `json:"boundary"`
	// Retain is the first segment index preserved on disk. Checkpoints
	// written by CheckpointRetain keep covered segments in [Retain,
	// Boundary) readable for layered consumers; plain Checkpoint leaves
	// it 0, which means "same as Boundary" (nothing extra retained).
	Retain int `json:"retain,omitempty"`
}

// Open opens (creating if needed) the log rooted at dir and repairs any
// crash residue: a leftover checkpoint temp file is removed, segments
// covered by the installed checkpoint are deleted, and a torn tail on
// the active segment is truncated away.
func Open(dir string, o Options) (*Log, error) {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, key: filepath.Base(dir), o: o, fr: o.Framing, bound: 1, retain: 1}
	if l.fr == nil {
		l.fr = Binary{MaxFrame: o.MaxFrame}
	}
	// A temp file means the crash hit before the rename: the checkpoint
	// was never installed and the previous one (if any) still rules.
	if err := os.Remove(filepath.Join(dir, checkpointTmp)); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := l.loadCheckpoint(); err != nil {
		return nil, err
	}
	if err := l.loadSegments(); err != nil {
		return nil, err
	}
	return l, nil
}

// loadCheckpoint reads the installed checkpoint, if any. The install is
// atomic, so a present-but-unreadable checkpoint is damage, not a crash
// artifact.
func (l *Log) loadCheckpoint() error {
	data, err := os.ReadFile(filepath.Join(l.dir, checkpointName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	metaRaw, n, err := l.fr.Next(data)
	if err != nil {
		return fmt.Errorf("wal: checkpoint header: %w", errors.Join(ErrCorrupt, err))
	}
	var meta checkpointMeta
	if err := json.Unmarshal(metaRaw, &meta); err != nil || meta.Boundary < 1 {
		return fmt.Errorf("%w: checkpoint meta %q", ErrCorrupt, metaRaw)
	}
	if meta.Retain < 0 || meta.Retain > meta.Boundary {
		return fmt.Errorf("%w: checkpoint retain %d outside [0, %d]", ErrCorrupt, meta.Retain, meta.Boundary)
	}
	snap, size, err := l.fr.Next(data[n:])
	if err != nil || n+size != len(data) {
		return fmt.Errorf("wal: checkpoint snapshot: %w", errors.Join(ErrCorrupt, err))
	}
	l.bound = meta.Boundary
	l.retain = meta.Retain
	if l.retain == 0 {
		l.retain = meta.Boundary
	}
	l.snap = append([]byte(nil), snap...)
	return nil
}

// loadSegments lists the segment files, deletes the ones the checkpoint
// covers (compaction the crash interrupted), verifies contiguity,
// truncates the active segment's torn tail, and opens it for append.
func (l *Log) loadSegments() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var idxs []int
	for _, e := range entries {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "seg-%08d.wal", &idx); err == nil {
			idxs = append(idxs, idx)
		}
	}
	sort.Ints(idxs)
	live := idxs[:0]
	for _, idx := range idxs {
		if idx < l.retain {
			if err := os.Remove(filepath.Join(l.dir, segName(idx))); err != nil {
				return fmt.Errorf("wal: removing covered segment: %w", err)
			}
			continue
		}
		live = append(live, idx)
	}
	if len(live) == 0 {
		live = append(live, l.bound)
	}
	for i, idx := range live {
		if idx != live[0]+i {
			return fmt.Errorf("%w: segment %d missing (have %v)", ErrCorrupt, live[0]+i, live)
		}
	}
	l.segs = append([]int(nil), live...)

	// Only the most recent segment can carry a torn tail; verify it and
	// truncate the residue before any append lands behind it.
	active := filepath.Join(l.dir, segName(l.segs[len(l.segs)-1]))
	if data, err := os.ReadFile(active); err == nil {
		valid, err := scan(data, l.fr, nil)
		if err != nil {
			return fmt.Errorf("wal: segment %s: %w", filepath.Base(active), err)
		}
		if valid < len(data) {
			if err := os.Truncate(active, int64(valid)); err != nil {
				return fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			l.stats.TornBytes += int64(len(data) - valid)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("wal: %w", err)
	}
	seg, err := l.openSegment(active)
	if err != nil {
		return err
	}
	l.seg = seg
	return nil
}

// openSegment opens a segment file that reports its durability points
// to the log's Hook under the log's key — the "in the page cache, not
// yet durable" kill points live at the file level.
func (l *Log) openSegment(path string) (*File, error) {
	o := FileOptions{Framing: l.fr}
	if hook := l.o.Hook; hook != nil {
		o.Hook = func(op, _ string) error { return hook(op, l.key) }
	}
	return OpenFile(path, o)
}

func (l *Log) hook(op string) error {
	if l.o.Hook == nil {
		return nil
	}
	return l.o.Hook(op, l.key)
}

// Append durably adds one record to the log: Write plus the commit
// barrier, under one lock acquisition.
func (l *Log) Append(payload []byte) error {
	if err := l.hook(OpAppend); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writeLocked(payload); err != nil {
		return err
	}
	return l.syncLocked()
}

// Write adds one record to the log in call order without making it
// durable: the frame reaches the OS before Write returns, the next Sync
// (or Append, rotation, Checkpoint or Close) fsyncs it. A caller that
// owes durability to someone calls Sync before telling them.
func (l *Log) Write(payload []byte) error {
	if err := l.hook(OpAppend); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeLocked(payload)
}

func (l *Log) writeLocked(payload []byte) error {
	if l.closed {
		return errors.New("wal: log is closed")
	}
	if l.seg.Size() >= l.o.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if err := l.seg.Write(payload); err != nil {
		return err
	}
	l.stats.Appends++
	return nil
}

// syncLocked is the barrier: sealed segments were fsynced when they
// rotated out, so the active one is all that can hold unsynced frames.
func (l *Log) syncLocked() error {
	synced, err := l.seg.sync()
	if err != nil || !synced {
		return err
	}
	return l.hook(OpAppendDone)
}

// rotateLocked seals the active segment — fsyncing whatever a batch in
// progress wrote to it — and opens the next one.
func (l *Log) rotateLocked() error {
	if err := l.seg.Close(); err != nil {
		return err
	}
	next := l.segs[len(l.segs)-1] + 1
	seg, err := l.openSegment(filepath.Join(l.dir, segName(next)))
	if err != nil {
		return err
	}
	l.seg = seg
	l.segs = append(l.segs, next)
	l.stats.Rotations++
	return nil
}

// Sync is the commit barrier: one fsync covering every frame written so
// far. It is a no-op when nothing is unsynced, so committers queued on
// the lock behind a barrier that already covered their frames share its
// fsync instead of paying their own.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.syncLocked()
}

// Recover hands the latest checkpoint snapshot (if any) to snap, then
// replays every record appended after it to replay, in order. Call it
// after Open and before the first Append. Sealed segments must be fully
// intact — a torn frame there is damage, not a crash artifact (only the
// active segment can be torn, and Open already truncated it).
func (l *Log) Recover(snap func(snapshot []byte) error, replay func(payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.snap != nil && snap != nil {
		// Recover's callbacks run under l.mu by contract: recovery
		// happens before the first Append, and the callbacks rebuild
		// caller state without calling back into the log.
		//xyvet:ignore lockcheck
		if err := snap(l.snap); err != nil {
			return err
		}
	}
	for _, idx := range l.segs {
		if idx < l.bound {
			// Retained below the boundary: the snapshot already covers
			// these records; they stay on disk for layered readers, not
			// for replay.
			continue
		}
		data, err := os.ReadFile(filepath.Join(l.dir, segName(idx)))
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		valid, err := scan(data, l.fr, replay)
		if err != nil {
			return fmt.Errorf("wal: segment %s: %w", segName(idx), err)
		}
		if valid < len(data) {
			return fmt.Errorf("%w: torn frame inside sealed segment %s", ErrCorrupt, segName(idx))
		}
	}
	return nil
}

// Checkpoint installs a snapshot produced by write and compacts away
// every log record it covers. The snapshot must describe the state
// after every record appended so far — the caller serialises its own
// mutations against Checkpoint (every adopter holds its state locks
// across this call). The install is atomic: temp file → fsync → rename
// → parent-dir fsync; a crash at any point leaves either the old
// checkpoint with its segments or the new one, never a mix recovery
// cannot read.
func (l *Log) Checkpoint(write func(w io.Writer) error) error {
	return l.checkpoint(-1, write)
}

// CheckpointRetain is Checkpoint with a segment-retention bound: the
// snapshot still covers every record appended so far, but segments with
// index ≥ retain survive compaction and reopen. Recovery replays only
// records after the snapshot's boundary; the retained segments are data
// a layered reader (internal/stream) addresses directly. retain is
// clamped to [oldest live segment, boundary]; retain == boundary is
// plain Checkpoint.
func (l *Log) CheckpointRetain(retain int, write func(w io.Writer) error) error {
	return l.checkpoint(retain, write)
}

func (l *Log) checkpoint(retain int, write func(w io.Writer) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log is closed")
	}
	// Seal the covered tail first: records appended after this rotation
	// land in the new active segment, which the checkpoint's boundary
	// leaves for replay.
	if err := l.rotateLocked(); err != nil {
		return err
	}
	boundary := l.segs[len(l.segs)-1]
	if retain < 0 || retain > boundary {
		retain = boundary
	}
	if retain < l.segs[0] {
		retain = l.segs[0]
	}

	var snap bytes.Buffer
	// The snapshot writer runs under l.mu so no append can land between
	// the boundary rotation and the snapshot; adopters hold their own
	// state locks across Checkpoint and must not call back into the log.
	//xyvet:ignore lockcheck
	if err := write(&snap); err != nil {
		return fmt.Errorf("wal: checkpoint snapshot: %w", err)
	}
	meta := checkpointMeta{Boundary: boundary}
	if retain < boundary {
		meta.Retain = retain
	}
	metaRaw, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	// Framing implementations are pure byte codecs (Binary, Lines);
	// AppendFrame never does I/O or takes locks.
	//xyvet:ignore lockcheck
	buf, err := l.fr.AppendFrame(nil, metaRaw)
	if err != nil {
		return err
	}
	//xyvet:ignore lockcheck
	if buf, err = l.fr.AppendFrame(buf, snap.Bytes()); err != nil {
		return err
	}
	tmp := filepath.Join(l.dir, checkpointTmp)
	if err := WriteFileSync(tmp, buf, 0o644); err != nil {
		return err
	}
	if err := l.hook(OpCheckpointTemp); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, checkpointName)); err != nil {
		return fmt.Errorf("wal: installing checkpoint: %w", err)
	}
	if err := l.hook(OpCheckpointInstall); err != nil {
		return err
	}
	if err := SyncDir(l.dir); err != nil {
		return err
	}
	// Compact: the checkpoint now rules, the covered segments below the
	// retention bound are dead weight. A crash mid-loop leaves leftovers
	// Open deletes next time.
	kept := l.segs[:0]
	deleted := 0
	for _, idx := range l.segs[:len(l.segs)-1] {
		if idx >= retain {
			kept = append(kept, idx)
			continue
		}
		if err := os.Remove(filepath.Join(l.dir, segName(idx))); err != nil {
			return fmt.Errorf("wal: compacting: %w", err)
		}
		deleted++
		if deleted == 1 {
			if err := l.hook(OpCheckpointCompact); err != nil {
				return err
			}
		}
	}
	kept = append(kept, l.segs[len(l.segs)-1])
	l.segs = kept
	l.bound = boundary
	l.retain = retain
	l.snap = append(l.snap[:0], snap.Bytes()...)
	l.stats.Checkpoints++
	return nil
}

// Segments returns the live segment indexes, ascending; the last one is
// the active (append) segment. Segments below the checkpoint boundary
// are retained history a CheckpointRetain preserved.
func (l *Log) Segments() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.segs...)
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Dir returns the log's root directory.
func (l *Log) Dir() string { return l.dir }

// Close syncs and releases the active segment. The log stays readable
// on a future Open.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.seg.Close()
}
