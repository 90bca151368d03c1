package wal

import (
	"encoding/json"
	"errors"
	"fmt"
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
	// MaxFrame caps record size; 0 means DefaultMaxFrame.
	MaxFrame int
	// Hook, when non-nil, is consulted at every Op point with the log's
	// key (the directory's base name).
	Hook Hook
}

// Stats counts a Log's activity.
type Stats struct {
	Rotations uint64
	// TornBytes counts bytes truncated from the active segment when the
	// log was opened — the residue of a crash mid-append.
	TornBytes int64
}

// Log is a segmented, checkpointed write-ahead log: binary frames in
// rotated append-only segment files, plus a checkpoint installed
// atomically (temp file → fsync → rename → parent-dir fsync) whose
// installation compacts away every segment it covers. A checkpoint is
// the log compacted: records in the segments' frames, replayed by the
// same callback as the tail. Safe for concurrent use. Recovery contract:
// Open, then Recover, then Append.
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
	fr  Binary

	seg    *File // active segment
	segs   []int // live segment indexes, ascending; last is active
	closed bool
	stats  Stats
}

const (
	checkpointName = "checkpoint.wal"
	checkpointTmp  = "checkpoint.tmp"
)

// SegmentFileName returns the file name (inside the log directory) of
// the segment with the given index. Layered readers — internal/stream's
// offset-addressable change-stream — locate retained segments by it.
func SegmentFileName(idx int) string { return fmt.Sprintf("seg-%08d.wal", idx) }

// Segments lists the indexes of the segment files in a log directory,
// ascending. The error is os.ReadDir's.
func Segments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idxs []int
	for _, e := range entries {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "seg-%08d.wal", &idx); err == nil {
			idxs = append(idxs, idx)
		}
	}
	sort.Ints(idxs)
	return idxs, nil
}

// checkpointMeta is the first frame of a checkpoint file; the records
// the checkpoint holds follow it, a frame each.
type checkpointMeta struct {
	// Boundary is the first segment index NOT covered by the checkpoint:
	// recovery replays its records, then segments ≥ Boundary.
	Boundary int `json:"boundary"`
	// Retain is the first segment index preserved on disk. Checkpoints
	// written by CheckpointRetain keep covered segments in [Retain,
	// Boundary) readable for layered consumers; plain Checkpoint leaves
	// it 0, which means "same as Boundary" (nothing extra retained).
	Retain int `json:"retain,omitempty"`
	// Records marks the format: the checkpoint holds records, not the
	// one snapshot frame of earlier builds, which this build cannot read.
	Records bool `json:"records"`
}

// errEarlierBuild reports a checkpoint whose meta lacks the records
// marker: a snapshot in an owner's encoding of an earlier build.
var errEarlierBuild = errors.New("holds a checkpoint of an earlier build; open it with that build, or remove the directory to start empty")

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
	l := &Log{dir: dir, key: filepath.Base(dir), o: o, fr: Binary{MaxFrame: o.MaxFrame}}
	// A temp file means the crash hit before the rename: the checkpoint
	// was never installed and the previous one (if any) still rules.
	if err := os.Remove(filepath.Join(dir, checkpointTmp)); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("wal: %w", err)
	}
	meta, _, err := l.readCheckpoint()
	if err != nil {
		return nil, err
	}
	if err := l.loadSegments(meta); err != nil {
		return nil, err
	}
	return l, nil
}

// readCheckpoint reads the installed checkpoint: its meta, with Retain
// resolved, and its record frames — Boundary 1 and no records when there
// is none. Open validates it and Recover reads it again, so the log
// keeps no copy. The install is atomic, so a present-but-unreadable
// checkpoint is damage, not a crash artifact.
func (l *Log) readCheckpoint() (checkpointMeta, []byte, error) {
	data, err := os.ReadFile(filepath.Join(l.dir, checkpointName))
	if os.IsNotExist(err) {
		return checkpointMeta{Boundary: 1, Retain: 1}, nil, nil
	}
	if err != nil {
		return checkpointMeta{}, nil, fmt.Errorf("wal: %w", err)
	}
	metaRaw, n, err := l.fr.Next(data)
	if err != nil {
		return checkpointMeta{}, nil, fmt.Errorf("wal: checkpoint header: %w", errors.Join(ErrCorrupt, err))
	}
	var meta checkpointMeta
	if err := json.Unmarshal(metaRaw, &meta); err != nil || meta.Boundary < 1 {
		return checkpointMeta{}, nil, fmt.Errorf("%w: checkpoint meta %q", ErrCorrupt, metaRaw)
	}
	if !meta.Records {
		return checkpointMeta{}, nil, fmt.Errorf("wal: %s %w", l.dir, errEarlierBuild)
	}
	if meta.Retain < 0 || meta.Retain > meta.Boundary {
		return checkpointMeta{}, nil, fmt.Errorf("%w: checkpoint retain %d outside [0, %d]", ErrCorrupt, meta.Retain, meta.Boundary)
	}
	recs := data[n:]
	if valid, err := scan(recs, l.fr, nil); err != nil || valid != len(recs) {
		return checkpointMeta{}, nil, fmt.Errorf("wal: checkpoint records: %w", errors.Join(ErrCorrupt, err))
	}
	if meta.Retain == 0 {
		meta.Retain = meta.Boundary
	}
	return meta, recs, nil
}

// loadSegments lists the segment files, deletes the ones the checkpoint
// covers (compaction the crash interrupted), verifies contiguity,
// truncates the active segment's torn tail, and opens it for append.
func (l *Log) loadSegments(meta checkpointMeta) error {
	idxs, err := Segments(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	live := idxs[:0]
	for _, idx := range idxs {
		if idx < meta.Retain {
			if err := os.Remove(filepath.Join(l.dir, SegmentFileName(idx))); err != nil {
				return fmt.Errorf("wal: removing covered segment: %w", err)
			}
			continue
		}
		live = append(live, idx)
	}
	if len(live) == 0 {
		live = append(live, meta.Boundary)
	}
	for i, idx := range live {
		if idx != live[0]+i {
			return fmt.Errorf("%w: segment %d missing (have %v)", ErrCorrupt, live[0]+i, live)
		}
	}
	l.segs = append([]int(nil), live...)

	// Only the most recent segment can carry a torn tail; verify it and
	// truncate the residue before any append lands behind it.
	active := filepath.Join(l.dir, SegmentFileName(l.segs[len(l.segs)-1]))
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
	return OpenFile(path, l.fr, func(op, _ string) error { return l.hook(op) })
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
	return l.seg.Write(payload)
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
	seg, err := l.openSegment(filepath.Join(l.dir, SegmentFileName(next)))
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

// Recover replays to replay, in order, the records of the latest
// checkpoint (if any), read from the checkpoint file, then every record
// appended after it: the checkpoint is the log compacted, so one replay
// function serves both. Call it after Open and before the first Append.
// Sealed segments must be fully intact — a torn frame there is damage,
// not a crash artifact (only the active segment can be torn, and Open
// already truncated it).
func (l *Log) Recover(replay func(payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	meta, recs, err := l.readCheckpoint()
	if err != nil {
		return err
	}
	// Recover's callback runs under l.mu by contract: recovery happens
	// before the first Append, and the callback rebuilds caller state
	// without calling back into the log.
	if _, err := scan(recs, l.fr, replay); err != nil {
		return err
	}
	for _, idx := range l.segs {
		if idx < meta.Boundary {
			// Retained below the boundary: the checkpoint already covers
			// these records; they stay on disk for layered readers, not
			// for replay.
			continue
		}
		data, err := os.ReadFile(filepath.Join(l.dir, SegmentFileName(idx)))
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		valid, err := scan(data, l.fr, replay)
		if err != nil {
			return fmt.Errorf("wal: segment %s: %w", SegmentFileName(idx), err)
		}
		if valid < len(data) {
			return fmt.Errorf("%w: torn frame inside sealed segment %s", ErrCorrupt, SegmentFileName(idx))
		}
	}
	return nil
}

// Checkpoint installs the records write emits, each framed like a
// segment's, and compacts away every log record they cover. Replayed by
// the Recover callback the tail uses, they must restore the state after
// every record appended so far — the caller serialises its own mutations
// against Checkpoint (every adopter holds its state locks across this
// call). The install is atomic: temp file → fsync → rename → parent-dir
// fsync; a crash at any point leaves either the old checkpoint with its
// segments or the new one, never a mix recovery cannot read.
func (l *Log) Checkpoint(write func(emit func(rec []byte) error) error) error {
	return l.checkpoint(-1, write)
}

// CheckpointRetain is Checkpoint with a segment-retention bound: the
// checkpoint still covers every record appended so far, but segments
// with index ≥ retain survive compaction and reopen. Recovery replays
// only records after the checkpoint's boundary; the retained segments
// are data a layered reader (internal/stream) addresses directly. retain
// is clamped to [oldest live segment, boundary]; retain == boundary is
// plain Checkpoint.
func (l *Log) CheckpointRetain(retain int, write func(emit func(rec []byte) error) error) error {
	return l.checkpoint(retain, write)
}

func (l *Log) checkpoint(retain int, write func(emit func(rec []byte) error) error) error {
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

	meta := checkpointMeta{Boundary: boundary, Records: true}
	if retain < boundary {
		meta.Retain = retain
	}
	metaRaw, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	buf, err := l.fr.AppendFrame(nil, metaRaw)
	if err != nil {
		return err
	}
	// The writer runs under l.mu so no append can land between the
	// boundary rotation and the records; adopters hold their own state
	// locks across Checkpoint and must not call back into the log.
	//xyvet:ignore lockcheck
	if err := write(func(rec []byte) (err error) {
		buf, err = l.fr.AppendFrame(buf, rec)
		return err
	}); err != nil {
		return fmt.Errorf("wal: checkpoint records: %w", err)
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
		if err := os.Remove(filepath.Join(l.dir, SegmentFileName(idx))); err != nil {
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
