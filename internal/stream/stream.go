// Package stream is the durable notification change-stream: an
// offset-addressable log of delivered notification reports layered on
// internal/wal, with per-consumer durable cursors, replay from any
// retained offset, and a retention policy that turns a slow or dead
// subscriber into retained segments on disk instead of reporter memory.
//
// Offsets address individual records; a batch (one wal frame, CRC32C
// checked) is the append unit, and a record's offset is derived from
// the batch base, so offsets are contiguous by construction — the only
// gap a consumer can ever observe is retention truncation, which is
// reported as ErrTruncated, never silently skipped.
//
// The write side (Log) is in-process with the reporter; the read side
// (Reader, Cursor) works on the directory alone, so consumers in other
// processes (cmd/xysub stream) poll the same segments the writer
// appends to. Torn frames at the tail of the active segment — a writer
// crash, or a read racing an in-flight append — end a poll silently;
// the records re-appear once the writer completes or repairs them.
package stream

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"xymon/internal/wal"
)

// The named durability points of the stream, reported to the Hook. The
// type is wal.Hook so the op names join the same fault vocabulary the
// crash harness arms ModeCrash rules at. OpRead fires before any poll
// or recovery scan; an error there fails the read before any byte is
// returned.
const (
	// OpAppend fires on entry to Publish, before the batch is encoded.
	OpAppend = "stream.append"
	// OpRead fires before any segment or cursor bytes are read.
	OpRead = "stream.read"
	// OpCursorCommit fires on entry to Cursor.Commit, before anything is
	// written — the window between consuming a batch and making the new
	// offset durable.
	OpCursorCommit = "cursor.commit"
	// OpCursorInstall fires before the new offset reaches the cursor
	// file: after the first commit's temp file is written and fsynced,
	// before its rename; on every later commit, before the in-place slot
	// write. A crash here recovers to the previous offset.
	OpCursorInstall = "cursor.commit.install"
)

// ErrTruncated reports that retention reclaimed the requested offset.
// Errors carrying position detail are *TruncatedError values wrapping
// this sentinel. The re-sync path: Reader.SeekOldest (or Seek to
// TruncatedError.First), accept the gap, continue.
var ErrTruncated = fmt.Errorf("stream: offset truncated by retention")

// TruncatedError is the typed retention-gap error: the consumer's next
// offset is older than the oldest retained record.
type TruncatedError struct {
	Consumer  string
	Requested uint64
	First     uint64 // oldest retained offset; Seek here to re-sync
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("stream: consumer %s at offset %d truncated by retention (oldest retained %d)", e.Consumer, e.Requested, e.First)
}

func (e *TruncatedError) Unwrap() error { return ErrTruncated }

// Record is one notification report as published to the stream. Offset
// is assigned by the log and derived on read; it is never serialised.
type Record struct {
	Offset        uint64    `json:"-"`
	Subscription  string    `json:"sub"`
	Time          time.Time `json:"time"`
	Notifications int       `json:"n,omitempty"`
	XML           string    `json:"xml,omitempty"`
}

// Options configures a stream Log.
type Options struct {
	// SegmentBytes rotates the underlying wal segment at this size;
	// 0 means the wal default (1 MiB). Retention granularity is the
	// segment, so smaller segments reclaim space sooner.
	SegmentBytes int64
	// MaxBehind is the retention floor: Retain never preserves more
	// than this many records behind the head, even for a live lagging
	// cursor — the consumer is truncated (ErrTruncated + re-sync)
	// instead of pinning disk forever. 0 means no floor: every record
	// some live cursor still needs is kept, and a dead consumer pins
	// segments until its cursor file is removed.
	MaxBehind uint64
	// Hook, when non-nil, is consulted at every Op point. It is also
	// passed through to the underlying wal, whose ops fire with the
	// stream directory's base name as the key.
	Hook wal.Hook
}

// Stats counts a Log's activity.
type Stats struct {
	Next             uint64 // next offset to be assigned
	FirstRetained    uint64 // oldest offset still on disk
	Batches          uint64 // batches appended this incarnation
	Records          uint64 // records appended this incarnation
	Segments         int
	TruncatedRecords uint64 // records reclaimed by retention this incarnation
}

// Log is the write side of the change-stream. Safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	dir     string
	key     string
	o       Options
	w       *wal.Log
	next    uint64
	segBase map[int]uint64 // first offset landing in each live segment
	rotated uint64         // wal rotations segBase has accounted for
	stats   Stats
}

// Open opens (creating if needed) the stream rooted at dir, repairing
// wal crash residue (torn tail truncated) and rebuilding the offset
// index by scanning the retained segments' batch headers.
func Open(dir string, o Options) (*Log, error) {
	l := &Log{dir: dir, key: filepath.Base(dir), o: o, segBase: make(map[int]uint64)}
	if err := l.hook(OpRead, l.key); err != nil {
		return nil, err
	}
	w, err := wal.Open(dir, wal.Options{SegmentBytes: o.SegmentBytes, Hook: o.Hook})
	if err != nil {
		return nil, err
	}
	l.w = w
	if err := l.recoverIndex(); err != nil {
		_ = w.Close()
		return nil, err
	}
	return l, nil
}

func (l *Log) hook(op, key string) error {
	if l.o.Hook == nil {
		return nil
	}
	return l.o.Hook(op, key)
}

// streamSnapshot is the wal checkpoint payload: enough to restore the
// head offset when retention has reclaimed every batch-bearing segment.
type streamSnapshot struct {
	Next uint64 `json:"next"`
}

// recoverIndex rebuilds next and the per-segment base-offset index by
// reading batch headers from every retained segment, and validates that
// offsets are contiguous across the whole retained range — a phantom or
// missing batch fails recovery loudly.
func (l *Log) recoverIndex() error {
	var snapNext uint64
	err := l.w.Recover(func(snapshot []byte) error {
		var s streamSnapshot
		if err := json.Unmarshal(snapshot, &s); err != nil {
			return fmt.Errorf("stream: snapshot: %w", err)
		}
		snapNext = s.Next
		return nil
	}, nil)
	if err != nil {
		return err
	}

	fr := wal.Binary{}
	running := uint64(0)
	seen := false
	for _, idx := range l.w.Segments() {
		data, err := os.ReadFile(filepath.Join(l.dir, wal.SegmentFileName(idx)))
		if err != nil {
			if os.IsNotExist(err) {
				continue // empty active segment not yet created on disk
			}
			return fmt.Errorf("stream: %w", err)
		}
		off := 0
		for off < len(data) {
			payload, size, err := fr.Next(data[off:])
			if err != nil {
				// wal.Open already truncated the active segment's torn
				// tail and Recover verified the sealed ones, so any
				// undecodable frame here is damage.
				return fmt.Errorf("stream: segment %s at byte %d: %w", wal.SegmentFileName(idx), off, err)
			}
			base, count, err := decodeBatchHeader(payload)
			if err != nil {
				return fmt.Errorf("stream: segment %s: %w", wal.SegmentFileName(idx), err)
			}
			if seen && base != running {
				return fmt.Errorf("stream: segment %s: batch base %d, want %d (offset discontinuity)", wal.SegmentFileName(idx), base, running)
			}
			if !seen {
				seen = true
			}
			if _, ok := l.segBase[idx]; !ok {
				l.segBase[idx] = base
			}
			running = base + uint64(count)
			off += size
		}
	}
	l.next = running
	if !seen || snapNext > l.next {
		l.next = snapNext
	}
	// Segments with no batch yet (rotation residue) start at next.
	l.indexNewSegments(l.next)
	return nil
}

// indexNewSegments records base as the first offset of every live
// segment the index has not seen yet, and notes the wal's rotation
// count so Publish can tell when to call it again.
func (l *Log) indexNewSegments(base uint64) {
	for _, idx := range l.w.Segments() {
		if _, ok := l.segBase[idx]; !ok {
			l.segBase[idx] = base
		}
	}
	l.rotated = l.w.Stats().Rotations
}

// Next returns the offset the next published record will be assigned.
func (l *Log) Next() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Publish durably appends one batch of records and returns the offset
// assigned to its first record. The append is one CRC-framed wal write:
// a crash mid-append leaves a torn tail the next Open discards whole —
// never a phantom partial batch.
func (l *Log) Publish(recs []Record) (uint64, error) {
	if err := l.hook(OpAppend, l.key); err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(recs) == 0 {
		return l.next, nil
	}
	base := l.next
	encoded := make([][]byte, len(recs))
	for i := range recs {
		b, err := json.Marshal(&recs[i])
		if err != nil {
			return 0, fmt.Errorf("stream: encoding record: %w", err)
		}
		encoded[i] = b
	}
	if err := l.w.Append(appendBatch(nil, base, encoded)); err != nil {
		return 0, err
	}
	l.next = base + uint64(len(recs))
	if l.w.Stats().Rotations != l.rotated {
		// The append rotated: the new segment's first batch is this one.
		l.indexNewSegments(base)
	}
	l.stats.Batches++
	l.stats.Records += uint64(len(recs))
	return base, nil
}

// firstRetainedLocked is the oldest offset still on disk.
func (l *Log) firstRetainedLocked() uint64 {
	first := l.next
	for _, idx := range l.w.Segments() {
		if b, ok := l.segBase[idx]; ok && b < first {
			first = b
		}
	}
	return first
}

// FirstRetained returns the oldest offset a Reader can still replay.
func (l *Log) FirstRetained() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstRetainedLocked()
}

// Retain applies the retention policy and returns the first retained
// offset afterwards. The keep bound is the slowest live cursor, raised
// to the MaxBehind floor: a consumer more than MaxBehind records behind
// the head no longer pins segments and will observe ErrTruncated.
// Granularity is the wal segment — the segment containing the keep
// bound survives whole.
func (l *Log) Retain() (uint64, error) {
	if err := l.hook(OpRead, "cursors"); err != nil {
		return 0, err
	}
	cursors, err := readCursors(l.dir)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// The keep bound: the slowest live cursor, raised to the floor. With
	// no cursors at all, exactly the floor window survives (a stream
	// nobody consumes yet must not discard what a late joiner replays);
	// with no floor either, nothing is ever reclaimed.
	keep := uint64(0)
	if len(cursors) > 0 {
		keep = l.next
		for _, off := range cursors {
			if off < keep {
				keep = off
			}
		}
	}
	if l.o.MaxBehind > 0 && l.next > l.o.MaxBehind {
		if floor := l.next - l.o.MaxBehind; keep < floor {
			keep = floor
		}
	}
	segs := l.w.Segments()
	retainSeg := segs[0]
	for _, idx := range segs {
		if base, ok := l.segBase[idx]; ok && base <= keep {
			retainSeg = idx
		}
	}
	if retainSeg == segs[0] {
		return l.firstRetainedLocked(), nil // nothing to reclaim
	}
	before := l.firstRetainedLocked()
	snap, err := json.Marshal(streamSnapshot{Next: l.next})
	if err != nil {
		return 0, fmt.Errorf("stream: %w", err)
	}
	if err := l.w.CheckpointRetain(retainSeg, func(w io.Writer) error {
		_, err := w.Write(snap)
		return err
	}); err != nil {
		return 0, err
	}
	for idx := range l.segBase {
		if idx < retainSeg {
			delete(l.segBase, idx)
		}
	}
	// The checkpoint rotated: the fresh active segment starts at next.
	l.indexNewSegments(l.next)
	first := l.firstRetainedLocked()
	l.stats.TruncatedRecords += first - before
	return first, nil
}

// Lags returns every consumer's lag — records published but not yet
// committed past — the stream's backpressure gauge.
func (l *Log) Lags() (map[string]uint64, error) {
	if err := l.hook(OpRead, "cursors"); err != nil {
		return nil, err
	}
	cursors, err := readCursors(l.dir)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	lags := make(map[string]uint64, len(cursors))
	for name, off := range cursors {
		if off > l.next {
			off = l.next
		}
		lags[name] = l.next - off
	}
	return lags, nil
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Next = l.next
	st.FirstRetained = l.firstRetainedLocked()
	st.Segments = len(l.w.Segments())
	return st
}

// Dir returns the stream's root directory.
func (l *Log) Dir() string { return l.dir }

// Close syncs and releases the underlying wal. The stream stays
// readable by directory Readers and on a future Open.
func (l *Log) Close() error { return l.w.Close() }
