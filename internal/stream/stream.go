// Package stream is the durable notification change-stream: an
// offset-addressable log of fired notification reports layered on
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
// A Log shares its wal with an owner: the Reporter writes its
// notif/done/dead/redrive JSON records between the batches of its
// fired reports, so a report is written and synced once, in one log.
// Offsets count batch records only; readers step over owner frames. A
// checkpoint is the log compacted: an empty batch carrying the head
// offset, then the owner's frames, which Recover replays through the
// same callback as the frames of the tail.
//
// The write side (Log) is in-process with the owner; the read side
// (Reader, Cursor) works on the directory alone, so consumers in other
// processes (cmd/xysub stream) poll the same segments the writer
// appends to. Torn frames at the tail of the active segment — a writer
// crash, or a read racing an in-flight append — end a poll silently;
// the records re-appear once the writer completes or repairs them.
package stream

import (
	"encoding/json"
	"fmt"
	"math"
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
	// OpAppend fires on entry to Append (and so Publish), before the
	// batch is encoded.
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

func (e *TruncatedError) Unwrap() error { return ErrTruncated } //xyvet:ignore testonly errors.Is reaches it through the Unwrap interface

// Record is one notification report as published to the stream. Offset
// is assigned by the log and derived on read; it is never serialised.
type Record struct {
	Offset       uint64 `json:"-"`
	Subscription string `json:"sub"`
	// Origin is the subscription whose report a virtual follower's copy
	// repeats; empty on the original.
	Origin        string    `json:"origin,omitempty"`
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
	// MaxBehind is the retention floor: Checkpoint never preserves more
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
	FirstRetained    uint64 // oldest offset a Reader can still replay
	Records          uint64 // records appended this incarnation
	Segments         int
	TruncatedRecords uint64 // records reclaimed by retention this incarnation
	// Lags is every consumer's lag — records published but not yet
	// committed past — as the last Checkpoint read the cursors: the
	// stream's backpressure gauge. Nil before the first Checkpoint, and
	// after one that could not read them. Read-only.
	Lags map[string]uint64
	WAL  wal.Stats
}

// Log is the write side of the change-stream. Safe for concurrent use.
type Log struct {
	mu    sync.Mutex
	dir   string
	key   string
	o     Options
	w     *wal.Log
	next  uint64
	first uint64 // oldest retained offset; only Open and Checkpoint move it
	stats Stats
}

// Open opens (creating if needed) the stream rooted at dir, repairing
// wal crash residue (torn tail truncated) and recovering the head offset
// by scanning the retained segments' batch headers.
func Open(dir string, o Options) (*Log, error) {
	l := &Log{dir: dir, key: filepath.Base(dir), o: o}
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

// isBatch tells a batch frame from an owner's: owner payloads never
// start with the batch magic (see Write).
func isBatch(payload []byte) bool { return len(payload) > 0 && payload[0] == batchMagic }

// recoverIndex rebuilds next and first by reading batch headers from
// every retained segment, and validates that offsets are contiguous
// across the whole retained range — a phantom or missing batch fails
// recovery loudly.
func (l *Log) recoverIndex() error {
	// The newest batch recovery replays bounds the head: a checkpoint
	// opens with an empty batch at the head it was taken at, which is
	// what restores next when retention has reclaimed every batch.
	var head uint64
	err := l.w.Recover(func(payload []byte) error {
		if isBatch(payload) {
			base, count, err := decodeBatchHeader(payload)
			if err != nil {
				return err
			}
			head = max(head, base+uint64(count))
		}
		return nil
	})
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
		for off := 0; off < len(data); {
			payload, size, err := fr.Next(data[off:])
			if err != nil {
				// wal.Open already truncated the active segment's torn
				// tail and Recover verified the sealed ones, so any
				// undecodable frame here is damage.
				return fmt.Errorf("stream: segment %s at byte %d: %w", wal.SegmentFileName(idx), off, err)
			}
			off += size
			if !isBatch(payload) {
				continue
			}
			base, count, err := decodeBatchHeader(payload)
			if err != nil {
				return fmt.Errorf("stream: segment %s: %w", wal.SegmentFileName(idx), err)
			}
			if !seen {
				l.first = base
			} else if base != running {
				return fmt.Errorf("stream: segment %s: batch base %d, want %d (offset discontinuity)", wal.SegmentFileName(idx), base, running)
			}
			seen = true
			running = base + uint64(count)
		}
	}
	l.next = max(running, head)
	if !seen {
		l.first = l.next
	}
	return nil
}

// Recover replays the log for its owner, in log order — a checkpoint's
// records, then the tail after it: frame receives every owner frame and
// rec every stream record, with its offset. Call it once, after Open and
// before the first write.
func (l *Log) Recover(frame func(payload []byte) error, rec func(Record) error) error {
	return l.w.Recover(func(payload []byte) error {
		if !isBatch(payload) {
			return frame(payload)
		}
		base, recs, err := decodeBatch(payload)
		if err != nil {
			return err
		}
		for i, raw := range recs {
			var r Record
			if err := json.Unmarshal(raw, &r); err != nil {
				return fmt.Errorf("stream: record %d: %w", base+uint64(i), err)
			}
			r.Offset = base + uint64(i)
			if err := rec(r); err != nil {
				return err
			}
		}
		return nil
	})
}

// Write appends one owner frame in log order without making it durable;
// the next Sync does. The payload must not start with the batch magic (a
// JSON object never does). It holds Append's lock so Checkpoint's segment
// listing never reads a frame in flight.
func (l *Log) Write(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(payload)
}

// Append writes one batch of records in log order without making it
// durable, and returns the offset assigned to its first record. The
// batch is one CRC-framed wal write: a crash mid-append leaves a torn
// tail the next Open discards whole — never a phantom partial batch.
func (l *Log) Append(recs []Record) (uint64, error) {
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
	if err := l.w.Write(appendBatch(nil, base, encoded)); err != nil {
		return 0, err
	}
	l.next = base + uint64(len(recs))
	l.stats.Records += uint64(len(recs))
	return base, nil
}

// Sync is the commit barrier: one fsync covering every frame written so
// far, batches and owner frames alike.
func (l *Log) Sync() error { return l.w.Sync() }

// Publish durably appends one batch of records: Append, then Sync.
func (l *Log) Publish(recs []Record) (uint64, error) {
	base, err := l.Append(recs)
	if err != nil {
		return 0, err
	}
	return base, l.w.Sync()
}

// Checkpoint installs a checkpoint of the owner frames write emits
// (called under the owner's locks: the frames before them are never
// replayed again) behind an empty batch at the head offset, applies
// retention and returns the first retained offset. The owner emits what
// its Recover frame callback replays; a frame must not start with the
// batch magic.
//
// The keep bound is the slowest live cursor, raised to the MaxBehind
// floor: a consumer further behind no longer pins segments and will
// observe ErrTruncated. The segment holding the bound survives whole.
// Unreadable cursors do not stop the owner's compaction: retention keeps
// what a cursor at offset 0 would need, and their error follows.
func (l *Log) Checkpoint(write func(emit func(rec []byte) error) error) (uint64, error) {
	cursors, cerr := l.cursors()
	l.mu.Lock()
	defer l.mu.Unlock()
	// With no cursors only the floor reclaims (a stream nobody consumes
	// yet keeps what a late joiner replays); with no floor, nothing.
	keep := uint64(0)
	if len(cursors) > 0 {
		keep = l.next
	}
	var lags map[string]uint64
	if cerr == nil {
		lags = make(map[string]uint64, len(cursors))
	}
	for name, off := range cursors {
		keep = min(keep, off)
		lags[name] = l.next - min(off, l.next)
	}
	l.stats.Lags = lags
	if l.o.MaxBehind > 0 && l.next > l.o.MaxBehind {
		keep = max(keep, l.next-l.o.MaxBehind)
	}
	// The segment files are the offset index. Under l.mu no frame is in
	// flight, so each listed base is the segment's first batch.
	segs, err := listSegments(l.dir)
	if err != nil {
		return 0, err
	}
	retainSeg, first := math.MaxInt, l.next // every record passed: only the fresh segment stays
	if keep < l.next {
		retainSeg = 0 // the wal raises it to its oldest segment
		for _, s := range segs {
			if !s.hasBase {
				continue
			}
			if s.base > keep {
				if retainSeg == 0 {
					first = s.base // keep itself was reclaimed already
				}
				break
			}
			retainSeg, first = s.idx, s.base
		}
	}
	if err := l.w.CheckpointRetain(retainSeg, func(emit func([]byte) error) error {
		if err := emit(appendBatch(nil, l.next, nil)); err != nil {
			return err
		}
		return write(emit)
	}); err != nil {
		return 0, err
	}
	l.stats.TruncatedRecords += first - l.first
	l.first = first
	if cerr != nil {
		return first, fmt.Errorf("stream: checkpoint installed, retaining as for a cursor at offset 0: %w", cerr)
	}
	return first, nil
}

// cursors reads every consumer's committed offset.
func (l *Log) cursors() (map[string]uint64, error) {
	if err := l.hook(OpRead, "cursors"); err != nil {
		return nil, err
	}
	return readCursors(l.dir)
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Next = l.next
	st.FirstRetained = l.first
	st.Segments = len(l.w.Segments())
	st.WAL = l.w.Stats()
	return st
}

// Dir returns the stream's root directory.
func (l *Log) Dir() string { return l.dir }

// Close syncs and releases the underlying wal. The stream stays
// readable by directory Readers and on a future Open.
func (l *Log) Close() error { return l.w.Close() }
