package stream

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"xymon/internal/wal"
)

// DefaultMaxFetch bounds the records one Poll returns when the caller
// does not — the backpressure half of the contract: a consumer pulls
// bounded batches at its own pace instead of the reporter pushing
// unbounded queues at it.
const DefaultMaxFetch = 256

// ReaderOptions configures a Reader.
type ReaderOptions struct {
	// Hook, when non-nil, is consulted at OpRead before every poll and
	// at the cursor commit points, with the consumer name as the key.
	Hook wal.Hook
	// MaxFetch caps records per Poll; 0 means DefaultMaxFetch.
	MaxFetch int
}

// Reader is the consume side of the stream: it polls batches from the
// segment files directly (no writer handle needed, so it works from
// another process), skipping the owner's frames between them, tracks
// its position in memory, and commits it durably through a Cursor. Not
// safe for concurrent use — one Reader per consumer goroutine, which is
// what a cursor means anyway.
//
// A Reader tails: it holds the segment it reads open between polls, so
// a Poll reads only what was appended since the last one. It re-lists
// the directory (where ErrTruncated is decided) on its first Poll, after
// Seek, SeekOldest or a failed Poll, and when the held segment was
// deleted, replaced or shrunk. That segment descriptor is
// held until Close, which also closes the cursor's; unclosed, it pins
// reclaimed disk for at most one Poll, the first after retention
// deletes the segment dropping it.
type Reader struct {
	dir      string
	consumer string
	o        ReaderOptions
	cur      *Cursor
	next     uint64

	f        *os.File    // the held segment; nil: the next Poll re-lists
	fi       os.FileInfo // f's identity, checked against a stat of path
	idx      int
	path     string // f's segment file
	nextPath string // the segment after it, whose existence seals f
	pos      int64  // byte offset of the first frame not wholly returned
	buf      []byte // read buffer, reused across polls
}

// OpenReader opens the named consumer's view of the stream rooted at
// dir, resuming from its recovered cursor — the last committed offset,
// so anything consumed but not committed before a crash replays.
func OpenReader(dir, consumer string, o ReaderOptions) (*Reader, error) {
	cur, err := OpenCursor(dir, consumer, o.Hook)
	if err != nil {
		return nil, err
	}
	if o.MaxFetch <= 0 {
		o.MaxFetch = DefaultMaxFetch
	}
	return &Reader{dir: dir, consumer: consumer, o: o, cur: cur, next: cur.Offset()}, nil
}

func (r *Reader) consult(op string) error {
	if r.o.Hook == nil {
		return nil
	}
	return r.o.Hook(op, r.consumer)
}

// Next returns the offset of the next record Poll will return.
func (r *Reader) Next() uint64 { return r.next }

// Committed returns the durably committed cursor offset.
func (r *Reader) Committed() uint64 { return r.cur.Offset() }

// Seek repositions the reader (in memory; Commit makes it durable).
func (r *Reader) Seek(off uint64) {
	r.drop()
	r.next = off
}

// Commit durably commits the reader's position: every record returned
// by Poll so far is acknowledged and will not replay.
func (r *Reader) Commit() error { return r.cur.Commit(r.next) }

// Close releases the descriptors the reader holds: the segment it tails
// and its cursor's file. A later Poll or Commit opens them again.
func (r *Reader) Close() error {
	r.drop()
	return r.cur.Close()
}

// drop closes the held segment, so the next Poll re-lists. Closing a
// descriptor that was only read from reports nothing a reader could act
// on.
func (r *Reader) drop() {
	if r.f != nil {
		_ = r.f.Close()
		r.f, r.fi = nil, nil
	}
}

// Poll returns up to max records from the reader's position, advancing
// it past what was returned. An empty result means the consumer is
// caught up (or the writer's tail is mid-append — poll again later).
// If retention reclaimed the position, Poll returns a *TruncatedError
// wrapping ErrTruncated; re-sync via SeekOldest and accept the gap.
func (r *Reader) Poll(max int) ([]Record, error) {
	if max <= 0 || max > r.o.MaxFetch {
		max = r.o.MaxFetch
	}
	if err := r.consult(OpRead); err != nil {
		return nil, err
	}
	// Retention in the writer process can delete a segment between our
	// directory listing and the open; one retry re-lists. On any error
	// the position rolls back and the next pass re-lists, so a later
	// Poll cannot skip the records a failed pass consumed in memory.
	startNext := r.next
	for attempt := 0; ; attempt++ {
		recs, err := r.read(max)
		if err != nil {
			r.next = startNext
			r.drop()
			if errors.Is(err, fs.ErrNotExist) && attempt == 0 {
				continue
			}
			return nil, err
		}
		return recs, nil
	}
}

// SeekOldest repositions the reader at the oldest retained offset — the
// documented re-sync path after ErrTruncated — and returns it.
func (r *Reader) SeekOldest() (uint64, error) {
	if err := r.consult(OpRead); err != nil {
		return 0, err
	}
	r.drop()
	segs, err := listSegments(r.dir)
	if err != nil {
		return 0, err
	}
	for _, s := range segs {
		if s.hasBase {
			r.next = s.base
			return s.base, nil
		}
	}
	// No batch anywhere: nothing retained; stay put.
	return r.next, nil
}

// segInfo is one on-disk segment and the base offset of its first
// batch, when it has one (a freshly rotated segment may be empty).
type segInfo struct {
	idx     int
	base    uint64
	hasBase bool
}

// listSegments lists the stream's segment files with their base
// offsets, ascending. Only frame and batch headers are read.
func listSegments(dir string) ([]segInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	var idxs []int
	for _, e := range entries {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "seg-%08d.wal", &idx); err == nil {
			idxs = append(idxs, idx)
		}
	}
	sort.Ints(idxs)
	segs := make([]segInfo, 0, len(idxs))
	for _, idx := range idxs {
		s := segInfo{idx: idx}
		base, ok, err := readSegBase(filepath.Join(dir, wal.SegmentFileName(idx)))
		if err != nil {
			return nil, err
		}
		s.base, s.hasBase = base, ok
		segs = append(segs, s)
	}
	return segs, nil
}

// readSegBase decodes the base offset of a segment's first batch,
// stepping over the owner frames before it by their length fields. ok
// is false while the segment holds no batch header yet: it is empty,
// holds owner frames only, or its first batch is still being written.
func readSegBase(path string) (base uint64, ok bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil // deleted by retention mid-listing
		}
		return 0, false, fmt.Errorf("stream: %w", err)
	}
	defer f.Close()
	// Frame header (8) + batch header is all decodeBatchHeader needs;
	// the full-frame CRC is checked when the records are polled.
	var hdr [8 + batchHeader]byte
	for off := int64(0); ; {
		n, _ := f.ReadAt(hdr[:], off)
		if n <= 8 {
			return 0, false, nil // the data ends, or a torn frame header
		}
		if size := binary.LittleEndian.Uint32(hdr[:4]); size == 0 || hdr[8] != batchMagic {
			off += 8 + int64(size)
			continue
		}
		if n < len(hdr) {
			return 0, false, nil // torn-short first batch
		}
		if base, _, err = decodeBatchHeader(hdr[8:]); err != nil {
			return 0, false, fmt.Errorf("stream: %s: %w", filepath.Base(path), err)
		}
		return base, true, nil
	}
}

// read performs one poll pass: from the held segment when it is still
// the one on disk, else from a fresh listing.
func (r *Reader) read(max int) ([]Record, error) {
	if r.f != nil {
		if st, err := os.Stat(r.path); err != nil || !os.SameFile(r.fi, st) || st.Size() < r.pos {
			r.drop() // deleted, replaced or shrunk
		}
	}
	if r.f == nil {
		if err := r.relist(); err != nil || r.f == nil {
			return nil, err
		}
	}
	var out []Record
	for {
		// The wal numbers segments contiguously and creates the next one
		// when it rotates: once that exists, the held one is sealed and
		// its size, taken after, final.
		nf, err := os.Open(r.nextPath)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return out, fmt.Errorf("stream: %w", err)
		}
		stop, err := r.frames(max, &out)
		if nf == nil || stop || err != nil {
			if nf != nil {
				nf.Close()
			}
			return out, err
		}
		if err := r.hold(nf, r.idx+1); err != nil {
			return out, err
		}
	}
}

// relist finds the segment holding the reader's position from a
// directory listing and holds it from its first byte: the last one
// whose first batch is at or before the position or, when no segment
// holds a batch yet, the oldest — a batch the listing found half-written
// may be whole by now. f stays nil when there is no segment.
func (r *Reader) relist() error {
	segs, err := listSegments(r.dir)
	if err != nil || len(segs) == 0 {
		return err
	}
	start := 0
	var first uint64
	haveFirst := false
	for i, s := range segs {
		if !s.hasBase {
			continue
		}
		if !haveFirst {
			first, haveFirst = s.base, true
		}
		if s.base <= r.next {
			start = i
		}
	}
	if haveFirst && r.next < first {
		return &TruncatedError{Consumer: r.consumer, Requested: r.next, First: first}
	}
	idx := segs[start].idx
	f, err := os.Open(filepath.Join(r.dir, wal.SegmentFileName(idx)))
	if err != nil {
		return fmt.Errorf("stream: segment vanished: %w", err)
	}
	return r.hold(f, idx)
}

// hold makes f, segment idx, the tailed segment from its first byte,
// closing the previous one.
func (r *Reader) hold(f *os.File, idx int) error {
	r.drop()
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("stream: %w", err)
	}
	r.f, r.fi, r.idx, r.pos = f, fi, idx, 0
	r.path = filepath.Join(r.dir, wal.SegmentFileName(idx))
	r.nextPath = filepath.Join(r.dir, wal.SegmentFileName(idx+1))
	return nil
}

// frames reads the held segment from pos to its end and decodes it
// frame by frame, CRC and batch validation before any record of a frame
// is returned, appending records at or past the reader's position to
// out, up to max; owner frames are stepped over. pos moves past every
// frame wholly returned, so a max cut inside a batch leaves it at that
// batch. stop reports max reached or a torn frame: the writer is
// mid-append (or crashed; its next Open truncates the frame) and durable
// data ends there for now. A batch starting past the position means
// retention reclaimed the records between while no retained segment
// held a batch: the tail reports the truncation the listing could not.
func (r *Reader) frames(max int, out *[]Record) (stop bool, err error) {
	end, err := r.f.Seek(0, io.SeekEnd)
	if err != nil {
		return true, fmt.Errorf("stream: %w", err)
	}
	n := int(end - r.pos)
	if n <= 0 {
		return false, nil
	}
	r.buf = slices.Grow(r.buf[:0], n)[:n]
	m, err := r.f.ReadAt(r.buf, r.pos)
	if err != nil && err != io.EOF {
		return true, fmt.Errorf("stream: %w", err)
	}
	data := r.buf[:m]
	fr := wal.Binary{}
	for len(data) > 0 {
		payload, size, err := fr.Next(data)
		if err != nil {
			if errors.Is(err, wal.ErrCorrupt) {
				return true, fmt.Errorf("stream: segment %s at byte %d: %w", wal.SegmentFileName(r.idx), r.pos, err)
			}
			return true, nil
		}
		if !isBatch(payload) {
			data = data[size:]
			r.pos += int64(size)
			continue
		}
		base, recs, err := decodeBatch(payload)
		if err != nil {
			return true, fmt.Errorf("stream: segment %s: %w", wal.SegmentFileName(r.idx), err)
		}
		if base > r.next {
			return true, &TruncatedError{Consumer: r.consumer, Requested: r.next, First: base}
		}
		for i, raw := range recs {
			o := base + uint64(i)
			if o < r.next {
				continue
			}
			if len(*out) >= max {
				return true, nil
			}
			var rec Record
			if err := json.Unmarshal(raw, &rec); err != nil {
				return true, fmt.Errorf("stream: record %d: %w", o, err)
			}
			rec.Offset = o
			*out = append(*out, rec)
			r.next = o + 1
		}
		data = data[size:]
		r.pos += int64(size)
	}
	return len(*out) >= max, nil
}
