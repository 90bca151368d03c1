package stream

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xymon/internal/wal"
)

// oracleReader is the full-rescan reader the tailing Reader replaced:
// every Poll lists the directory and reads each segment from the one
// holding the position, re-verifying every frame from byte 0 and
// stepping over owner frames. It is kept here, and only here, as the
// oracle the tail is held to.
type oracleReader struct {
	dir, consumer string
	next          uint64
}

func (r *oracleReader) Poll(max int) ([]Record, error) {
	startNext := r.next
	for attempt := 0; ; attempt++ {
		recs, err := r.read(max)
		if err != nil {
			r.next = startNext
			if os.IsNotExist(errors.Unwrap(err)) && attempt == 0 {
				continue
			}
			return nil, err
		}
		return recs, nil
	}
}

func (r *oracleReader) SeekOldest() (uint64, error) {
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
	return r.next, nil
}

func (r *oracleReader) read(max int) ([]Record, error) {
	segs, err := listSegments(r.dir)
	if err != nil {
		return nil, err
	}
	start := -1
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
	if !haveFirst {
		return nil, nil
	}
	if r.next < first {
		return nil, &TruncatedError{Consumer: r.consumer, Requested: r.next, First: first}
	}
	if start < 0 {
		return nil, nil
	}
	var out []Record
	for si := start; si < len(segs) && len(out) < max; si++ {
		done, err := r.readSegment(segs[si], max, &out)
		if err != nil || done {
			return out, err
		}
	}
	return out, nil
}

func (r *oracleReader) readSegment(s segInfo, max int, out *[]Record) (done bool, err error) {
	data, err := os.ReadFile(filepath.Join(r.dir, wal.SegmentFileName(s.idx)))
	if err != nil {
		if os.IsNotExist(err) {
			return true, fmt.Errorf("stream: segment vanished: %w", err)
		}
		return true, fmt.Errorf("stream: %w", err)
	}
	fr := wal.Binary{}
	off := 0
	for off < len(data) {
		payload, size, err := fr.Next(data[off:])
		if err != nil {
			if errors.Is(err, wal.ErrCorrupt) {
				return true, fmt.Errorf("stream: segment %s at byte %d: %w", wal.SegmentFileName(s.idx), off, err)
			}
			return true, nil
		}
		off += size
		if !isBatch(payload) {
			continue
		}
		base, recs, err := decodeBatch(payload)
		if err != nil {
			return true, fmt.Errorf("stream: segment %s: %w", wal.SegmentFileName(s.idx), err)
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
	}
	return false, nil
}

// rotate checkpoints the log keeping every segment, so the active
// segment rotates to a fresh, empty one without reclaiming anything.
func rotate(t *testing.T, l *Log) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	var hdr [snapHeader]byte
	binary.LittleEndian.PutUint64(hdr[:], l.next)
	if err := l.w.CheckpointRetain(l.w.Segments()[0], func(w io.Writer) error {
		_, err := w.Write(hdr[:])
		return err
	}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	l.indexNewSegments(l.next)
}

// ownerFrame is an owner's JSON record of about n bytes.
func ownerFrame(n int) []byte {
	return []byte(fmt.Sprintf(`{"t":"notif","pad":%q}`, strings.Repeat("o", n)))
}

// segmentShapes counts the segments on disk that start with an owner
// frame, and those of them that hold no batch.
func segmentShapes(t *testing.T, dir string) (ownerFirst, ownerOnly int) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		data, err := os.ReadFile(filepath.Join(dir, wal.SegmentFileName(s.idx)))
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if payload, _, err := (wal.Binary{}).Next(data); err == nil && !isBatch(payload) {
			ownerFirst++
			if !s.hasBase {
				ownerOnly++
			}
		}
	}
	return ownerFirst, ownerOnly
}

// errClass names the error classes a consumer can act on.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrTruncated):
		return "truncated"
	case errors.Is(err, wal.ErrCorrupt):
		return "corrupt"
	case errors.Is(err, ErrBadBatch):
		return "bad batch"
	}
	return "other: " + err.Error()
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Offset != y.Offset || x.Subscription != y.Subscription || !x.Time.Equal(y.Time) ||
			x.Notifications != y.Notifications || x.XML != y.XML {
			return false
		}
	}
	return true
}

// diffCoverage counts the situations a differential run reached, so the
// test can insist the interleavings exercised what they are meant to.
// ownerFirst and ownerOnly count polls made while some segment started
// with an owner frame, and while one held nothing else.
type diffCoverage struct {
	heldDeleted, truncated, cut, emptyRotations, reopens, seeks int
	ownerFirst, ownerOnly                                       int
}

// TestReaderMatchesRescanOracle drives the tailing Reader and the
// full-rescan oracle over the same stream through seeded interleavings
// of publishes and owner frames across rotations at 256-byte segments
// (so segments start with owner frames, or hold nothing else),
// retention with a MaxBehind floor (including deleting the segment the
// tail holds open), seeks both ways, SeekOldest, polls cut inside a
// batch, writer close/reopen and checkpoints rotating to an empty
// segment. Every poll must return the same records, every step leave
// the same Next, every failure carry the same class and the same
// TruncatedError detail.
func TestReaderMatchesRescanOracle(t *testing.T) {
	var cov diffCoverage
	for seed := uint64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { diffRun(t, seed, 250, &cov) })
	}
	t.Logf("coverage: %+v", cov)
	if cov.heldDeleted == 0 || cov.truncated == 0 || cov.cut == 0 || cov.emptyRotations == 0 || cov.reopens == 0 || cov.seeks == 0 ||
		cov.ownerFirst == 0 || cov.ownerOnly == 0 {
		t.Errorf("interleavings missed a case: %+v", cov)
	}
}

func diffRun(t *testing.T, seed uint64, steps int, cov *diffCoverage) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	dir := t.TempDir()
	o := Options{SegmentBytes: 256, MaxBehind: 12}
	l, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { l.Close() }()
	tail := openReader(t, dir, "tail", ReaderOptions{MaxFetch: 8})
	orc := &oracleReader{dir: dir, consumer: "tail"}

	seekOldest := func(step int) {
		got, gerr := tail.SeekOldest()
		want, werr := orc.SeekOldest()
		if got != want || errClass(gerr) != errClass(werr) {
			t.Fatalf("step %d: SeekOldest = %d, %v; oracle %d, %v", step, got, gerr, want, werr)
		}
	}
	poll := func(step int) int {
		if first, only := segmentShapes(t, dir); first > 0 {
			cov.ownerFirst++
			if only > 0 {
				cov.ownerOnly++
			}
		}
		max := 1 + rng.IntN(8)
		got, gerr := tail.Poll(max)
		want, werr := orc.Poll(max)
		if errClass(gerr) != errClass(werr) {
			t.Fatalf("step %d: Poll(%d) error %v, oracle %v", step, max, gerr, werr)
		}
		var gt, wt *TruncatedError
		if errors.As(gerr, &gt) {
			errors.As(werr, &wt)
			if *gt != *wt {
				t.Fatalf("step %d: truncation %+v, oracle %+v", step, *gt, *wt)
			}
			cov.truncated++
			if rng.IntN(2) == 0 {
				seekOldest(step)
			}
		}
		if !sameRecords(got, want) {
			t.Fatalf("step %d: Poll(%d) returned %d records from %v, oracle %d from %v",
				step, max, len(got), firstOffset(got), len(want), firstOffset(want))
		}
		// Publish names a record "S<batch size>" and counts its position
		// in the batch from 1 in Notifications.
		if n := len(got); n > 0 && got[n-1].Subscription != fmt.Sprint("S", got[n-1].Notifications) {
			cov.cut++
		}
		return len(got)
	}

	for step := 0; step < steps; step++ {
		switch op := rng.IntN(100); {
		case op < 10:
			for n := 1 + rng.IntN(3); n > 0; n-- {
				if err := l.Write(ownerFrame(rng.IntN(90))); err != nil {
					t.Fatalf("step %d: Write: %v", step, err)
				}
			}
		case op < 34:
			recs := make([]Record, 1+rng.IntN(3))
			for i := range recs {
				recs[i] = Record{Subscription: fmt.Sprint("S", len(recs)), Time: t0, Notifications: i + 1,
					XML: fmt.Sprintf("<r n=\"%d\" pad=%q/>", l.Next()+uint64(i), strings.Repeat("x", rng.IntN(40)))}
			}
			if _, err := l.Publish(recs); err != nil {
				t.Fatalf("step %d: Publish: %v", step, err)
			}
		case op < 62:
			poll(step)
		case op < 70:
			held := ""
			if tail.f != nil {
				held = tail.path
			}
			if _, err := checkpoint(l); err != nil {
				t.Fatalf("step %d: Checkpoint: %v", step, err)
			}
			if _, err := os.Stat(held); held != "" && errors.Is(err, os.ErrNotExist) {
				cov.heldDeleted++
			}
		case op < 74:
			rotate(t, l)
			cov.emptyRotations++
		case op < 81:
			off := tail.Next()
			if d := uint64(rng.IntN(10)); rng.IntN(2) == 0 {
				off += d
			} else if off > d {
				off -= d
			} else {
				off = 0
			}
			tail.Seek(off)
			orc.next = off
			cov.seeks++
		case op < 85:
			seekOldest(step)
		case op < 89:
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if l, err = Open(dir, o); err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
			cov.reopens++
		case op < 93:
			if err := tail.Commit(); err != nil {
				t.Fatal(err)
			}
		default:
			for poll(step) > 0 {
			}
		}
		if tail.Next() != orc.next {
			t.Fatalf("step %d: Next %d, oracle %d", step, tail.Next(), orc.next)
		}
	}
}

func firstOffset(recs []Record) any {
	if len(recs) == 0 {
		return "-"
	}
	return recs[0].Offset
}
