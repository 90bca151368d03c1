package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xymon/internal/wal"
)

// FuzzStreamRecords throws arbitrary bytes at the batch codec. Whatever
// the input, decoding must terminate without panicking, never read past
// the payload, and either reject the batch whole (ErrBadBatch) or
// return records whose re-encode reproduces the input exactly — a batch
// decodes whole or not at all, so a truncated or bit-flipped payload
// can never surface as a phantom partial batch.
func FuzzStreamRecords(f *testing.F) {
	seed := func(base uint64, recs ...[]byte) []byte {
		return appendBatch(nil, base, recs)
	}
	f.Add([]byte{})
	f.Add(seed(0, []byte(`{"sub":"S"}`)))
	f.Add(seed(41, []byte("a"), []byte(""), bytes.Repeat([]byte("x"), 300)))
	f.Add(seed(7, []byte("torn"))[:9])
	f.Add([]byte{batchMagic, batchVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		base, recs, err := decodeBatch(data)
		if err != nil {
			if !errors.Is(err, ErrBadBatch) {
				t.Fatalf("decode error is not ErrBadBatch: %v", err)
			}
			return
		}
		// Derived offsets must not wrap around.
		if base+uint64(len(recs)) < base {
			t.Fatalf("offset wrap: base=%d count=%d", base, len(recs))
		}
		// Round-trip: what the decoder accepts, the encoder produces.
		rebuilt := appendBatch(nil, base, recs)
		if !bytes.Equal(rebuilt, data) {
			t.Fatalf("re-encode mismatch: %d bytes in, %d rebuilt", len(data), len(rebuilt))
		}
		// The header-only decoder agrees with the full one.
		hbase, hcount, herr := decodeBatchHeader(data)
		if herr != nil || hbase != base || hcount != len(recs) {
			t.Fatalf("header decode disagrees: %d/%d/%v vs %d/%d", hbase, hcount, herr, base, len(recs))
		}
	})
}

// FuzzReaderTail writes batch frames, with owner frames between them,
// into a segment file in fuzzed pieces, draining a tailing Reader after
// each piece: it must return exactly the records of the batches wholly
// written so far, in offset order, each once — a torn frame surfaces
// nothing until its last byte lands, and owner frames never surface. A
// size byte from ownerByte up writes an owner frame instead of a
// record, so the segment can start with owner frames or hold nothing
// else. Batches hold one to three records, each record's XML as long as
// its size byte. A nonzero flip damages one byte of the last frame —
// past the batch header if it is a batch: once that frame is complete
// the poll fails with wal.ErrCorrupt and Next stays at the records
// actually returned.
func FuzzReaderTail(f *testing.F) {
	f.Add([]byte{4, 4}, make([]byte, 128), uint8(0), uint16(0))  // one batch, byte by byte
	f.Add([]byte{1, 10}, make([]byte, 128), uint8(0), uint16(5)) // a damaged one, byte by byte
	f.Add([]byte{0, 3, 200, 7, 1, 1, 90}, []byte{7, 30, 2, 63}, uint8(2), uint16(0))
	f.Add([]byte{5, 5, 5, 5, 5, 5}, []byte{40}, uint8(1), uint16(300))
	f.Add([]byte{ownerByte + 9, 2, ownerByte, 6, 6, ownerByte + 40}, []byte{5, 9}, uint8(3), uint16(0))
	f.Add([]byte{ownerByte + 20, ownerByte + 1}, []byte{3}, uint8(0), uint16(0)) // owner frames only
	f.Add([]byte{ownerByte + 3, 8, ownerByte + 5}, make([]byte, 64), uint8(0), uint16(7))

	f.Fuzz(func(t *testing.T, sizes, cuts []byte, max uint8, flip uint16) {
		if len(sizes) > 48 {
			sizes = sizes[:48]
		}
		var stream []byte
		var xmlLen []int       // XML length of record k
		var ends, counts []int // each frame's end byte, records through it
		last := 0              // where the last frame's damageable bytes start
		for i := 0; i < len(sizes); {
			last = len(stream) + 8
			if sizes[i] >= ownerByte {
				frame, err := wal.Binary{}.AppendFrame(nil, []byte(fmt.Sprintf(`{"t":"done","pad":%q}`, strings.Repeat("o", int(sizes[i]-ownerByte)))))
				if err != nil {
					t.Fatal(err)
				}
				stream = append(stream, frame...)
				i++
			} else {
				var recs []Record
				for n := 1 + int(sizes[i])%3; len(recs) < n && i < len(sizes) && sizes[i] < ownerByte; i++ {
					recs = append(recs, Record{Subscription: "F", Time: t0, XML: strings.Repeat("x", int(sizes[i]))})
					xmlLen = append(xmlLen, int(sizes[i]))
				}
				stream = append(stream, batchFrame(t, uint64(len(xmlLen)-len(recs)), recs...)...)
				last += batchHeader
			}
			ends, counts = append(ends, len(stream)), append(counts, len(xmlLen))
		}
		damaged := flip != 0 && len(stream) > 0
		if damaged {
			rec := stream[last:]
			rec[int(flip)%len(rec)] ^= 0x01
		}

		dir := t.TempDir()
		seg, err := os.Create(filepath.Join(dir, wal.SegmentFileName(1)))
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		r := openReader(t, dir, "f", ReaderOptions{MaxFetch: 1 + int(max%8)})

		got := 0
		for written := 0; written < len(stream); {
			n := len(stream) - written
			if len(cuts) > 0 {
				n, cuts = min(n, 1+int(cuts[0])%64), cuts[1:]
			}
			if _, err := seg.Write(stream[written : written+n]); err != nil {
				t.Fatal(err)
			}
			written += n
			complete := 0
			for k, e := range ends {
				if e <= written {
					complete = counts[k]
				}
			}
			for {
				recs, err := r.Poll(0)
				if err != nil {
					if !damaged || written < len(stream) || !errors.Is(err, wal.ErrCorrupt) {
						t.Fatalf("Poll with %d of %d bytes written: %v", written, len(stream), err)
					}
					if r.Next() != uint64(got) {
						t.Fatalf("failed poll left Next at %d, %d records returned", r.Next(), got)
					}
					return
				}
				if len(recs) == 0 {
					break
				}
				for _, rec := range recs {
					if rec.Offset != uint64(got) || len(rec.XML) != xmlLen[got] {
						t.Fatalf("record %d (%d bytes) where %d (%d bytes) was due", rec.Offset, len(rec.XML), got, xmlLen[got])
					}
					got++
				}
			}
			if got != complete {
				t.Fatalf("%d of %d bytes written: %d records returned, %d complete", written, len(stream), got, complete)
			}
		}
		if damaged {
			t.Fatal("damaged frame never reported")
		}
	})
}

// ownerByte is FuzzReaderTail's size byte from which an owner frame is
// written, its payload padded by the byte's excess over ownerByte.
const ownerByte = 0xC0

// FuzzCursorSlots opens a cursor file of two arbitrary slots. The offset
// it opens at must be that of the intact slot with the highest seq —
// never above the largest intact one — and a file with no intact slot
// opens only if it is all zeros. An opened cursor's next commit must
// read back, whatever the slot it overwrites held.
func FuzzCursorSlots(f *testing.F) {
	frame := func(seq, off uint64) []byte { return cursorFrame(f, seq, off) }
	f.Add(frame(1, 5), []byte(nil))
	f.Add(frame(3, 9), frame(2, 7))
	f.Add(frame(3, 9)[:20], frame(2, 7))
	f.Add(frame(1, 5), frame(2, 7)[:11])
	f.Add([]byte{16, 0, 0, 0, 1, 2, 3, 4}, []byte{0xff})
	f.Add(make([]byte, slotSize), make([]byte, slotSize))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		data := append([]byte(nil), a[:min(len(a), slotSize)]...)
		if len(b) > 0 {
			data = append(data, make([]byte, slotSize-len(data))...)
			data = append(data, b[:min(len(b), slotSize)]...)
		}
		// The oracle: decode each slot on its own.
		intact, best := false, cursorState{slot: -1}
		var maxOff uint64
		for i := 0; i*slotSize < len(data); i++ {
			sector := data[i*slotSize : min(len(data), (i+1)*slotSize)]
			payload, n, err := wal.Binary{}.Next(sector)
			if err != nil || !zeros(sector[n:]) {
				continue
			}
			s := cursorState{slot: i}
			switch {
			case len(payload) == 16:
				s.seq, s.offset = binary.LittleEndian.Uint64(payload), binary.LittleEndian.Uint64(payload[8:])
			case len(payload) == 8 && i == 0:
				s.offset = binary.LittleEndian.Uint64(payload)
			default:
				continue
			}
			if !intact || s.seq > best.seq {
				best = s
			}
			intact, maxOff = true, max(maxOff, s.offset)
		}

		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, cursorDirName), 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, cursorDirName, "f"+cursorExt)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCursor(dir, "f", nil)
		if err != nil {
			if intact || zeros(data) {
				t.Fatalf("refused a file with an intact slot or no non-zero byte: %v", err)
			}
			return
		}
		if !intact && !zeros(data) {
			t.Fatalf("opened a damaged file at %d", c.Offset())
		}
		if c.cursorState != best || c.Offset() > maxOff {
			t.Fatalf("opened at %+v, the intact slots give %+v (largest offset %d)", c.cursorState, best, maxOff)
		}
		if err := c.Commit(c.Offset() + 1); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if c2, err := OpenCursor(dir, "f", nil); err != nil || c2.Offset() != c.Offset() {
			t.Fatalf("a commit of %d read back as %s", c.Offset(), state(c2, err))
		}
	})
}
