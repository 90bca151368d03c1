// Package wal is the durability substrate of the system: append-only
// logs of framed records plus an atomically installed checkpoint, so
// every stateful module (subscription base, reporter streams, trigger
// schedules, warehouse versions) survives a crash with the same recovery
// discipline. The
// paper leans on MySQL and Natix for this; here a small write-ahead log
// plays that role.
//
// The package has three layers:
//
//   - Binary: the one record codec. A frame carries a length prefix and
//     the CRC32C of its payload, so a damaged record fails recovery
//     instead of replaying.
//   - File: one append-only segment file of frames, held open for its
//     lifetime, with a write / commit-barrier split.
//   - Log: a directory of rotated segment files plus a checkpoint
//     installed via temp file → fsync → rename → parent-dir fsync, with
//     compaction of the segments a checkpoint covers. A checkpoint holds
//     records in the segments' frames, so one callback replays both.
//
// Torn-tail discipline, shared by every layer: a final frame cut short
// by a crash is discarded (and truncated away, so the next append starts
// on a clean boundary); a complete frame that fails its integrity check
// is damage, not a crash artifact, and recovery fails loudly.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrCorrupt reports damage that cannot be a crash artifact: a complete
// frame whose CRC does not match, an implausible length prefix, or a
// torn tail anywhere but the end of the most recent file.
var ErrCorrupt = errors.New("wal: corrupt record")

// errTorn marks an incomplete final frame during a scan. It never
// escapes the package: scans convert it into truncation (active file)
// or ErrCorrupt (sealed file).
var errTorn = errors.New("wal: torn frame")

// FrameHeader is the frame header size: 4-byte little-endian payload
// length followed by the 4-byte CRC32C (Castagnoli) of the payload.
const FrameHeader = 8

// PayloadLen decodes the payload length from a frame header, the first
// FrameHeader bytes of hdr, unchecked. internal/stream's segment index
// steps over frames by it.
func PayloadLen(hdr []byte) int { return int(binary.LittleEndian.Uint32(hdr[:4])) }

// DefaultMaxFrame bounds a binary frame's payload. A length prefix above
// it cannot come from this writer, so the scan reports corruption
// instead of waiting for gigabytes that will never arrive.
const DefaultMaxFrame = 16 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Binary frames records as length ‖ crc32c(payload) ‖ payload, both
// fixed fields little-endian. The zero value is ready to use.
type Binary struct {
	// MaxFrame caps the payload size; 0 means DefaultMaxFrame.
	MaxFrame int
}

func (b Binary) maxFrame() int {
	if b.MaxFrame > 0 {
		return b.MaxFrame
	}
	return DefaultMaxFrame
}

// AppendFrame frames payload onto dst.
func (b Binary) AppendFrame(dst, payload []byte) ([]byte, error) {
	if len(payload) > b.maxFrame() {
		return dst, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte frame cap", len(payload), b.maxFrame())
	}
	var hdr [FrameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...), nil
}

// Next decodes the first frame of data, returning its payload and the
// total frame size. An incomplete final frame returns errTorn; a
// complete frame that fails validation, an error wrapping ErrCorrupt.
func (b Binary) Next(data []byte) ([]byte, int, error) {
	if len(data) < FrameHeader {
		return nil, 0, errTorn
	}
	n := PayloadLen(data)
	if n > b.maxFrame() {
		return nil, 0, fmt.Errorf("%w: implausible frame length %d", ErrCorrupt, n)
	}
	if len(data) < FrameHeader+n {
		return nil, 0, errTorn
	}
	payload := data[FrameHeader : FrameHeader+n]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(data[4:8]); got != want {
		return nil, 0, fmt.Errorf("%w: CRC mismatch (%08x != %08x)", ErrCorrupt, got, want)
	}
	return payload, FrameHeader + n, nil
}

// scan walks data frame by frame, calling fn for each intact payload,
// and returns the number of bytes covered by intact frames. A torn tail
// ends the scan silently — valid tells the caller where to truncate.
// Corruption, and any error from fn, aborts the scan.
func scan(data []byte, fr Binary, fn func(payload []byte) error) (valid int, err error) {
	for valid < len(data) {
		payload, size, err := fr.Next(data[valid:])
		if errors.Is(err, errTorn) {
			return valid, nil
		}
		if err != nil {
			return valid, fmt.Errorf("%w (at byte %d)", err, valid)
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return valid, err
			}
		}
		valid += size
	}
	return valid, nil
}
