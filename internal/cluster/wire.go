package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"xymon/internal/core"
)

// The partition-map protocol. Every message is a blob frame — kind byte,
// u32 little-endian byte length, payload — so the control plane and the
// match path share one framing and one size guard. A block answers any
// other kind byte with an error frame and hangs up, so a peer speaking
// another protocol fails loudly instead of silently losing partitions.
//
// Frame kinds (requests → responses):
//
//	'm' match(ver u64, np u32, parts, events)  → 'r' ids | 'S' ver | 'E'
//	'+' add(ver u64, id u32, events)           → 'k' | 'S' ver | 'E'
//	'-' remove(ver u64, id u32)                → 'k' | 'S' ver | 'E'
//	'd' dump(part u32)                         → 'D' subs | 'E'
//	'x' drop(part u32)                         → 'k' | 'E'
//	'U' install(map JSON)                      → 'k' | 'E'
//	'?' fetch the block's installed map        → 'P' map JSON | 'E'
//	'J' join(addr)     [coordinator]           → 'k' | 'E'
//	'L' leave(addr)    [coordinator]           → 'k' | 'E'
//
// Blocks answer every kind but 'J' and 'L', which only the coordinator
// answers; a client learns each new map from a block's 'S' and '?'.
const (
	kindMatch   = 'm'
	kindResults = 'r'
	kindStale   = 'S'
	kindAdd     = '+'
	kindRemove  = '-'
	kindDump    = 'd'
	kindDumped  = 'D'
	kindDrop    = 'x'
	kindInstall = 'U'
	kindMapReq  = '?'
	kindMapResp = 'P'
	kindAck     = 'k'
	kindJoin    = 'J'
	kindLeave   = 'L'
	kindError   = 'E'
)

// maxBlob bounds a frame's payload: a full 64-partition dump of a
// million 4-event subscriptions still fits, anything bigger is a
// protocol error, not a request to buffer gigabytes.
const maxBlob = 8 << 20

// Sub is one subscription record on the wire and in the transfer
// journal: a complex event id and its canonical atomic event set.
type Sub struct {
	ID     core.ComplexID `json:"id"`
	Events core.EventSet  `json:"events"`
}

// beginBlob starts a frame of n payload bytes in w's own free buffer
// space: what the caller appends and hands to w.Write is copied nowhere
// and allocates nothing while the frame fits the buffer.
func beginBlob(w *bufio.Writer, kind byte, n int) ([]byte, error) {
	if n > maxBlob {
		return nil, fmt.Errorf("%w: %d-byte frame exceeds the %d-byte cap", ErrProtocol, n, maxBlob)
	}
	return binary.LittleEndian.AppendUint32(append(w.AvailableBuffer(), kind), uint32(n)), nil
}

// writeBlob frames one message.
func writeBlob(w *bufio.Writer, kind byte, payload []byte) error {
	hdr, err := beginBlob(w, kind, len(payload))
	if err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// writeError frames err as an error reply.
func writeError(w *bufio.Writer, err error) error {
	return writeBlob(w, kindError, []byte(err.Error()))
}

// readBlobBody reads the length and payload of a blob frame whose kind
// byte has already been consumed, into buf's storage when it is large
// enough (the match path passes a per-connection buffer, the rest nil).
func readBlobBody(r *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated length", ErrProtocol)
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n > maxBlob {
		return nil, fmt.Errorf("%w: %d-byte frame exceeds the %d-byte cap", ErrProtocol, n, maxBlob)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	_, _ = r.Discard(4) // cannot fail: Peek buffered the four bytes
	if _, err := io.ReadFull(r, buf[:n]); err != nil {
		return nil, fmt.Errorf("%w: truncated frame", ErrProtocol)
	}
	return buf[:n], nil
}

// readBlob reads one whole blob frame, the payload into buf as
// readBlobBody does. An error frame is decoded into a *RemoteError so
// callers surface the peer's words, not a frame dump.
func readBlob(r *bufio.Reader, buf []byte) (byte, []byte, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	payload, err := readBlobBody(r, buf)
	if err != nil {
		return 0, nil, err
	}
	if kind == kindError {
		return 0, nil, &RemoteError{Msg: string(payload)}
	}
	return kind, payload, nil
}

// appendU32s appends values little-endian.
func appendU32s[T ~uint32](dst []byte, values []T) []byte {
	for _, v := range values {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// u32s appends the little-endian values of a payload tail to dst.
func u32s[T ~uint32](dst []T, b []byte) ([]T, error) {
	if len(b)%4 != 0 {
		return dst, fmt.Errorf("%w: %d-byte value list", ErrProtocol, len(b))
	}
	dst = slices.Grow(dst, len(b)/4)
	for ; len(b) > 0; b = b[4:] {
		dst = append(dst, T(binary.LittleEndian.Uint32(b)))
	}
	return dst, nil
}

// writeMatch frames an 'm' request straight into w: map version, the
// partitions of the parts mask in ascending order, the event set as given
// (callers pass a canonical one).
func writeMatch(w *bufio.Writer, ver uint64, parts uint64, s core.EventSet) error {
	np := bits.OnesCount64(parts)
	b, err := beginBlob(w, kindMatch, 12+4*(np+len(s)))
	if err != nil {
		return err
	}
	b = binary.LittleEndian.AppendUint64(b, ver)
	b = binary.LittleEndian.AppendUint32(b, uint32(np))
	for ; parts != 0; parts &= parts - 1 {
		b = binary.LittleEndian.AppendUint32(b, uint32(bits.TrailingZeros64(parts)))
	}
	_, err = w.Write(appendU32s(b, s))
	return err
}

// decodeMatch splits an 'm' payload into the map version, the mask of
// wanted partitions and the events, which it appends to events.
func decodeMatch(b []byte, events []core.Event) (ver uint64, parts uint64, _ []core.Event, err error) {
	if len(b) < 12 {
		return 0, 0, events, fmt.Errorf("%w: short match frame", ErrProtocol)
	}
	ver = binary.LittleEndian.Uint64(b)
	np := binary.LittleEndian.Uint32(b[8:])
	b = b[12:]
	if uint64(np) > uint64(len(b))/4 || np > NumPartitions {
		return 0, 0, events, fmt.Errorf("%w: match frame with %d partitions", ErrProtocol, np)
	}
	for ; np > 0; np, b = np-1, b[4:] {
		p := binary.LittleEndian.Uint32(b)
		if p >= NumPartitions {
			return 0, 0, events, fmt.Errorf("%w: match frame names partition %d of %d", ErrProtocol, p, NumPartitions)
		}
		parts |= 1 << p
	}
	if len(b)/4 > maxSetLen {
		return 0, 0, events, fmt.Errorf("%w: match frame of %d events", ErrProtocol, len(b)/4)
	}
	events, err = u32s(events, b)
	return ver, parts, events, err
}

// writeResults frames an 'r' response straight into w.
func writeResults(w *bufio.Writer, ids []core.ComplexID) error {
	b, err := beginBlob(w, kindResults, 4*len(ids))
	if err != nil {
		return err
	}
	_, err = w.Write(appendU32s(b, ids))
	return err
}

// readMatchReply reads the answer to an 'm' request through *buf, the
// connection's reusable payload buffer, appending the ids of an 'r' frame
// to ids; stale reports an 'S' frame.
func readMatchReply(r *bufio.Reader, buf *[]byte, ids []core.ComplexID) (_ []core.ComplexID, stale bool, err error) {
	kind, b, err := readBlob(r, *buf)
	if err != nil {
		return ids, false, err
	}
	*buf = b
	switch kind {
	case kindStale:
		return ids, true, nil
	case kindResults:
		ids, err = u32s(ids, b)
		return ids, false, err
	}
	return ids, false, fmt.Errorf("%w: block answered %q to a match", ErrProtocol, kind)
}

// encodeSubOp builds the '+' (with events) or '-' (without) payload.
func encodeSubOp(ver uint64, id uint32, events []core.Event) []byte {
	out := make([]byte, 0, 12+4*len(events))
	out = binary.LittleEndian.AppendUint64(out, ver)
	out = binary.LittleEndian.AppendUint32(out, id)
	return appendU32s(out, events)
}

func decodeSubOp(b []byte) (ver uint64, id uint32, events []core.Event, err error) {
	if len(b) < 12 {
		return 0, 0, nil, fmt.Errorf("%w: short subscription frame", ErrProtocol)
	}
	ver = binary.LittleEndian.Uint64(b)
	id = binary.LittleEndian.Uint32(b[8:])
	if events, err = u32s(events, b[12:]); err != nil {
		return 0, 0, nil, err
	}
	if len(events) > maxSetLen {
		return 0, 0, nil, fmt.Errorf("%w: subscription of %d events", ErrProtocol, len(events))
	}
	return ver, id, events, nil
}

func encodeU32(v uint32) []byte {
	return binary.LittleEndian.AppendUint32(nil, v)
}

func decodeU32(b []byte) (uint32, error) {
	if len(b) != 4 {
		return 0, fmt.Errorf("%w: expected a u32 payload, got %d bytes", ErrProtocol, len(b))
	}
	return binary.LittleEndian.Uint32(b), nil
}

func encodeU64(v uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, v)
}

// encodeSubs builds the 'D' payload: repeated (id, n, events[n]).
func encodeSubs(subs []Sub) []byte {
	var out []byte
	for _, s := range subs {
		out = binary.LittleEndian.AppendUint32(out, uint32(s.ID))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s.Events)))
		out = appendU32s(out, s.Events)
	}
	return out
}

func decodeSubs(b []byte) ([]Sub, error) {
	var subs []Sub
	for len(b) > 0 {
		if len(b) < 8 {
			return nil, fmt.Errorf("%w: truncated subscription record", ErrProtocol)
		}
		id := binary.LittleEndian.Uint32(b)
		n := binary.LittleEndian.Uint32(b[4:])
		b = b[8:]
		if uint64(n) > uint64(len(b))/4 || n > maxSetLen {
			return nil, fmt.Errorf("%w: subscription record of %d events", ErrProtocol, n)
		}
		events, err := u32s(core.EventSet(nil), b[:4*n])
		if err != nil {
			return nil, err
		}
		subs = append(subs, Sub{ID: core.ComplexID(id), Events: events})
		b = b[4*n:]
	}
	return subs, nil
}
