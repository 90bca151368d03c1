package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"xymon/internal/wal"
)

// Cursor is a consumer's durable position in the stream: the offset of
// the next record it has NOT yet consumed. Recovery resumes from the
// last synced offset: at-least-once, records may replay, none are
// skipped.
//
// One file per consumer under <stream>/cursors/<name>.cur holds two
// 512-byte slots, each a wal Binary frame (CRC-checked) of (seq, offset)
// and zeros. The first commit installs the file atomically; every later
// one overwrites the older slot in place and fsyncs it. A torn write
// damages only that slot, so recovery — the intact slot with the higher
// seq — finds the previous offset or the new one, never a torn value.
// A non-zero file with no intact slot is damage, detected rather than
// silently resetting the consumer to zero. A file of the earlier
// single-frame format reads as seq 0 in slot 0.
//
// From its first in-place commit a Cursor holds the file open until
// Close; one nobody closes keeps that descriptor until the process
// exits, on a file retention never deletes.
type Cursor struct {
	dir  string // the cursors directory
	path string
	tmp  string
	name string
	hook wal.Hook
	f    *os.File
	cursorState
}

// fsync is the in-place commit's fsync call; tests count through it.
var fsync = (*os.File).Sync

// cursorState is the newest intact slot of a cursor file.
type cursorState struct {
	seq, offset uint64
	slot        int // -1: none yet
}

const (
	cursorDirName = "cursors"
	cursorExt     = ".cur"
	slotSize      = 512 // a sector: no write spans both slots
)

// validConsumer restricts consumer names to file-name-safe characters.
func validConsumer(name string) bool {
	if name == "" || len(name) > 128 {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return !strings.HasPrefix(name, ".")
}

// OpenCursor loads (creating the directory if needed) the named
// consumer's cursor for the stream rooted at streamDir. A leftover
// temp file — a crash before the first commit's rename — is discarded.
// A missing cursor file starts at offset 0.
func OpenCursor(streamDir, consumer string, hook wal.Hook) (*Cursor, error) {
	if !validConsumer(consumer) {
		return nil, fmt.Errorf("stream: invalid consumer name %q", consumer)
	}
	c := &Cursor{
		dir:  filepath.Join(streamDir, cursorDirName),
		name: consumer,
		hook: hook,
	}
	c.path = filepath.Join(c.dir, consumer+cursorExt)
	c.tmp = c.path + ".tmp"
	if err := c.consult(OpRead); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if err := os.Remove(c.tmp); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("stream: %w", err)
	}
	st, err := readCursorFile(c.path)
	if err != nil {
		return nil, err
	}
	c.cursorState = st
	return c, nil
}

func (c *Cursor) consult(op string) error {
	if c.hook == nil {
		return nil
	}
	return c.hook(op, c.name)
}

// Name returns the consumer name.
func (c *Cursor) Name() string { return c.name }

// Offset returns the last committed offset — the next record the
// consumer has not yet durably consumed.
func (c *Cursor) Offset() uint64 { return c.offset }

// Commit durably records off. A crash before it returns leaves the
// previous offset or off, so recovery replays rather than skips. The
// hook sees OpCursorCommit, then OpCursorInstall before off reaches the
// file, then — for an in-place write — wal.OpFileSync before its fsync.
func (c *Cursor) Commit(off uint64) error {
	if err := c.consult(OpCursorCommit); err != nil {
		return err
	}
	next := cursorState{seq: c.seq + 1, offset: off, slot: (c.slot + 1) % 2}
	var p [16]byte
	binary.LittleEndian.PutUint64(p[:8], next.seq)
	binary.LittleEndian.PutUint64(p[8:], off)
	frame, err := wal.Binary{}.AppendFrame(make([]byte, 0, slotSize), p[:])
	if err != nil {
		return err
	}
	frame = frame[:slotSize] // the whole slot: no stale byte survives behind the frame
	if err := c.write(next.slot, frame); err != nil {
		return err
	}
	c.cursorState = next
	return nil
}

// write puts frame in slot. The first commit installs the file; a later
// one overwrites the slot in place and fsyncs it, opening the file if the
// cursor does not hold it.
func (c *Cursor) write(slot int, frame []byte) (err error) {
	if c.slot < 0 {
		return c.install(frame)
	}
	if err := c.consult(OpCursorInstall); err != nil {
		return err
	}
	if c.f == nil {
		if c.f, err = os.OpenFile(c.path, os.O_RDWR, 0); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
	}
	if _, err := c.f.WriteAt(frame, int64(slot)*slotSize); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if err := c.consult(wal.OpFileSync); err != nil {
		return err
	}
	if err := fsync(c.f); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

// install creates the cursor file: temp → fsync → rename → parent-dir
// fsync. It is apart from write so that xyvet's walfsync rule sees this
// rename without the in-place write's fsync behind it.
func (c *Cursor) install(frame []byte) error {
	if err := wal.WriteFileSync(c.tmp, frame, 0o644); err != nil {
		return err
	}
	if err := c.consult(OpCursorInstall); err != nil {
		return err
	}
	if err := os.Rename(c.tmp, c.path); err != nil {
		return fmt.Errorf("stream: installing cursor: %w", err)
	}
	return wal.SyncDir(c.dir)
}

// Close releases the descriptor the cursor holds; a later Commit opens
// it again.
func (c *Cursor) Close() (err error) {
	if c.f != nil {
		err, c.f = c.f.Close(), nil
	}
	return err
}

// readCursorFile returns the intact slot with the higher seq; a missing
// file has none. A slot is intact when its frame passes its CRC and
// only zeros follow it; an all-zero slot is empty.
func readCursorFile(path string) (cursorState, error) {
	st := cursorState{slot: -1}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return st, fmt.Errorf("stream: %w", err)
	}
	for i := 0; i < 2 && i*slotSize < len(data); i++ {
		sector := data[i*slotSize : min(len(data), (i+1)*slotSize)]
		payload, n, err := wal.Binary{}.Next(sector)
		if err != nil || !zeros(sector[n:]) {
			continue
		}
		s := cursorState{slot: i}
		switch {
		case len(payload) == 16:
			s.seq, s.offset = binary.LittleEndian.Uint64(payload), binary.LittleEndian.Uint64(payload[8:])
		case len(payload) == 8 && i == 0: // the single-frame format
			s.offset = binary.LittleEndian.Uint64(payload)
		default:
			continue
		}
		if st.slot < 0 || s.seq > st.seq {
			st = s
		}
	}
	if st.slot < 0 && !zeros(data) || len(data) > 2*slotSize {
		return cursorState{}, fmt.Errorf("stream: corrupt cursor %s", filepath.Base(path))
	}
	return st, nil
}

func zeros(b []byte) bool { return len(bytes.TrimLeft(b, "\x00")) == 0 }

// readCursors returns every consumer's committed offset — the input to
// the retention policy. Temp files (uncommitted) are ignored. A read
// racing a commit may see its slot half-written; that slot then fails
// its CRC and the other one, the previous offset, is what it returns.
func readCursors(streamDir string) (map[string]uint64, error) {
	dir := filepath.Join(streamDir, cursorDirName)
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	cursors := make(map[string]uint64)
	for _, e := range entries {
		name, found := strings.CutSuffix(e.Name(), cursorExt)
		if !found || e.IsDir() {
			continue
		}
		st, err := readCursorFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if st.slot >= 0 {
			cursors[name] = st.offset
		}
	}
	return cursors, nil
}
