package wal

import (
	"fmt"
	"os"
	"path/filepath"
)

// The File's own durability points, reported to its Hook. They sit one
// level below the Log's wal.append/wal.append.done pair: OpFileAppend
// fires before every OS write, OpFileSync before every fsync — after the
// frames it will cover were written — so a crash harness can kill in the
// window where data is in the page cache but not yet durable.
const (
	OpFileAppend = "wal.file.append"
	OpFileSync   = "wal.file.sync"
)

// fsync is the File's one fsync call; tests count through it.
var fsync = (*os.File).Sync

// File is one append-only log file of frames — a Log's segment, which
// calls it under the Log's lock: a File is not safe for concurrent use.
// The handle is opened once and held for the File's lifetime.
//
// Writing and making durable are separate steps: Write frames a record
// onto the file in call order, sync is the commit barrier — one fsync
// covering every frame written before it.
type File struct {
	path  string
	f     *os.File
	fr    Binary
	hook  Hook
	dirty bool // frames written since the last fsync
	buf   []byte
	size  int64
}

// OpenFile opens (creating if needed) the log file at path, framing its
// records with fr. hook is consulted at OpFileAppend and OpFileSync with
// the file path as key; an error fails the write (or fsync) before it
// happens. This is the File's fault seam — the Log has its own coarser
// one around whole appends and checkpoints.
func OpenFile(path string, fr Binary, hook Hook) (*File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	return &File{path: path, f: f, fr: fr, hook: hook, size: st.Size()}, nil
}

// Write frames payload onto the file without fsync. The bytes reach the
// OS before Write returns — a process crash loses nothing — but only the
// next sync (or Close) makes them survive a power loss.
func (w *File) Write(payload []byte) error {
	if err := w.hook(OpFileAppend, w.path); err != nil {
		return err
	}
	buf, err := w.fr.AppendFrame(w.buf[:0], payload)
	if err != nil {
		return err
	}
	w.buf = buf[:0] // keep the capacity, not the data
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w.size += int64(len(buf))
	w.dirty = true
	return nil
}

// sync is the commit barrier: one fsync covering every frame written so
// far, and a no-op when nothing was written since the last one — so
// committers queued on the Log's lock behind a barrier that already
// covered their frames return without a second fsync. It reports whether
// it fsynced.
func (w *File) sync() (bool, error) {
	if !w.dirty {
		return false, nil
	}
	if err := w.hook(OpFileSync, w.path); err != nil {
		return false, err
	}
	// fsync is (*os.File).Sync or a test's counting wrapper around it;
	// neither re-enters the Log whose lock the caller holds.
	if err := fsync(w.f); err != nil {
		return false, fmt.Errorf("wal: %w", err)
	}
	w.dirty = false
	return true, nil
}

// Size returns the current file size in bytes.
func (w *File) Size() int64 { return w.size }

// Close syncs unsynced frames and releases the handle.
func (w *File) Close() error {
	if w.f == nil {
		return nil
	}
	_, err := w.sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// SyncDir fsyncs a directory, making renames and unlinks inside it
// durable. Every os.Rename that installs a freshly created file must be
// followed by a SyncDir of its parent — the walfsync analyzer enforces
// this shape tree-wide.
//
// This is a registered durability primitive: faults are injected by the
// hooks and injector checks surrounding its call sites (the Log's
// checkpoint ops, the cursor's commit points), not inside it.
//
//xyvet:faultpoint
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: syncing %s: %w", dir, err)
	}
	return nil
}

// WriteFileSync writes data to path and fsyncs it — os.WriteFile plus
// the durability the crash-recovery discipline requires before a rename
// can install the file.
//
// This is a registered durability primitive: faults are injected by the
// hooks and injector checks surrounding its call sites (the Log's
// checkpoint ops, the cursor's commit points), not inside it.
//
//xyvet:faultpoint
func WriteFileSync(path string, data []byte, perm os.FileMode) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, perm)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: writing %s: %w", filepath.Base(path), err)
	}
	return nil
}
