package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
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

// FileOptions configures a File.
type FileOptions struct {
	// Framing delimits records; nil means Binary{}.
	Framing Framing
	// Hook, when non-nil, is consulted at OpFileAppend and OpFileSync
	// with the file path as key; an error fails the operation before the
	// write (or fsync) happens. This is the File's fault seam — the Log
	// has its own coarser hook around whole appends and checkpoints.
	Hook Hook
}

// File is one append-only log file of frames. The handle is opened once
// and held for the File's lifetime (the subscription journal used to
// reopen and fsync per record — see NewFileJournal's history). Safe for
// concurrent use.
//
// Writing and making durable are separate steps: Write frames a record
// onto the file in call order, Sync is the commit barrier — one fsync
// covering every frame written before it. Append is the pair.
type File struct {
	mu    sync.Mutex
	path  string
	f     *os.File
	fr    Framing
	hook  Hook
	dirty bool // frames written since the last fsync
	buf   []byte
	size  int64
}

// OpenFile opens (creating if needed) the log file at path.
func OpenFile(path string, o FileOptions) (*File, error) {
	if o.Framing == nil {
		o.Framing = Binary{}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	return &File{path: path, f: f, fr: o.Framing, hook: o.Hook, size: st.Size()}, nil
}

func (w *File) consult(op string) error {
	if w.hook == nil {
		return nil
	}
	return w.hook(op, w.path)
}

// Append frames payload onto the file and fsyncs it: Write + Sync under
// one lock acquisition.
func (w *File) Append(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.writeLocked(payload); err != nil {
		return err
	}
	_, err := w.syncLocked()
	return err
}

// Write frames payload onto the file without fsync. The bytes reach the
// OS before Write returns — a process crash loses nothing — but only the
// next Sync (or Append, or Close) makes them survive a power loss.
func (w *File) Write(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeLocked(payload)
}

func (w *File) writeLocked(payload []byte) error {
	if err := w.consult(OpFileAppend); err != nil {
		return err
	}
	// Framing is pure byte manipulation (Binary/Lines); it cannot block
	// or call back into the File.
	//xyvet:ignore lockcheck
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

// syncLocked fsyncs the file if frames were written since the last
// fsync, and reports whether it did.
func (w *File) syncLocked() (synced bool, err error) {
	if !w.dirty {
		return false, nil
	}
	if err := w.consult(OpFileSync); err != nil {
		return false, err
	}
	// fsync is (*os.File).Sync or a test's counting wrapper around it;
	// neither re-enters the File.
	//xyvet:ignore lockcheck
	if err := fsync(w.f); err != nil {
		return false, fmt.Errorf("wal: %w", err)
	}
	w.dirty = false
	return true, nil
}

// Sync is the commit barrier: one fsync covering every frame written so
// far, and a no-op when nothing was written since the last one — so
// committers queued on the lock behind a Sync that already covered
// their frames return without a second fsync.
func (w *File) Sync() error {
	_, err := w.sync()
	return err
}

// sync is Sync that also reports whether there was anything to fsync.
func (w *File) sync() (bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

// Size returns the current file size in bytes (frames written, torn
// tail included until Replay truncates it).
func (w *File) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Close syncs unsynced frames and releases the handle.
func (w *File) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	_, err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// Replay streams every intact record to fn in append order. A torn
// final frame — the crash happened mid-append — is discarded and
// truncated away, so the next Append starts on a clean boundary;
// everything before it was durably written and comes back. Corruption
// anywhere else fails loudly: that is not a crash artifact, the file
// was damaged.
func (w *File) Replay(fn func(payload []byte) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	data, err := os.ReadFile(w.path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	valid, err := scan(data, w.fr, fn)
	if err != nil {
		return err
	}
	if valid < len(data) {
		if err := os.Truncate(w.path, int64(valid)); err != nil {
			return fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		w.size = int64(valid)
	}
	return nil
}

// SyncDir fsyncs a directory, making renames and unlinks inside it
// durable. Every os.Rename that installs a freshly created file must be
// followed by a SyncDir of its parent — the walfsync analyzer enforces
// this shape tree-wide.
//
// This is a registered durability primitive: faults are injected by the
// hooks and injector checks surrounding its call sites (the Log's
// checkpoint ops, the warehouse save point), not inside it.
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
// checkpoint ops, the warehouse save point), not inside it.
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
