package manager

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"xymon/internal/wal"
)

// Record is one journal entry: a subscribe (with its source text) or an
// unsubscribe.
type Record struct {
	Op     string `json:"op"` // "subscribe" | "unsubscribe"
	Name   string `json:"name"`
	Source string `json:"source,omitempty"`
}

// Journal persists the subscription base so the system recovers it after
// a restart — the role MySQL plays in the paper's Subscription Manager.
type Journal interface {
	Append(r Record) error
	Records() ([]Record, error)
}

// NopJournal discards records; for benchmarks and ephemeral systems.
type NopJournal struct{}

// Append discards the record.
func (NopJournal) Append(Record) error { return nil }

// Records returns nothing.
func (NopJournal) Records() ([]Record, error) { return nil, nil }

// MemJournal keeps records in memory; for tests.
type MemJournal struct {
	mu   sync.Mutex
	recs []Record
}

// Append stores the record.
func (j *MemJournal) Append(r Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.recs = append(j.recs, r)
	return nil
}

// Records returns a copy of the stored records.
func (j *MemJournal) Records() ([]Record, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Record(nil), j.recs...), nil
}

// Compacter is the optional journal face for checkpointing: replace the
// journal's history with an equivalent set of live records.
// Manager.Checkpoint uses it when the journal offers it.
type Compacter interface {
	Compact(live []Record) error
}

// FileJournal appends JSON-lines records to a file. It is a thin adapter
// over a wal.File with line framing: one handle held for the journal's
// lifetime (it used to reopen and fsync the file on every Append), the
// same on-disk format, and the same torn-tail recovery — now shared with
// the binary WAL.
type FileJournal struct {
	f *wal.File
}

// NewFileJournal opens (creating if needed) a journal at path.
func NewFileJournal(path string) (*FileJournal, error) {
	f, err := wal.OpenFile(path, wal.FileOptions{Framing: wal.Lines{}})
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &FileJournal{f: f}, nil
}

// Append writes one JSON line and fsyncs it.
func (j *FileJournal) Append(r Record) error {
	enc, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Append(enc); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Records reads back every journal line. A final line without its
// terminating newline is a torn tail — the crash happened mid-Append —
// and is discarded (and truncated away, so the next Append starts on a
// clean boundary) rather than failing the whole recovery: every record
// before it was durably synced and must come back. Corruption anywhere
// else (a terminated line that does not parse) still fails loudly — that
// is not a crash artifact, the file was damaged.
func (j *FileJournal) Records() ([]Record, error) {
	var out []Record
	err := j.f.Replay(func(line []byte) error {
		if len(line) == 0 {
			return nil
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			return fmt.Errorf("journal: corrupt record: %w", err)
		}
		out = append(out, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Close releases the journal's file handle.
func (j *FileJournal) Close() error { return j.f.Close() }

// WALJournal stores the subscription base in a segmented, checkpointed
// wal.Log: binary CRC-framed records, rotation, and compaction of
// everything a checkpoint covers. The checkpoint snapshot is the JSON
// array of live records; Records returns snapshot + tail in order, so
// Manager.Recover replays it like any other journal.
type WALJournal struct {
	l *wal.Log
}

// NewWALJournal wraps an opened wal.Log as a Journal.
func NewWALJournal(l *wal.Log) *WALJournal { return &WALJournal{l: l} }

// Append durably logs one record.
func (j *WALJournal) Append(r Record) error {
	enc, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.l.Append(enc); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Records returns the latest checkpoint's live records followed by every
// record appended after it.
func (j *WALJournal) Records() ([]Record, error) {
	var out []Record
	err := j.l.Recover(
		func(snap []byte) error {
			if err := json.Unmarshal(snap, &out); err != nil {
				return fmt.Errorf("journal: corrupt checkpoint: %w", err)
			}
			return nil
		},
		func(payload []byte) error {
			var r Record
			if err := json.Unmarshal(payload, &r); err != nil {
				return fmt.Errorf("journal: corrupt record: %w", err)
			}
			out = append(out, r)
			return nil
		},
	)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Compact checkpoints the journal: live becomes the snapshot and every
// logged record it covers is truncated away.
func (j *WALJournal) Compact(live []Record) error {
	return j.l.Checkpoint(func(w io.Writer) error {
		enc := json.NewEncoder(w)
		if live == nil {
			live = []Record{}
		}
		return enc.Encode(live)
	})
}

// Close releases the underlying log.
func (j *WALJournal) Close() error { return j.l.Close() }
