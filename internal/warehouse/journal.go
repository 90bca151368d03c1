package warehouse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"sync"

	"xymon/internal/wal"
	"xymon/internal/xmldom"
)

// Journal is the persistent half of the paper's repository (Natix): a
// write-ahead log of a Store's versions. Every New, Updated or Deleted
// version is one record of the page's metadata and whole current version
// (an HTML page's signature is in its metadata), so a URL's newest record
// is all recovery needs, and a checkpoint is the image of those records
// as logged — keyed compaction, no document serialised again — behind one
// record of the identifier counters, replayed by the same function as the
// tail. Delta chains are not logged: history restarts at the recovered
// version.
//
// The log lags the notification chain, never leads it: a version is noted
// after its document went through the Manager (past the Reporter's commit
// barrier), and unsynced — Checkpoint and Close are its barriers. A
// process kill loses nothing; a power loss can roll a page back, and its
// next fetch raises the lost versions' notifications again: a redelivery,
// never a missed or wrong notification. Safe for concurrent use.
type Journal struct {
	log *wal.Log

	mu      sync.Mutex
	pages   map[string]logged // by URL
	nextDoc uint64
	dtds    map[string]uint64
}

// logged is a URL's newest version noted (its next record must be the one
// after) and its newest record that reached the log.
type logged struct {
	version int
	rec     []byte
}

// A record is one logged version of a page: its header in JSON, a
// newline, then the version's XML (nothing for an HTML page or a
// deletion). A checkpoint opens with a record whose header carries the
// Counters and no Meta.
type header struct {
	Meta     Metadata  `json:",omitzero"`
	Deleted  bool      `json:",omitempty"`
	Counters *counters `json:",omitempty"`
}

// counters are the identifiers handed out so far, which the records of
// deleted pages no longer carry.
type counters struct {
	NextDoc uint64
	DTDs    map[string]uint64
}

// maxRecord caps a record: one page's whole current version.
const maxRecord = 1 << 30

// OpenJournal opens (creating if needed) the warehouse log in dir; hook
// may be nil.
func OpenJournal(dir string, hook wal.Hook) (*Journal, error) {
	// Sealing a segment fsyncs it: segments this large rotate at
	// checkpoints, not inside a document's Note.
	l, err := wal.Open(dir, wal.Options{Hook: hook, MaxFrame: maxRecord, SegmentBytes: 64 << 20})
	if err != nil {
		return nil, err
	}
	return &Journal{log: l, pages: make(map[string]logged), dtds: make(map[string]uint64)}, nil
}

// Note logs the version a commit produced, once the notification chain has
// run on it; raw is the XML it was committed from, or nil to serialise
// doc. An update is logged only if it follows the newest version noted:
// one processed before its predecessor is not (that one's notifications
// may still be owed), and the URL's log waits for its next version.
// Unchanged refetches log nothing.
func (j *Journal) Note(status Status, meta Metadata, doc *xmldom.Document, raw []byte) error {
	if status == StatusUnchanged {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	p, ok := j.pages[meta.URL]
	if status == StatusUpdated && (!ok || meta.Version != p.version+1) {
		return nil
	}
	if status == StatusNew {
		p = logged{}
	}
	deleted := status == StatusDeleted
	if meta.Type != XML || deleted {
		raw = nil
	} else if raw == nil {
		raw = []byte(doc.XML())
	}
	buf := bytes.NewBuffer(make([]byte, 0, 512+len(raw)))
	err := json.NewEncoder(buf).Encode(&header{Meta: meta, Deleted: deleted}) // ends in '\n'
	buf.Write(raw)
	rec := buf.Bytes()
	if err == nil {
		err = j.log.Write(rec)
	}
	// A version counts as noted even if its write failed: the log keeps
	// the page's previous record, and the next version is logged whole.
	switch {
	case !deleted:
		p.version = meta.Version
		if err == nil {
			p.rec = rec
		}
		j.pages[meta.URL] = p
	case err == nil:
		delete(j.pages, meta.URL)
	}
	if err != nil {
		return fmt.Errorf("warehouse: journal: %w", err)
	}
	j.count(&meta)
	return nil
}

// count advances the identifier counters past a version's.
func (j *Journal) count(meta *Metadata) {
	j.nextDoc = max(j.nextDoc, meta.DocID+1)
	if meta.DTD != "" {
		j.dtds[meta.DTD] = meta.DTDID
	}
}

// decode splits a record into its header and XML.
func decode(rec []byte) (header, []byte, error) {
	var h header
	line, xml, _ := bytes.Cut(rec, []byte{'\n'})
	if err := json.Unmarshal(line, &h); err != nil || (h.Meta.URL == "") == (h.Counters == nil) {
		return h, nil, fmt.Errorf("%w: warehouse record %.64q", wal.ErrCorrupt, line)
	}
	return h, xml, nil
}

// Recover replays the log into the empty s: every page at its newest
// logged version, both unchanged tiers primed, the DocID and DTD counters
// past every identifier logged. Call it once, before the first Note. A torn
// tail is dropped; other damage fails with wal.ErrCorrupt.
func (j *Journal) Recover(s *Store) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.log.Recover(func(rec []byte) error {
		h, _, err := decode(rec)
		switch {
		case err != nil:
			return err
		case h.Counters != nil:
			j.nextDoc = max(j.nextDoc, h.Counters.NextDoc)
			maps.Copy(j.dtds, h.Counters.DTDs)
			return nil
		case h.Deleted:
			delete(j.pages, h.Meta.URL)
		default:
			j.pages[h.Meta.URL] = logged{version: h.Meta.Version, rec: bytes.Clone(rec)}
		}
		j.count(&h.Meta)
		return nil
	})
	if err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pages) != 0 {
		return fmt.Errorf("warehouse: Recover requires an empty store")
	}
	for url, p := range j.pages {
		h, xml, _ := decode(p.rec) // replay decoded it already
		e := &Entry{Meta: h.Meta}
		if e.Meta.Type == XML {
			doc, err := xmldom.ParseBytes(xml)
			if err != nil {
				return fmt.Errorf("%w: document %s: %v", wal.ErrCorrupt, url, err)
			}
			e.Doc = doc
			e.rawSig = rawHash(xml)
			e.structHash = doc.Hashes().Of(doc.Root)
			e.Meta.Signature = structSignature(e.structHash)
		}
		s.pages[url] = e
	}
	s.nextDoc = max(s.nextDoc, j.nextDoc)
	for dtd, id := range j.dtds {
		s.dtdIDs[dtd] = id
		s.nextDTD = max(s.nextDTD, id+1)
	}
	return nil
}

// Checkpoint installs the counters and every page's newest record, a
// record each, compacting away (and syncing) the log they cover.
func (j *Journal) Checkpoint() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Checkpoint(func(emit func([]byte) error) error {
		head, err := json.Marshal(&header{Counters: &counters{NextDoc: j.nextDoc, DTDs: j.dtds}})
		if err != nil {
			return err
		}
		if err := emit(head); err != nil {
			return err
		}
		for _, p := range j.pages {
			if p.rec != nil { // nil: the page's only record failed to reach the log
				if err := emit(p.rec); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// Stats snapshots the log's counters.
func (j *Journal) Stats() wal.Stats { return j.log.Stats() }

// Close syncs and releases the log.
func (j *Journal) Close() error { return j.log.Close() }
