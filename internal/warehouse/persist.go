package warehouse

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"xymon/internal/faults"
	"xymon/internal/wal"
	"xymon/internal/xmldom"
)

// The paper's repository (Natix) is persistent storage; this file gives
// the in-memory stand-in durable snapshots: Save writes every page's
// current version and metadata to a directory, Load restores them. Delta
// chains are not persisted — history restarts at the snapshot, exactly as
// a fresh version chain does after a wholesale replacement.

// manifestEntry is the serialised metadata of one page.
type manifestEntry struct {
	URL          string    `json:"url"`
	Filename     string    `json:"filename"`
	DocID        uint64    `json:"docid"`
	DTD          string    `json:"dtd,omitempty"`
	DTDID        uint64    `json:"dtdid,omitempty"`
	Domain       string    `json:"domain,omitempty"`
	Type         string    `json:"type"`
	LastAccessed time.Time `json:"last_accessed"`
	LastUpdate   time.Time `json:"last_update"`
	Version      int       `json:"version"`
	Signature    string    `json:"signature"`
	// File is the snapshot file holding the current XML version (empty
	// for HTML pages, which keep only their signature).
	File string `json:"file,omitempty"`
}

type manifest struct {
	NextDoc uint64            `json:"next_doc"`
	NextDTD uint64            `json:"next_dtd"`
	DTDs    map[string]uint64 `json:"dtds,omitempty"`
	Pages   []manifestEntry   `json:"pages"`
}

// Save writes a snapshot of the store into dir (created if needed). The
// snapshot holds every page's metadata and, for XML pages, the current
// version as an XML file.
func (s *Store) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("warehouse: %w", err)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	man := manifest{
		NextDoc: s.nextDoc,
		NextDTD: s.nextDTD,
		DTDs:    s.dtdIDs,
	}
	i := 0
	for _, e := range s.pages {
		entry := manifestEntry{
			URL:          e.Meta.URL,
			Filename:     e.Meta.Filename,
			DocID:        e.Meta.DocID,
			DTD:          e.Meta.DTD,
			DTDID:        e.Meta.DTDID,
			Domain:       e.Meta.Domain,
			Type:         e.Meta.Type.String(),
			LastAccessed: e.Meta.LastAccessed,
			LastUpdate:   e.Meta.LastUpdate,
			Version:      e.Meta.Version,
			Signature:    hex.EncodeToString(e.Meta.Signature[:]),
		}
		if e.Doc != nil {
			entry.File = fmt.Sprintf("doc%06d.xml", i)
			i++
			path := filepath.Join(dir, entry.File)
			if err := os.WriteFile(path, []byte(e.Doc.XML()), 0o644); err != nil {
				return fmt.Errorf("warehouse: %w", err)
			}
		}
		man.Pages = append(man.Pages, entry)
	}
	raw, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return fmt.Errorf("warehouse: %w", err)
	}
	// The manifest commits the snapshot, so it installs atomically and
	// durably: temp file → fsync → rename → parent-dir fsync. Without the
	// directory sync a crash right after Save can lose the rename itself.
	tmp := filepath.Join(dir, "manifest.json.tmp")
	if err := wal.WriteFileSync(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("warehouse: %w", err)
	}
	// The fault seam sits in the torn-install window: the temp manifest
	// is durable but not yet renamed into place, so a crash injected here
	// must leave the previous snapshot intact and loadable.
	if err := s.faults.Check(faults.PointSave, dir); err != nil {
		return fmt.Errorf("warehouse: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "manifest.json")); err != nil {
		return fmt.Errorf("warehouse: %w", err)
	}
	return wal.SyncDir(dir)
}

// Load restores a snapshot written by Save into an empty store. Loading
// into a non-empty store is rejected.
func (s *Store) Load(dir string) error {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return fmt.Errorf("warehouse: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("warehouse: corrupt manifest: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pages) != 0 {
		return fmt.Errorf("warehouse: Load requires an empty store")
	}
	for _, entry := range man.Pages {
		meta := Metadata{
			URL:          entry.URL,
			Filename:     entry.Filename,
			DocID:        entry.DocID,
			DTD:          entry.DTD,
			DTDID:        entry.DTDID,
			Domain:       entry.Domain,
			LastAccessed: entry.LastAccessed,
			LastUpdate:   entry.LastUpdate,
			Version:      entry.Version,
		}
		if entry.Type == "html" {
			meta.Type = HTML
		}
		sig, err := hex.DecodeString(entry.Signature)
		if err != nil || len(sig) != len(meta.Signature) {
			return fmt.Errorf("warehouse: bad signature for %s", entry.URL)
		}
		copy(meta.Signature[:], sig)
		e := &Entry{Meta: meta}
		if entry.File != "" {
			raw, err := os.ReadFile(filepath.Join(dir, entry.File))
			if err != nil {
				return fmt.Errorf("warehouse: %w", err)
			}
			doc, err := xmldom.ParseString(string(raw))
			if err != nil {
				return fmt.Errorf("warehouse: corrupt document %s: %w", entry.File, err)
			}
			e.Doc = doc
			e.Base = doc.Clone()
			// Tier 2 works from the first refetch; older snapshots signed the XML.
			e.structHash, e.structOK = doc.Hashes().Of(doc.Root), true
			e.Meta.Signature = structSignature(e.structHash)
		}
		s.pages[entry.URL] = e
		s.indexDomainLocked(meta.Domain, entry.URL)
	}
	if man.NextDoc > s.nextDoc {
		s.nextDoc = man.NextDoc
	}
	if man.NextDTD > s.nextDTD {
		s.nextDTD = man.NextDTD
	}
	for dtd, id := range man.DTDs {
		s.dtdIDs[dtd] = id
	}
	return nil
}
