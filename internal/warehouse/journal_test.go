package warehouse

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"xymon/internal/wal"
)

// journaled is a Store whose every commit is noted in a Journal, the way
// a System notes the documents it processed.
type journaled struct {
	t *testing.T
	*Store
	j *Journal
}

func openJournaled(t *testing.T, dir string) (*journaled, *fakeClock) {
	t.Helper()
	s, clock := newTestStore()
	j, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	if err := j.Recover(s); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return &journaled{t: t, Store: s, j: j}, clock
}

// note notes a commit's version; raw is the XML it was committed from,
// nil to have the document serialised.
func (w *journaled) note(r *CommitResult, err error, raw []byte) *CommitResult {
	w.t.Helper()
	if err != nil {
		w.t.Fatal(err)
	}
	if err := w.j.Note(r.Status, r.Meta, r.Doc, raw); err != nil {
		w.t.Fatalf("Note: %v", err)
	}
	return r
}

func (w *journaled) commit(url, dtd, domain, xml string) *CommitResult {
	w.t.Helper()
	r, err := w.CommitXMLBytes(url, dtd, domain, []byte(xml))
	return w.note(r, err, []byte(xml))
}

// recoverStore reopens the journal in dir into a fresh store.
func recoverStore(t *testing.T, dir string) (*Store, error) {
	t.Helper()
	j, err := OpenJournal(dir, nil)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	s, _ := newTestStore()
	return s, j.Recover(s)
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, clock := openJournaled(t, dir)
	w.commit("http://a.example/c.xml", "http://a.example/c.dtd", "shopping",
		`<catalog><product>radio</product></catalog>`)
	clock.advance(time.Hour)
	w.commit("http://a.example/c.xml", "http://a.example/c.dtd", "shopping",
		`<catalog><product>radio</product><product>tv</product></catalog>`)
	rh, err := w.CommitHTML("http://a.example/i.html", []byte("<html>hello</html>"))
	w.note(rh, err, []byte("<html>hello</html>"))
	w.commit("http://a.example/gone.xml", "http://a.example/g.dtd", "", `<g/>`)
	rd, err := w.Delete("http://a.example/gone.xml")
	w.note(rd, err, nil)
	before, _ := w.Get("http://a.example/c.xml")
	if err := w.j.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := recoverStore(t, dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if s2.Len() != 2 {
		t.Fatalf("Len = %d", s2.Len())
	}
	e, err := s2.Get("http://a.example/c.xml")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if e.Meta != before.Meta {
		t.Errorf("meta = %+v, want %+v", e.Meta, before.Meta)
	}
	if e.Doc == nil || len(e.Doc.Root.Elements("product")) != 2 {
		t.Errorf("doc = %v", e.Doc)
	}
	// Change detection continues working: an identical commit is unchanged,
	// because the signature was restored.
	r, err := s2.CommitXMLBytes("http://a.example/c.xml", "", "", []byte(`<catalog><product>radio</product><product>tv</product></catalog>`))
	if err != nil || r.Status != StatusUnchanged {
		t.Errorf("recommit = %+v, %v", r, err)
	}
	// A changed commit yields a delta against the restored version.
	r, err = s2.CommitXMLBytes("http://a.example/c.xml", "", "", []byte(`<catalog><product>radio</product></catalog>`))
	if err != nil || r.Status != StatusUpdated || r.Delta.Empty() || r.Meta.Version != 3 {
		t.Errorf("changed recommit = %+v, %v", r, err)
	}
	// The HTML page kept its signature too.
	rh, _ = s2.CommitHTML("http://a.example/i.html", []byte("<html>hello</html>"))
	if rh.Status != StatusUnchanged {
		t.Errorf("html recommit = %v", rh.Status)
	}
	// DocIDs and DTD ids keep increasing past every one the log saw, the
	// deleted page's included.
	rn, _ := s2.CommitXMLBytes("http://a.example/new.xml", "http://a.example/n.dtd", "", []byte(`<n/>`))
	if rn.Meta.DocID != 4 || rn.Meta.DTDID != 3 {
		t.Errorf("new page ids = doc %d, dtd %d; want 4 and 3", rn.Meta.DocID, rn.Meta.DTDID)
	}
	if id := s2.DTDID("http://a.example/c.dtd"); id != e.Meta.DTDID {
		t.Errorf("DTD id of c.dtd = %d, want %d", id, e.Meta.DTDID)
	}
	// Domains restored.
	if e, err := s2.Get("http://a.example/c.xml"); err != nil || e.Meta.Domain != "shopping" {
		t.Errorf("domain not restored: %+v, %v", e, err)
	}
}

// TestJournalCheckpointKeepsNewestRecords: a checkpoint is the image of
// each page's newest record, with the counters of deleted pages; records
// after it replay on top.
func TestJournalCheckpointKeepsNewestRecords(t *testing.T) {
	dir := t.TempDir()
	w, _ := openJournaled(t, dir)
	for _, v := range []string{`<a>1</a>`, `<a>2</a>`, `<a>3</a>`} {
		w.commit("http://a.example/a.xml", "", "", v)
	}
	w.commit("http://a.example/gone.xml", "", "", `<g/>`)
	rd, err := w.Delete("http://a.example/gone.xml")
	w.note(rd, err, nil)
	if err := w.j.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	w.commit("http://a.example/b.xml", "", "", `<b/>`)
	w.j.Close()

	s2, err := recoverStore(t, dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	e, err := s2.Get("http://a.example/a.xml")
	if err != nil || e.Meta.Version != 3 || e.Doc.XML() != `<a>3</a>` {
		t.Fatalf("a.xml after checkpoint = %+v, %v", e, err)
	}
	if s2.Len() != 2 || !s2.Tracked("http://a.example/b.xml") {
		t.Fatalf("pages after checkpoint + tail: %d", s2.Len())
	}
	if r, _ := s2.CommitXMLBytes("http://a.example/c.xml", "", "", []byte(`<c/>`)); r.Meta.DocID != 4 {
		t.Errorf("DocID after a checkpoint dropped the deleted page = %d, want 4", r.Meta.DocID)
	}
}

// TestJournalLogsVersionsInOrder: an update processed before the version
// it follows is not logged — the log stays at the newest version whose
// predecessors were all noted, and moves to v2 once v2 is noted, never
// to the v3 noted before it.
func TestJournalLogsVersionsInOrder(t *testing.T) {
	for _, noteV2 := range []bool{false, true} {
		dir := t.TempDir()
		w, _ := openJournaled(t, dir)
		url := "http://a.example/a.xml"
		w.commit(url, "", "", `<a>1</a>`)
		v2, err := w.CommitXMLBytes(url, "", "", []byte(`<a>2</a>`))
		w.commit(url, "", "", `<a>3</a>`) // v3 noted first: not logged
		want := 1
		if noteV2 {
			w.note(v2, err, nil)
			want = 2
		}
		w.j.Close()
		s2, err := recoverStore(t, dir)
		if err != nil {
			t.Fatal(err)
		}
		if e, _ := s2.Get(url); e == nil || e.Meta.Version != want {
			t.Fatalf("v2 noted %v: recovered %+v, want version %d", noteV2, e, want)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	// Recovering into a non-empty store is refused.
	dir := t.TempDir()
	w, _ := openJournaled(t, dir)
	w.commit("http://a.example/a.xml", "", "", `<a/>`)
	w.commit("http://a.example/b.xml", "", "", `<b/>`)
	w.j.Close()
	j, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Recover(w.Store); err == nil {
		t.Error("Recover into a non-empty store should fail")
	}
	j.Close()

	seg := filepath.Join(dir, "seg-00000001.wal")
	intact, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := wal.Binary{}.AppendFrame(nil, []byte(`{"Meta":{"URL":"http://a.example/c.xml","DocID":3,"Version":1}}`+"\n<c/>"))

	// A torn tail is dropped: the intact records come back.
	if err := os.WriteFile(seg, append(append([]byte(nil), intact...), frame[:len(frame)-2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := recoverStore(t, dir); err != nil || s.Len() != 2 {
		t.Errorf("torn tail: recovered %v pages, %v; want the 2 intact ones", s.Len(), err)
	}

	// Damage anywhere else is ErrCorrupt, never a silent drop: a frame
	// whose checksum fails mid-log, an intact frame that is not a record,
	// and a record whose document does not parse.
	flipped := append(append([]byte(nil), intact...), frame...)
	flipped[12] ^= 0xff
	notRecord, _ := wal.Binary{}.AppendFrame(append([]byte(nil), intact...), []byte("garbage"))
	badDoc, _ := wal.Binary{}.AppendFrame(append([]byte(nil), intact...),
		[]byte(`{"Meta":{"URL":"http://a.example/c.xml","DocID":3,"Version":1}}`+"\n<broken"))
	for name, data := range map[string][]byte{"checksum": flipped, "not a record": append(notRecord, frame...), "document": badDoc} {
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := recoverStore(t, dir); !errors.Is(err, wal.ErrCorrupt) {
			t.Errorf("%s damage: Recover = %v, want wal.ErrCorrupt", name, err)
		}
	}
}

// TestJournalConcurrentNotes: worker pools note versions of many pages at
// once while checkpoints run beside them; recovery brings every page back
// at its newest version.
func TestJournalConcurrentNotes(t *testing.T) {
	dir := t.TempDir()
	w, _ := openJournaled(t, dir)
	const workers, versions = 4, 20
	var wg sync.WaitGroup
	stop := make(chan struct{})
	ckpt := make(chan error, 1)
	go func() {
		defer close(ckpt)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := w.j.Checkpoint(); err != nil {
				ckpt <- err
				return
			}
		}
	}()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			url := fmt.Sprintf("http://a.example/%d.xml", g)
			for v := 1; v <= versions; v++ {
				xml := fmt.Sprintf("<a>%d</a>", v)
				r, err := w.CommitXMLBytes(url, "", "", []byte(xml))
				if err == nil {
					err = w.j.Note(r.Status, r.Meta, r.Doc, []byte(xml))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-ckpt; err != nil {
		t.Fatalf("Checkpoint beside Notes: %v", err)
	}
	w.j.Close()
	s2, err := recoverStore(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < workers; g++ {
		url := fmt.Sprintf("http://a.example/%d.xml", g)
		if e, err := s2.Get(url); err != nil || e.Meta.Version != versions || e.Doc.XML() != fmt.Sprintf("<a>%d</a>", versions) {
			t.Errorf("%s recovered as %+v, %v; want version %d", url, e, err, versions)
		}
	}
}

// TestJournalCheckpointMatchesTail drives two journaled stores through the
// same random history — XML versions new, updated and unchanged, HTML
// pages, deletions and pages coming back, several DTDs — and checkpoints
// one of them at a random step. Recovering from checkpoint plus tail must
// restore exactly what recovering from the whole tail does: every page at
// the same version with the same metadata, signatures and document, and
// the same DocID and DTD counters.
func TestJournalCheckpointMatchesTail(t *testing.T) {
	for seed := range 32 {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { journalDifferential(t, int64(seed)) })
	}
}

func journalDifferential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var dirs [2]string // plain, checkpointed
	var sides [2]*journaled
	var clocks [2]*fakeClock
	for i := range sides {
		dirs[i] = t.TempDir()
		sides[i], clocks[i] = openJournaled(t, dirs[i])
	}
	// A short tail after the checkpoint leaves deleted pages' identifiers
	// to the counters alone often enough.
	at := rng.Intn(100)
	for step := range at + 1 + rng.Intn(20) {
		if step == at {
			if err := sides[1].j.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		page := rng.Intn(6)
		ext := []string{"xml", "html"}[rng.Intn(2)]
		switch p := rng.Intn(100); {
		case p < 55:
			url := fmt.Sprintf("http://a.example/%d.xml", page)
			dtd := []string{"", "http://a.example/x.dtd", "http://a.example/y.dtd", "http://a.example/z.dtd"}[rng.Intn(4)]
			xml := fmt.Sprintf("<p><v>%d</v></p>", rng.Intn(3))
			for _, w := range sides {
				w.commit(url, dtd, "shopping", xml)
			}
		case p < 70:
			url := fmt.Sprintf("http://a.example/%d.html", page)
			html := []byte(fmt.Sprintf("<html>%d</html>", rng.Intn(3)))
			for _, w := range sides {
				r, err := w.CommitHTML(url, html)
				w.note(r, err, html)
			}
		case p < 85:
			url := fmt.Sprintf("http://a.example/%d.%s", page, ext)
			if rng.Intn(2) == 0 {
				// The newest page: only the counters remember its DocID.
				var newest uint64
				for u, e := range sides[0].pages {
					if e.Meta.DocID >= newest {
						url, newest = u, e.Meta.DocID
					}
				}
			}
			if !sides[0].Tracked(url) {
				continue
			}
			for _, w := range sides {
				r, err := w.Delete(url)
				w.note(r, err, nil)
			}
		default:
			d := time.Duration(1+rng.Intn(60)) * time.Minute
			for _, c := range clocks {
				c.advance(d)
			}
		}
	}
	var recovered [2]*Store
	for i, w := range sides {
		if err := w.j.Close(); err != nil {
			t.Fatal(err)
		}
		s, err := recoverStore(t, dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		recovered[i] = s
	}
	plain, checkpointed := recovered[0], recovered[1]
	if len(plain.pages) != len(checkpointed.pages) || len(plain.pages) == 0 {
		t.Fatalf("checkpoint at step %d: %d pages from the tail, %d from checkpoint and tail", at, len(plain.pages), len(checkpointed.pages))
	}
	for url, a := range plain.pages {
		b := checkpointed.pages[url]
		switch {
		case b == nil:
			t.Fatalf("checkpoint at step %d: %s lost", at, url)
		case a.Meta != b.Meta || a.rawSig != b.rawSig || a.structHash != b.structHash:
			t.Fatalf("checkpoint at step %d: %s recovered as\n%+v\nfrom checkpoint and tail, from the tail as\n%+v", at, url, b.Meta, a.Meta)
		case (a.Doc == nil) != (b.Doc == nil) || a.Doc != nil && a.Doc.XML() != b.Doc.XML():
			t.Fatalf("checkpoint at step %d: %s documents differ", at, url)
		}
	}
	if plain.nextDoc != checkpointed.nextDoc || plain.nextDTD != checkpointed.nextDTD || !maps.Equal(plain.dtdIDs, checkpointed.dtdIDs) {
		t.Fatalf("checkpoint at step %d: counters from the tail doc %d, DTD %d %v; from checkpoint and tail doc %d, DTD %d %v", at,
			plain.nextDoc, plain.nextDTD, plain.dtdIDs, checkpointed.nextDoc, checkpointed.nextDTD, checkpointed.dtdIDs)
	}
}
