package warehouse

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"xymon/internal/xmldom"
	"xymon/internal/xydiff"
)

type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) advance(d time.Duration) {
	c.t = c.t.Add(d)
}

func newTestStore() (*Store, *fakeClock) {
	c := &fakeClock{t: time.Date(2001, 5, 21, 9, 0, 0, 0, time.UTC)}
	return NewStore(WithClock(c.now)), c
}

func TestCommitXMLNewUpdatedUnchanged(t *testing.T) {
	s, clock := newTestStore()
	doc1 := xmldom.MustParse(`<catalog><product>radio</product></catalog>`)
	r, err := s.CommitXML("http://shop.example/cat.xml", "http://shop.example/cat.dtd", "shopping", doc1)
	if err != nil {
		t.Fatalf("CommitXML: %v", err)
	}
	if r.Status != StatusNew || r.Meta.DocID == 0 || r.Meta.Version != 1 {
		t.Errorf("first commit = %+v", r)
	}
	if r.Meta.Filename != "cat.xml" {
		t.Errorf("Filename = %q", r.Meta.Filename)
	}
	firstUpdate := r.Meta.LastUpdate

	clock.advance(time.Hour)
	same := xmldom.MustParse(`<catalog><product>radio</product></catalog>`)
	r, err = s.CommitXML("http://shop.example/cat.xml", "", "", same)
	if err != nil {
		t.Fatalf("CommitXML: %v", err)
	}
	if r.Status != StatusUnchanged || r.Meta.Version != 1 {
		t.Errorf("unchanged commit = %+v", r)
	}
	if !r.Meta.LastUpdate.Equal(firstUpdate) {
		t.Error("LastUpdate must not move on unchanged commit")
	}
	if !r.Meta.LastAccessed.After(firstUpdate) {
		t.Error("LastAccessed must move on every fetch")
	}

	clock.advance(time.Hour)
	changed := xmldom.MustParse(`<catalog><product>radio</product><product>tv</product></catalog>`)
	r, err = s.CommitXML("http://shop.example/cat.xml", "", "", changed)
	if err != nil {
		t.Fatalf("CommitXML: %v", err)
	}
	if r.Status != StatusUpdated || r.Meta.Version != 2 {
		t.Errorf("updated commit = %+v", r)
	}
	if r.Delta.Empty() {
		t.Error("update must carry a delta")
	}
	if r.Old == nil || r.Old.Root.Size() >= r.Doc.Root.Size() {
		t.Error("Old must be the previous smaller version")
	}
}

func TestCommitXMLRejectsEmpty(t *testing.T) {
	s, _ := newTestStore()
	if _, err := s.CommitXML("u", "", "", nil); err == nil {
		t.Error("nil document should be rejected")
	}
}

func TestCommitHTML(t *testing.T) {
	s, _ := newTestStore()
	r, err := s.CommitHTML("http://x/index.html", []byte("<html>v1</html>"))
	if err != nil || r.Status != StatusNew {
		t.Fatalf("first = %+v, %v", r, err)
	}
	if r.Meta.Type != HTML {
		t.Errorf("Type = %v, want HTML", r.Meta.Type)
	}
	r, _ = s.CommitHTML("http://x/index.html", []byte("<html>v1</html>"))
	if r.Status != StatusUnchanged {
		t.Errorf("second = %v, want unchanged", r.Status)
	}
	r, _ = s.CommitHTML("http://x/index.html", []byte("<html>v2</html>"))
	if r.Status != StatusUpdated || r.Meta.Version != 2 {
		t.Errorf("third = %+v", r)
	}
}

func TestDelete(t *testing.T) {
	s, _ := newTestStore()
	s.CommitXML("u1", "", "d", xmldom.MustParse(`<a/>`))
	r, err := s.Delete("u1")
	if err != nil || r.Status != StatusDeleted {
		t.Fatalf("Delete = %+v, %v", r, err)
	}
	if _, err := s.Get("u1"); err != ErrUnknownURL {
		t.Errorf("Get after delete = %v, want ErrUnknownURL", err)
	}
	if _, err := s.Delete("u1"); err != ErrUnknownURL {
		t.Errorf("double Delete = %v", err)
	}
	if got := s.DomainRoots("d"); len(got) != 0 {
		t.Errorf("domain index kept deleted page")
	}
}

func TestDomainRoots(t *testing.T) {
	s, _ := newTestStore()
	s.CommitXML("u1", "", "culture", xmldom.MustParse(`<culture><museum/></culture>`))
	s.CommitXML("u2", "", "culture", xmldom.MustParse(`<culture><museum/></culture>`))
	s.CommitXML("u3", "", "biology", xmldom.MustParse(`<bio/>`))
	s.CommitHTML("u4", []byte("x"))
	if got := len(s.DomainRoots("culture")); got != 2 {
		t.Errorf("culture roots = %d, want 2", got)
	}
	if got := len(s.DomainRoots("biology")); got != 1 {
		t.Errorf("biology roots = %d, want 1", got)
	}
	if got := len(s.AllRoots()); got != 3 {
		t.Errorf("all roots = %d, want 3", got)
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
}

func TestDomainReclassification(t *testing.T) {
	s, _ := newTestStore()
	s.CommitXML("u1", "", "culture", xmldom.MustParse(`<c><x>1</x></c>`))
	s.CommitXML("u1", "", "biology", xmldom.MustParse(`<c><x>2</x></c>`))
	if got := len(s.DomainRoots("culture")); got != 0 {
		t.Errorf("culture roots = %d, want 0 after reclassification", got)
	}
	if got := len(s.DomainRoots("biology")); got != 1 {
		t.Errorf("biology roots = %d, want 1", got)
	}
}

func TestDTDIDStable(t *testing.T) {
	s, _ := newTestStore()
	a := s.DTDID("http://x/a.dtd")
	b := s.DTDID("http://x/b.dtd")
	if a == b || a == 0 || b == 0 {
		t.Errorf("DTDIDs = %d, %d", a, b)
	}
	if s.DTDID("http://x/a.dtd") != a {
		t.Error("DTDID must be stable")
	}
	if s.DTDID("") != 0 {
		t.Error("empty DTD has id 0")
	}
}

func TestWholesaleReplacementResetsChain(t *testing.T) {
	s, _ := newTestStore()
	s.CommitXML("u", "", "", xmldom.MustParse(`<a><x>1</x></a>`))
	r, err := s.CommitXML("u", "", "", xmldom.MustParse(`<b><y>2</y></b>`))
	if err != nil {
		t.Fatalf("CommitXML: %v", err)
	}
	if r.Status != StatusUpdated || r.Meta.Version != 2 {
		t.Errorf("replacement = %+v", r)
	}
	if r.Old == nil || r.Old.Root.Tag != "a" || r.Doc.Root.Tag != "b" {
		t.Errorf("replacement Old = %v, Doc = %v", r.Old, r.Doc)
	}
	if r.Delta != nil {
		t.Error("wholesale replacement has no delta")
	}
}

func TestFilename(t *testing.T) {
	cases := map[string]string{
		"http://a/b/c.xml": "c.xml",
		"http://a/":        "",
		"plain":            "plain",
	}
	for in, want := range cases {
		if got := Filename(in); got != want {
			t.Errorf("Filename(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestConcurrentCommits exercises the store's locking: concurrent commits
// to disjoint URLs plus readers on the domain views. Run with -race.
func TestConcurrentCommits(t *testing.T) {
	s, _ := newTestStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			url := fmt.Sprintf("http://conc.example/p%d.xml", g)
			for v := 0; v < 40; v++ {
				doc := xmldom.MustParse(fmt.Sprintf("<d><v>%d</v></d>", v))
				if _, err := s.CommitXML(url, "", "load", doc); err != nil {
					t.Errorf("CommitXML: %v", err)
					return
				}
				s.DomainRoots("load")
				s.AllRoots()
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Errorf("Len = %d", s.Len())
	}
	for g := 0; g < 8; g++ {
		e, err := s.Get(fmt.Sprintf("http://conc.example/p%d.xml", g))
		if err != nil || e.Meta.Version != 40 {
			t.Errorf("page %d: version %d, err %v", g, e.Meta.Version, err)
		}
	}
}

// TestVersionChainDepth commits a long run of versions through the store
// and checks every update's delta turns its Old into its Doc.
func TestVersionChainDepth(t *testing.T) {
	s, _ := newTestStore()
	const versions = 50
	for v := 1; v <= versions; v++ {
		doc := xmldom.MustParse(fmt.Sprintf("<d><v>%d</v></d>", v))
		res, err := s.CommitXML("u", "", "", doc)
		if err != nil {
			t.Fatalf("CommitXML: %v", err)
		}
		if res.Meta.Version != v {
			t.Fatalf("version %d: Meta.Version = %d", v, res.Meta.Version)
		}
		if v == 1 {
			continue
		}
		if res.Status != StatusUpdated || res.Delta == nil {
			t.Fatalf("version %d: status %v, delta %v", v, res.Status, res.Delta)
		}
		got, err := xydiff.Apply(res.Old, res.Delta)
		if err != nil {
			t.Fatalf("version %d: Apply: %v", v, err)
		}
		if got.XML() != res.Doc.XML() {
			t.Errorf("version %d: old + delta = %s, want %s", v, got.XML(), res.Doc.XML())
		}
	}
}

// TestStoreKeepsOnlyCurrentVersion pins that a superseded version and its
// delta become garbage once the caller drops the CommitResult: the store
// holds the current version of a page and nothing older.
func TestStoreKeepsOnlyCurrentVersion(t *testing.T) {
	s, _ := newTestStore()
	commit := func(v int) *CommitResult {
		t.Helper()
		r, err := s.CommitXML("u", "", "", xmldom.MustParse(fmt.Sprintf("<d><v>%d</v><w/></d>", v)))
		if err != nil {
			t.Fatalf("CommitXML %d: %v", v, err)
		}
		return r
	}
	commit(1)
	delta, oldRoot := func() (weak.Pointer[xydiff.Delta], weak.Pointer[xmldom.Node]) {
		r := commit(2)
		if r.Delta == nil || r.Old == nil {
			t.Fatalf("version 2: delta %v, old %v", r.Delta, r.Old)
		}
		return weak.Make(r.Delta), weak.Make(r.Old.Root)
	}()
	for v := 3; v <= 5; v++ {
		commit(v)
	}
	runtime.GC()
	runtime.GC()
	if delta.Value() != nil {
		t.Error("version 2's delta is still reachable")
	}
	if oldRoot.Value() != nil {
		t.Error("version 1's tree is still reachable")
	}
	// Without this the whole store is garbage too, and the test would pass
	// whatever the store retained.
	runtime.KeepAlive(s)
}
