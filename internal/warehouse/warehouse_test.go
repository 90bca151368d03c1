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
	r, err := s.CommitXMLBytes("http://shop.example/cat.xml", "http://shop.example/cat.dtd", "shopping", []byte(`<catalog><product>radio</product></catalog>`))
	if err != nil {
		t.Fatalf("CommitXMLBytes: %v", err)
	}
	if r.Status != StatusNew || r.Meta.DocID == 0 || r.Meta.Version != 1 {
		t.Errorf("first commit = %+v", r)
	}
	if r.Meta.Filename != "cat.xml" {
		t.Errorf("Filename = %q", r.Meta.Filename)
	}
	firstUpdate := r.Meta.LastUpdate

	clock.advance(time.Hour)
	r, err = s.CommitXMLBytes("http://shop.example/cat.xml", "", "", []byte(`<catalog><product>radio</product></catalog>`))
	if err != nil {
		t.Fatalf("CommitXMLBytes: %v", err)
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
	r, err = s.CommitXMLBytes("http://shop.example/cat.xml", "", "", []byte(`<catalog><product>radio</product><product>tv</product></catalog>`))
	if err != nil {
		t.Fatalf("CommitXMLBytes: %v", err)
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
	for _, data := range [][]byte{nil, []byte("<!-- no root -->\n")} {
		if r, err := s.CommitXMLBytes("u", "", "", data); err == nil {
			t.Errorf("%q: committed as %v, want an error", data, r.Status)
		}
	}
	if s.Tracked("u") {
		t.Error("a rejected page is tracked")
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
	s.CommitXMLBytes("u1", "", "d", []byte(`<a/>`))
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
	if got := s.AllRoots(); len(got) != 0 {
		t.Errorf("AllRoots kept deleted page")
	}
}

// domainOf is the domain a page is classified in, "" when unknown.
func domainOf(s *Store, url string) string {
	e, err := s.Get(url)
	if err != nil {
		return ""
	}
	return e.Meta.Domain
}

func TestAllRootsAndDomains(t *testing.T) {
	s, _ := newTestStore()
	s.CommitXMLBytes("u1", "", "culture", []byte(`<culture><museum/></culture>`))
	s.CommitXMLBytes("u2", "", "culture", []byte(`<culture><museum/></culture>`))
	s.CommitXMLBytes("u3", "", "biology", []byte(`<bio/>`))
	s.CommitHTML("u4", []byte("x"))
	for url, want := range map[string]string{"u1": "culture", "u2": "culture", "u3": "biology"} {
		if got := domainOf(s, url); got != want {
			t.Errorf("%s domain = %q, want %q", url, got, want)
		}
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
	s.CommitXMLBytes("u1", "", "culture", []byte(`<c><x>1</x></c>`))
	s.CommitXMLBytes("u1", "", "biology", []byte(`<c><x>2</x></c>`))
	if got := domainOf(s, "u1"); got != "biology" {
		t.Errorf("domain = %q, want biology after reclassification", got)
	}
	s.CommitXMLBytes("u1", "", "", []byte(`<c><x>3</x></c>`))
	if got := domainOf(s, "u1"); got != "biology" {
		t.Errorf("domain = %q, want biology kept by an unclassified commit", got)
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
	s.CommitXMLBytes("u", "", "", []byte(`<a><x>1</x></a>`))
	r, err := s.CommitXMLBytes("u", "", "", []byte(`<b><y>2</y></b>`))
	if err != nil {
		t.Fatalf("CommitXMLBytes: %v", err)
	}
	if r.Status != StatusUpdated || r.Meta.Version != 2 {
		t.Errorf("replacement = %+v", r)
	}
	if r.Old == nil || r.Old.Root.Data != "a" || r.Doc.Root.Data != "b" {
		t.Errorf("replacement Old = %v, Doc = %v", r.Old, r.Doc)
	}
	if r.Delta != nil {
		t.Error("wholesale replacement has no delta")
	}
}

// TestURLChangesType: a page that switches between XML and HTML is
// replaced wholesale, like an unrelated root — Updated, no delta, only the
// new type's state kept (an HTML page has no tree and no DTD) — so
// refetching the earlier content is a change, and the journal recovers
// the page at its last type.
func TestURLChangesType(t *testing.T) {
	const xml, html = `<c><p>1</p></c>`, `<html>1</html>`
	for _, order := range [][]DocType{{HTML, XML, HTML}, {XML, HTML, XML}} {
		dir := t.TempDir()
		w, _ := openJournaled(t, dir)
		url := "http://x.example/" + order[0].String()
		commit := func(typ DocType) *CommitResult {
			if typ == XML {
				return w.commit(url, "http://x.example/c.dtd", "d", xml)
			}
			r, err := w.CommitHTML(url, []byte(html))
			return w.note(r, err, nil)
		}
		for i, typ := range order {
			r := commit(typ)
			want := StatusUpdated
			if i == 0 {
				want = StatusNew
			}
			if r.Status != want || r.Meta.Type != typ || r.Meta.Version != i+1 {
				t.Fatalf("%v, commit %d (%v): status %v, type %v, version %d", order, i, typ, r.Status, r.Meta.Type, r.Meta.Version)
			}
			if i > 0 && (r.Delta != nil || r.Old != nil) {
				t.Errorf("%v, commit %d: a type switch carries delta %v, old %v", order, i, r.Delta, r.Old)
			}
			if e, _ := w.Get(url); (e.Doc != nil) != (typ == XML) || (e.Meta.DTD != "") != (typ == XML) {
				t.Errorf("%v, commit %d: stored tree %v, DTD %q for a %v page", order, i, e.Doc, e.Meta.DTD, typ)
			}
		}
		last := order[len(order)-1]
		w.j.Close()
		w, _ = openJournaled(t, dir)
		e, err := w.Get(url)
		if err != nil || e.Meta.Type != last || e.Meta.Version != len(order) || (e.Doc != nil) != (last == XML) {
			t.Fatalf("%v: recovered %+v, %v", order, e, err)
		}
		if r := commit(last); r.Status != StatusUnchanged {
			t.Errorf("%v: refetch after recovery = %v, want unchanged", order, r.Status)
		}
		if r := commit(order[1]); r.Status != StatusUpdated || r.Meta.Type != order[1] {
			t.Errorf("%v: switch after recovery = %v %v", order, r.Status, r.Meta.Type)
		}
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
// to disjoint URLs plus readers of the roots. Run with -race.
func TestConcurrentCommits(t *testing.T) {
	s, _ := newTestStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			url := fmt.Sprintf("http://conc.example/p%d.xml", g)
			for v := 0; v < 40; v++ {
				if _, err := s.CommitXMLBytes(url, "", "load", fmt.Appendf(nil, "<d><v>%d</v></d>", v)); err != nil {
					t.Errorf("CommitXMLBytes: %v", err)
					return
				}
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
		res, err := s.CommitXMLBytes("u", "", "", fmt.Appendf(nil, "<d><v>%d</v></d>", v))
		if err != nil {
			t.Fatalf("CommitXMLBytes: %v", err)
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
		r, err := s.CommitXMLBytes("u", "", "", fmt.Appendf(nil, "<d><v>%d</v><w/></d>", v))
		if err != nil {
			t.Fatalf("CommitXMLBytes %d: %v", v, err)
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

// DTDID returns the stable identifier of a DTD URL, allocating one if
// needed.
func (s *Store) DTDID(dtd string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dtdIDLocked(dtd)
}
