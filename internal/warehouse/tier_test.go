package warehouse

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"xymon/internal/webgen"
	"xymon/internal/xmldom"
)

// canonSig is the version identity commitXML records in Metadata: the
// structural root hash of the parsed tree.
func canonSig(t *testing.T, data []byte) [sha256.Size]byte {
	t.Helper()
	d, err := xmldom.ParseBytes(data)
	if err != nil {
		t.Fatalf("ParseBytes: %v", err)
	}
	return structSignature(d.Hashes().Of(d.Root))
}

// TestCommitXMLBytesTiering walks one page through the full cascade and
// checks each tier resolves where it should, with the counters to match.
func TestCommitXMLBytesTiering(t *testing.T) {
	s, _ := newTestStore()
	url := "http://shop.example/cat.xml"
	v1 := []byte(`<catalog><product id="p0"><name>radio</name></product><product id="p1"><name>tv</name></product></catalog>`)
	v1ws := []byte("<catalog>\n  <product id=\"p0\">\n    <name>radio</name>\n  </product>\n  <product id='p1'><name>tv</name></product>\n</catalog>")
	v2 := []byte(`<catalog><product id="p0"><name>radio</name></product><product id="p1"><name>sonar</name></product></catalog>`)

	r, err := s.CommitXMLBytes(url, "", "shopping", v1)
	if err != nil || r.Status != StatusNew {
		t.Fatalf("first commit: %v %v", r, err)
	}
	if got := s.Stats(); got != (Stats{Parsed: 1}) {
		t.Fatalf("after new: stats %+v", got)
	}

	// Tier 1: byte-identical.
	r, err = s.CommitXMLBytes(url, "", "shopping", v1)
	if err != nil || r.Status != StatusUnchanged {
		t.Fatalf("identical refetch: %v %v", r, err)
	}
	if got := s.Stats(); got != (Stats{SkippedRawSig: 1, Parsed: 1}) {
		t.Fatalf("after tier-1: stats %+v", got)
	}

	// Tier 2: byte-different, structurally identical — no parse.
	r, err = s.CommitXMLBytes(url, "", "shopping", v1ws)
	if err != nil || r.Status != StatusUnchanged {
		t.Fatalf("perturbed refetch: %v %v", r, err)
	}
	if got := s.Stats(); got != (Stats{SkippedRawSig: 1, SkippedStructHash: 1, Parsed: 1}) {
		t.Fatalf("after tier-2: stats %+v", got)
	}
	if r.Meta.Version != 1 {
		t.Fatalf("unchanged refetch bumped version to %d", r.Meta.Version)
	}

	// A tier-2 hit refreshes the raw signature: the same perturbed bytes
	// now resolve at tier 1.
	r, err = s.CommitXMLBytes(url, "", "shopping", v1ws)
	if err != nil || r.Status != StatusUnchanged {
		t.Fatalf("perturbed re-refetch: %v %v", r, err)
	}
	if got := s.Stats(); got != (Stats{SkippedRawSig: 2, SkippedStructHash: 1, Parsed: 1}) {
		t.Fatalf("after tier-1 refresh: stats %+v", got)
	}

	// A real change falls through to parse + diff.
	r, err = s.CommitXMLBytes(url, "", "shopping", v2)
	if err != nil || r.Status != StatusUpdated {
		t.Fatalf("real change: %v %v", r, err)
	}
	if got := s.Stats(); got != (Stats{SkippedRawSig: 2, SkippedStructHash: 1, Parsed: 2, Diffed: 1}) {
		t.Fatalf("after update: stats %+v", got)
	}
	if r.Meta.Version != 2 {
		t.Fatalf("update version = %d", r.Meta.Version)
	}
	// The masked diff narrowed to the one changed product.
	if r.Delta == nil || len(r.Delta.Ops) == 0 {
		t.Fatal("update produced no delta")
	}
}

// TestCommitXMLBytesMaskedUpdate: a byte-different refetch that perturbs
// whitespace AND edits one middle child must come out as a normal update
// with a delta that reconstructs the new version — the masked-diff path.
func TestCommitXMLBytesMaskedUpdate(t *testing.T) {
	s, _ := newTestStore()
	url := "http://shop.example/wide.xml"
	mk := func(mid string, ws bool) []byte {
		sep := ""
		if ws {
			sep = "\n  "
		}
		out := "<catalog>" + sep
		for i := 0; i < 9; i++ {
			name := fmt.Sprintf("item%d", i)
			if i == 4 {
				name = mid
			}
			out += fmt.Sprintf("<product id=\"p%d\"><name>%s</name></product>%s", i, name, sep)
		}
		return []byte(out + "</catalog>")
	}
	if _, err := s.CommitXMLBytes(url, "", "", mk("item4", false)); err != nil {
		t.Fatal(err)
	}
	r, err := s.CommitXMLBytes(url, "", "", mk("edited", true))
	if err != nil || r.Status != StatusUpdated {
		t.Fatalf("masked update: %v %v", r, err)
	}
	if r.Doc.XML() != string(mustCanon(t, mk("edited", false))) {
		t.Fatalf("stored version diverged: %s", r.Doc.XML())
	}
	if got := s.Stats(); got.Diffed != 1 || got.SkippedStructHash != 0 {
		t.Fatalf("stats %+v", got)
	}
}

func mustCanon(t *testing.T, data []byte) []byte {
	t.Helper()
	d, err := xmldom.ParseBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(d.XML())
}

// TestAlwaysDiffDisablesTiers: the benchmark baseline pays a full parse
// on every refetch, even byte-identical ones.
func TestAlwaysDiffDisablesTiers(t *testing.T) {
	c := &fakeClock{}
	s := NewStore(WithClock(c.now), WithAlwaysDiff())
	url := "http://shop.example/base.xml"
	v1 := []byte(`<c><p>x</p></c>`)
	v1ws := []byte("<c>\n<p>x</p>\n</c>")
	for i, data := range [][]byte{v1, v1, v1ws} {
		r, err := s.CommitXMLBytes(url, "", "", data)
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		want := StatusUnchanged
		if i == 0 {
			want = StatusNew
		}
		if r.Status != want {
			t.Fatalf("commit %d: status %v, want %v", i, r.Status, want)
		}
	}
	got := s.Stats()
	if got.SkippedRawSig != 0 || got.SkippedStructHash != 0 {
		t.Fatalf("baseline store skipped: %+v", got)
	}
	if got.Parsed != 3 {
		t.Fatalf("baseline store parsed %d times, want 3", got.Parsed)
	}
}

// TestConcurrentStructHashNoStalePairing hammers one URL with
// semantically-identical-to-v1 refetches while a writer flips the stored
// version between v1 and v2. Run under -race. The invariant under test is
// the commit-lock discipline: whenever the structural-hash tier reports
// Unchanged, the metadata it returns belongs to the version whose hash
// matched (v1) — never to a superseding v2 that landed in between.
func TestConcurrentStructHashNoStalePairing(t *testing.T) {
	s, _ := newTestStore()
	url := "http://conc.example/tier.xml"
	v1 := []byte(`<c><p id="a"><n>one</n></p><p id="b"><n>two</n></p></c>`)
	v1ws := []byte("<c>\n  <p id=\"a\"><n>one</n></p>\n  <p id='b'><n>two</n></p>\n</c>")
	v2 := []byte(`<c><p id="a"><n>one</n></p><p id="b"><n>CHANGED</n></p></c>`)
	sig1 := canonSig(t, v1)
	sig2 := canonSig(t, v2)
	if sig1 == sig2 || canonSig(t, v1ws) != sig1 {
		t.Fatal("test misconfigured: fixtures must share canonical form")
	}
	if _, err := s.CommitXMLBytes(url, "", "", v1); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 300; i++ {
			data := v2
			if i%2 == 1 {
				data = v1
			}
			if _, err := s.CommitXMLBytes(url, "", "", data); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.CommitXMLBytes(url, "", "", v1ws)
				if err != nil {
					t.Errorf("refetcher: %v", err)
					return
				}
				if res.Status == StatusUnchanged && res.Meta.Signature != sig1 {
					t.Errorf("struct-hash hit paired with a superseded version: signature %x", res.Meta.Signature[:8])
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := s.Stats(); got.SkippedStructHash == 0 {
		t.Log("note: no tier-2 hits occurred in this run (all refetches raced with writes)")
	}
}

// The structural root hash decides "unchanged" where the SHA-256 of the
// serialised tree used to: over webgen pages, their content versions and
// both kinds of perturbed refetch, two parses have the same root hash
// exactly when they serialise to the same XML.
func TestStructHashIdentityMatchesXML(t *testing.T) {
	type version struct {
		hash uint64
		xml  string
	}
	var all []version
	for _, kind := range []webgen.PerturbKind{webgen.PerturbWhitespace, webgen.PerturbAttrOrder} {
		site := webgen.NewSite(webgen.SiteSpec{
			BaseURL: "http://h.example/c/", Pages: 3, Products: 5, Seed: 23,
			PerturbEvery: 3, PerturbKind: kind,
		})
		for _, u := range site.XMLURLs() {
			for v := 1; v <= 9; v++ {
				d, err := xmldom.ParseBytes(site.FetchXMLBytes(u, v))
				if err != nil {
					t.Fatal(err)
				}
				all = append(all, version{d.Hashes().Of(d.Root), d.XML()})
			}
		}
	}
	same, differ := 0, 0
	for i, a := range all {
		for _, b := range all[i+1:] {
			if (a.hash == b.hash) != (a.xml == b.xml) {
				t.Fatalf("hash equal %v, XML equal %v:\n%s\n%s", a.hash == b.hash, a.xml == b.xml, a.xml, b.xml)
			}
			if a.xml == b.xml {
				same++
			} else {
				differ++
			}
		}
	}
	if same == 0 || differ == 0 {
		t.Fatalf("corpus has %d equal and %d different pairs; both are needed", same, differ)
	}
}

// After a restore the structural hash is primed from the loaded document:
// the first refetch of unchanged content resolves at tier 2 (the raw
// signature is not persisted), with no parse, and carries the tree's
// identity in its metadata.
func TestUnchangedAfterLoadResolvesAtTier2(t *testing.T) {
	dir := t.TempDir()
	s, _ := newTestStore()
	url := "http://shop.example/cat.xml"
	v1 := []byte(`<catalog><product id="p0"><name>radio</name></product></catalog>`)
	v1ws := []byte("<catalog>\n  <product id='p0'><name>radio</name></product>\n</catalog>")
	if _, err := s.CommitXMLBytes(url, "", "shopping", v1); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	s2, _ := newTestStore()
	if err := s2.Load(dir); err != nil {
		t.Fatal(err)
	}
	for i, data := range [][]byte{v1ws, v1} {
		r, err := s2.CommitXMLBytes(url, "", "shopping", data)
		if err != nil || r.Status != StatusUnchanged {
			t.Fatalf("refetch %d after Load: %+v, %v", i, r, err)
		}
		if r.Meta.Signature != canonSig(t, v1) {
			t.Errorf("refetch %d: signature %x is not the tree's identity", i, r.Meta.Signature[:8])
		}
	}
	if got := s2.Stats(); got != (Stats{SkippedStructHash: 2}) {
		t.Fatalf("after Load: stats %+v, want two tier-2 hits and no parse", got)
	}
}
