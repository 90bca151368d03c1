package warehouse

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"xymon/internal/webgen"
	"xymon/internal/xmldom"
	"xymon/internal/xydiff"
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
	// The diff found the one changed product.
	if r.Delta == nil || len(r.Delta.Ops) == 0 {
		t.Fatal("update produced no delta")
	}
}

// TestCommitXMLBytesMaskedUpdate: a byte-different refetch that perturbs
// whitespace AND edits one middle child must come out as a normal update
// whose delta touches only that child: Diff trims the eight unchanged
// products on its own.
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
		t.Fatalf("update: %v %v", r, err)
	}
	if r.Doc.XML() != string(mustCanon(t, mk("edited", false))) {
		t.Fatalf("stored version diverged: %s", r.Doc.XML())
	}
	if got := s.Stats(); got.Diffed != 1 || got.SkippedStructHash != 0 {
		t.Fatalf("stats %+v", got)
	}
	if r.Delta.Empty() {
		t.Fatal("update produced no delta")
	}
	// Every op lies under the fifth product, which keeps its XID: updates
	// and deletes name one of its old nodes, inserts one as their parent.
	under := map[xmldom.XID]bool{}
	var walk func(n *xmldom.Node)
	walk = func(n *xmldom.Node) {
		under[n.XID] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(r.Old.Root.Children[4])
	for _, op := range r.Delta.Ops {
		target := op.XID
		if op.Kind == xydiff.OpInsert {
			target = op.Parent
		}
		if !under[target] {
			t.Errorf("%v op on XID %d lies outside the edited product", op.Kind, target)
		}
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

// After recovery both unchanged tiers are primed from the logged bytes:
// a refetch of those bytes resolves at tier 1 and a reflowed one at tier
// 2, with no parse, each carrying the tree's identity in its metadata.
func TestUnchangedAfterLoadResolvesAtTier2(t *testing.T) {
	dir := t.TempDir()
	w, _ := openJournaled(t, dir)
	url := "http://shop.example/cat.xml"
	v1 := []byte(`<catalog><product id="p0"><name>radio</name></product></catalog>`)
	v1ws := []byte("<catalog>\n  <product id='p0'><name>radio</name></product>\n</catalog>")
	w.commit(url, "", "shopping", string(v1))
	w.j.Close()
	s2, err := recoverStore(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, data := range [][]byte{v1, v1ws} {
		r, err := s2.CommitXMLBytes(url, "", "shopping", data)
		if err != nil || r.Status != StatusUnchanged {
			t.Fatalf("refetch %d after recovery: %+v, %v", i, r, err)
		}
		if r.Meta.Signature != canonSig(t, v1) {
			t.Errorf("refetch %d: signature %x is not the tree's identity", i, r.Meta.Signature[:8])
		}
	}
	if got := s2.Stats(); got != (Stats{SkippedRawSig: 1, SkippedStructHash: 1}) {
		t.Fatalf("after recovery: stats %+v, want a tier-1 and a tier-2 hit and no parse", got)
	}
}

// TestTierOneIsByteExact: tier 1 answers only for the exact bytes the
// stored version was last fetched as. Over webgen pages of both perturbation
// kinds, a one-byte flip, a truncation and an appended space are never
// tier-1 hits, and each commits with the status a store without tiers
// gives it; the unedited bytes hit tier 1, and after a commit of edited
// bytes they no longer do.
func TestTierOneIsByteExact(t *testing.T) {
	url := "http://exact.example/c/p.xml"
	commit := func(s *Store, data []byte) (Status, error) {
		t.Helper()
		r, err := s.CommitXMLBytes(url, "", "shopping", data)
		if err != nil {
			return 0, err
		}
		return r.Status, nil
	}
	outcomes := make(map[string]int)
	for _, kind := range []webgen.PerturbKind{webgen.PerturbWhitespace, webgen.PerturbAttrOrder} {
		site := webgen.NewSite(webgen.SiteSpec{
			BaseURL: "http://exact.example/c/", Pages: 2, Products: 6, Seed: 31,
			PerturbEvery: 2, PerturbKind: kind,
		})
		for _, u := range site.XMLURLs() {
			for v := 1; v <= 2; v++ {
				page := site.FetchXMLBytes(u, v)
				var edited [][]byte
				for off := 0; off < len(page); off += 1 + len(page)/97 {
					b := bytes.Clone(page)
					b[off] ^= 1
					edited = append(edited, b)
				}
				edited = append(edited, page[:len(page)-1], page[:len(page)/2], append(bytes.Clone(page), ' '))

				s, _ := newTestStore()
				if _, err := commit(s, page); err != nil {
					t.Fatal(err)
				}
				if st, err := commit(s, page); err != nil || st != StatusUnchanged || s.Stats().SkippedRawSig != 1 {
					t.Fatalf("%s v%d: the unedited bytes gave %v, %v, %+v; want a tier-1 hit", u, v, st, err, s.Stats())
				}
				for i, b := range edited {
					tiered, _ := newTestStore()
					base := NewStore(WithAlwaysDiff())
					for _, st := range []*Store{tiered, base} {
						if _, err := commit(st, page); err != nil {
							t.Fatal(err)
						}
					}
					got, gotErr := commit(tiered, b)
					want, wantErr := commit(base, b)
					if tiered.Stats().SkippedRawSig != 0 {
						t.Fatalf("%s v%d edit %d: a tier-1 hit on bytes that differ from the stored version's", u, v, i)
					}
					if got != want || (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("%s v%d edit %d: status %v (err %v), a store without tiers says %v (err %v)", u, v, i, got, gotErr, want, wantErr)
					}
					// The stored version was last fetched as the edited
					// bytes, unless they failed to parse.
					if _, err := commit(tiered, page); err != nil {
						t.Fatal(err)
					}
					if hit := tiered.Stats().SkippedRawSig == 1; hit != (gotErr != nil) {
						t.Fatalf("%s v%d edit %d: refetching the unedited bytes after it: tier-1 hit %v, edit error %v", u, v, i, hit, gotErr)
					}
					if gotErr != nil {
						outcomes["refused"]++
					} else {
						outcomes[got.String()]++
					}
				}
			}
		}
	}
	if outcomes["refused"] == 0 || outcomes["updated"] == 0 || outcomes["unchanged"] == 0 {
		t.Fatalf("edit outcomes %v: every kind of outcome is needed", outcomes)
	}
	t.Logf("edit outcomes: %v", outcomes)
}

// rawHashPages are the tier-1 kernel's inputs: every length 0–64, filled
// with zeros and with seeded bytes, and a steady-refetch-sized (2 855) and
// a discovery-sized (9 470) page.
func rawHashPages() [][]byte {
	rng := rand.New(rand.NewPCG(56, 1))
	filled := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return b
	}
	var pages [][]byte
	for n := 0; n <= 64; n++ {
		pages = append(pages, make([]byte, n))
		if n > 0 {
			pages = append(pages, filled(n))
		}
	}
	return append(pages, filled(2855), filled(9470))
}

// TestRawHashIsExact holds tier 1's kernel to the page's bytes. GHASH
// zero-pads the last 16-byte block, so a page and the page with one NUL
// appended differ only in the length block: they must get different tags,
// as must the page with any one byte flipped. A copy of the page at
// another address gets the same tag, and a call allocates nothing.
func TestRawHashIsExact(t *testing.T) {
	pages := rawHashPages()
	seen := make(map[[2]uint64]int)
	for _, b := range pages {
		h := rawHash(b)
		if rawHash(bytes.Clone(b)) != h {
			t.Fatalf("%d bytes: a copy at another address got another tag", len(b))
		}
		if rawHash(append(bytes.Clone(b), 0)) == h {
			t.Fatalf("%d bytes: appending one NUL kept the tag", len(b))
		}
		for i := range b {
			b[i] ^= 0xff
			flipped := rawHash(b)
			b[i] ^= 0xff
			if flipped == h {
				t.Fatalf("%d bytes: flipping byte %d kept the tag", len(b), i)
			}
		}
		seen[h]++
	}
	if len(seen) != len(pages) {
		t.Fatalf("%d pages got %d distinct tags", len(pages), len(seen))
	}
	if raceEnabled {
		return // the race detector drops sync.Pool items at random
	}
	page := pages[len(pages)-1]
	if allocs := testing.AllocsPerRun(200, func() { rawHash(page) }); allocs != 0 {
		t.Fatalf("rawHash allocates %.1f objects per call, want 0", allocs)
	}
}

// BenchmarkRawHash times tier 1's kernel on a steady-refetch-sized and a
// discovery-sized page.
func BenchmarkRawHash(b *testing.B) {
	pages := rawHashPages()
	for _, page := range pages[len(pages)-2:] {
		b.Run(fmt.Sprintf("bytes=%d", len(page)), func(b *testing.B) {
			b.SetBytes(int64(len(page)))
			b.ReportAllocs()
			for b.Loop() {
				rawHash(page)
			}
		})
	}
}

// TestScreenStubLifecycle walks one URL through the gate's stub table: a
// refusal writes a stub, a byte-identical refetch under the same
// generation is answered by it without calling match, other bytes or
// another generation call match and overwrite it, a pass drops it, and so
// do Delete (still ErrUnknownURL) and a commit that makes the page
// tracked, whose stub Screen then never writes again.
func TestScreenStubLifecycle(t *testing.T) {
	s := NewStore()
	const url = "http://a.example/p.xml"
	page, other := []byte(`<p><q>x</q></p>`), []byte(`<p><q>y</q></p>`)
	calls := 0
	verdict := func(v bool) func([]byte) bool { return func([]byte) bool { calls++; return v } }
	for i, step := range []struct {
		data        []byte
		gen         uint64
		match, want bool
		calls       int
		hits        uint64
		stubs       int
	}{
		{page, 1, false, false, 1, 0, 1}, // first sight: screened, stubbed
		{page, 1, false, false, 1, 1, 1}, // the same bytes: a stub hit
		{other, 1, false, false, 2, 1, 1},
		{page, 1, false, false, 3, 1, 1}, // the stub holds other's hash now
		{page, 2, false, false, 4, 1, 1}, // the index moved
		{page, 2, true, false, 4, 2, 1},  // a hit does not ask match
		{other, 2, true, true, 5, 2, 0},  // a pass drops the stub
		{other, 2, true, true, 6, 2, 0},
		{page, 2, false, false, 7, 2, 1},
	} {
		if got := s.Screen(url, step.data, step.gen, verdict(step.match)); got != step.want {
			t.Fatalf("step %d: Screen = %v, want %v", i, got, step.want)
		}
		if st := s.Stats(); calls != step.calls || st.StubHits != step.hits || st.Stubs != step.stubs {
			t.Fatalf("step %d: %d match calls, %d stub hits, %d stubs; want %d, %d, %d", i, calls, st.StubHits, st.Stubs, step.calls, step.hits, step.stubs)
		}
	}
	if _, err := s.Delete(url); err != ErrUnknownURL {
		t.Fatalf("Delete of an untracked page: %v, want ErrUnknownURL", err)
	}
	if st := s.Stats(); st.Stubs != 0 {
		t.Fatalf("Delete left %d stubs", st.Stubs)
	}
	s.Screen(url, page, 2, verdict(false))
	if _, err := s.CommitXMLBytes(url, "", "", page); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Stubs != 0 {
		t.Fatalf("a commit that tracks the page left %d stubs", st.Stubs)
	}
	s.Screen(url, page, 2, verdict(false))
	if st := s.Stats(); st.Stubs != 0 || st.Parsed != 1 || st.SkippedRawSig != 0 {
		t.Fatalf("Screen on a tracked page: %+v, want no stub and the one commit", st)
	}
}
