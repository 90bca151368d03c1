package warehouse

import (
	"fmt"
	"runtime"
	"testing"

	"xymon/internal/webgen"
	"xymon/internal/xmldom"
)

// storedPages renders the pages the steady-refetch workload keeps in its
// store: 100 sites of 20 catalog pages with 30 products each, whitespace
// perturbed, at their first version.
func storedPages() [][]byte {
	var pages [][]byte
	for s := 0; s < 100; s++ {
		site := webgen.NewSite(webgen.SiteSpec{
			BaseURL: fmt.Sprintf("http://shop%d.example/", s), Pages: 20,
			Products: 30, Seed: 7919 + int64(s),
			PerturbEvery: 3, PerturbKind: webgen.PerturbWhitespace,
		})
		for _, u := range site.XMLURLs() {
			pages = append(pages, site.FetchXMLBytes(u, 1))
		}
	}
	return pages
}

// storeFootprint parses every page and caches its structural hashes, as a
// commit leaves a stored version, and returns the live heap the versions
// hold per page after a collection, the mean page length and the mean
// number of nodes per page.
func storeFootprint(t testing.TB, pages [][]byte) (perPage, pageBytes, nodes float64) {
	docs := make([]*xmldom.Document, len(pages))
	if _, err := xmldom.ParseBytes(pages[0]); err != nil { // warm the parse scratch pool
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, p := range pages {
		d, err := xmldom.ParseBytes(p)
		if err != nil {
			t.Fatal(err)
		}
		d.Hashes()
		docs[i] = d
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := float64(len(pages))
	for i, d := range docs {
		pageBytes += float64(len(pages[i]))
		nodes += float64(d.Root.Size())
	}
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n, pageBytes / n, nodes / n
}

// BenchmarkStoreMemory is TAB-MEM for the warehouse: the live heap of one
// stored page (its tree and its cached hash vector) in bytes and as a
// multiple of the page's own bytes, and the input bytes per node that
// ParseBytes sizes its arena chunks by.
func BenchmarkStoreMemory(b *testing.B) {
	pages := storedPages()
	var perPage, pageBytes, nodes float64
	for i := 0; i < b.N; i++ {
		perPage, pageBytes, nodes = storeFootprint(b, pages)
	}
	b.ReportMetric(perPage, "B/page")
	b.ReportMetric(perPage/pageBytes, "x-page-bytes")
	b.ReportMetric(pageBytes/nodes, "input-B/node")
}

// TestStoreMemoryCeiling holds a stored catalog page to at most eight times
// its bytes. With a 112-byte Node it held 10.7 times them.
func TestStoreMemoryCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector turns off the allocator's packing of tiny objects such as short text")
	}
	perPage, pageBytes, _ := storeFootprint(t, storedPages())
	if ratio := perPage / pageBytes; ratio > 8 {
		t.Errorf("a stored page holds %.0f B, %.1f× its %.0f bytes; ceiling 8×", perPage, ratio, pageBytes)
	}
}
