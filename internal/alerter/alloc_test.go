package alerter

import (
	"testing"

	"xymon/internal/sublang"
	"xymon/internal/warehouse"
	"xymon/internal/xmldom"
)

// TestDetectAllocCeiling holds the pipeline's allocations per document: a
// page that raises one `URL extends` event — every refetched page of a
// tracked site — costs the canonical event set's copy and the Alert, and
// a page that raises nothing costs nothing. The URL alerter appends its
// codes into the pooled scratch the XML alerter fills.
func TestDetectAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := NewPipeline()
	p.Register(1, urlCond(sublang.CondURLExtends, "http://hit.example/"))
	p.Register(2, sublang.Condition{Kind: sublang.CondSelfContains, Str: "radio"})
	doc := xmldom.MustParse(`<catalog><product><name>camera</name></product></catalog>`)
	hit := xmlDoc("http://hit.example/c.xml", warehouse.StatusUnchanged, doc)
	miss := xmlDoc("http://miss.example/c.xml", warehouse.StatusUnchanged, doc)
	if a := p.Detect(hit); a == nil || len(a.Events) != 1 {
		t.Fatalf("hit: alert = %+v, want one event", a)
	}
	if a := p.Detect(miss); a != nil {
		t.Fatalf("miss: alert = %+v, want none", a)
	}
	for name, c := range map[string]struct {
		d    *Doc
		want float64
	}{"hit": {hit, 2}, "miss": {miss, 0}} {
		if got := testing.AllocsPerRun(200, func() { p.Detect(c.d) }); got != c.want {
			t.Errorf("%s: Detect allocates %.0f objects per page, want %.0f", name, got, c.want)
		}
	}
}
