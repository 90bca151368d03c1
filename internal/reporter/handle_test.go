package reporter

import (
	"testing"

	"xymon/internal/sublang"
	"xymon/internal/xmldom"
)

// TestHandleAndNameReachOneBuffer: a notification carrying the handle and
// one naming the subscription land in the same buffer, through the same
// code.
func TestHandleAndNameReachOneBuffer(t *testing.T) {
	r, reports := collectReports(t)
	h := r.Register("S", countSpec(1))
	r.Notify(Notification{Sub: h, Label: "A", Element: xmldom.Element("A")})
	if r.Buffered("S") != 1 {
		t.Fatalf("buffered = %d after a handle notification", r.Buffered("S"))
	}
	r.Notify(notif("S", "B"))
	if len(*reports) != 1 || (*reports)[0].Subscription != "S" || (*reports)[0].Notifications != 2 {
		t.Fatalf("reports = %+v", *reports)
	}
	if out := (*reports)[0].Doc.XML(); out != "<Report><A/><B/></Report>" {
		t.Errorf("report = %s", out)
	}
	// A batch mixing both spellings, and a handle whose Subscription field
	// names somebody else: the handle wins.
	r.Register("T", countSpec(100))
	r.NotifyBatch([]Notification{
		{Sub: h, Subscription: "T", Label: "A", Element: xmldom.Element("A")},
		notif("T", "B"),
		notif("T", "B"),
	})
	if r.Buffered("S") != 1 || r.Buffered("T") != 2 {
		t.Errorf("buffered S=%d T=%d, want 1 and 2", r.Buffered("S"), r.Buffered("T"))
	}
}

// TestDeadHandleIsRefused: after Unregister, or once the name is registered
// again, the old handle reaches nothing — neither its own detached state
// nor the new registration's buffer.
func TestDeadHandleIsRefused(t *testing.T) {
	r, reports := collectReports(t)
	old := r.Register("S", nil) // immediate
	r.Unregister("S")
	r.Notify(Notification{Sub: old, Label: "X", Element: xmldom.Element("X")})
	r.NotifyBatch([]Notification{
		{Sub: old, Label: "X", Element: xmldom.Element("X")},
		{Sub: old, Label: "X", Element: xmldom.Element("X")},
	})
	if len(*reports) != 0 || r.Buffered("S") != 0 {
		t.Fatalf("unregistered handle: %d reports, %d buffered", len(*reports), r.Buffered("S"))
	}

	first := r.Register("S", countSpec(5))
	second := r.Register("S", countSpec(5)) // replaces first
	r.Notify(Notification{Sub: first, Label: "X", Element: xmldom.Element("X")})
	if r.Buffered("S") != 0 {
		t.Fatalf("a replaced handle reached the new registration's buffer")
	}
	r.Notify(Notification{Sub: second, Label: "X", Element: xmldom.Element("X")})
	r.Notify(notif("S", "X"))
	if r.Buffered("S") != 2 {
		t.Errorf("buffered = %d, want 2 (live handle + name)", r.Buffered("S"))
	}
}

// TestReporterOwnsPayload: the elements handed to Notify are moved into the
// report document, not copied; a delivered report is not touched by later
// notifications or reports; followers and the archive share the one
// document; and the buffer is reused without pinning what it delivered.
func TestReporterOwnsPayload(t *testing.T) {
	c := newClock()
	r, reports := collectReports(t, WithClock(c.now))
	h := r.Register("S", &sublang.ReportSpec{
		When:    []sublang.ReportTerm{{Kind: sublang.TermCount, Count: 1}},
		Archive: sublang.Monthly,
	})
	if err := r.Follow("F", "S"); err != nil {
		t.Fatal(err)
	}
	e1 := xmldom.Element("E").WithAttr("n", "1")
	e2 := xmldom.Element("E").WithAttr("n", "2")
	r.Notify(Notification{Sub: h, Label: "E", Element: e1})
	r.Notify(Notification{Sub: h, Label: "E", Element: e2})
	if len(*reports) != 2 {
		t.Fatalf("reports = %d, want 2 (owner + follower)", len(*reports))
	}
	first := (*reports)[0]
	if len(first.Doc.Children) != 2 || first.Doc.Children[0] != e1 || first.Doc.Children[1] != e2 {
		t.Fatalf("the report does not hold the very elements it was handed: %s", first.Doc.XML())
	}
	if e1.Parent != first.Doc || e2.Parent != first.Doc {
		t.Error("moved elements must be re-parented under the report")
	}
	if (*reports)[1].Subscription != "F" || (*reports)[1].Doc != first.Doc {
		t.Error("the follower's copy must share the owner's document")
	}
	if arch := r.Archived("S"); len(arch) != 1 || arch[0].Doc != first.Doc {
		t.Error("the archive must share the delivered document")
	}
	if len(h.buffer) != 0 || cap(h.buffer) < 2 {
		t.Errorf("buffer len %d cap %d: capacity must survive the report", len(h.buffer), cap(h.buffer))
	}
	for _, b := range h.buffer[:cap(h.buffer)] {
		if b.elem != nil {
			t.Error("the emptied buffer still pins a delivered element")
		}
	}

	before := first.Doc.XML()
	r.Notify(Notification{Sub: h, Label: "E", Element: xmldom.Element("E").WithAttr("n", "3")})
	r.Notify(Notification{Sub: h, Label: "E", Element: xmldom.Element("E").WithAttr("n", "4")})
	if len(*reports) != 4 {
		t.Fatalf("reports = %d, want 4", len(*reports))
	}
	if after := first.Doc.XML(); after != before {
		t.Errorf("a delivered report changed under later notifications:\n before %s\n after  %s", before, after)
	}
	if got := (*reports)[2].Doc.XML(); got != `<Report><E n="3"/><E n="4"/></Report>` {
		t.Errorf("second report = %s", got)
	}

	// A caller that breaks the contract — e1 again, while the first report
	// holds it, and a node of some document — gets copies: the trees the
	// elements sit in stay whole.
	page := xmldom.Element("page")
	kid := xmldom.Element("kid")
	page.AppendChild(kid)
	r.Notify(Notification{Subscription: "S", Label: "E", Element: e1})
	r.Notify(Notification{Sub: h, Label: "E", Element: kid})
	if len(*reports) != 6 {
		t.Fatalf("reports = %d, want 6", len(*reports))
	}
	third := (*reports)[4].Doc
	if got := third.XML(); got != `<Report><E n="1"/><kid/></Report>` {
		t.Errorf("third report = %s", got)
	}
	if third.Children[0] == e1 || e1.Parent != first.Doc || first.Doc.XML() != before {
		t.Error("an element still held by a delivered report was stolen from it")
	}
	if third.Children[1] == kid || kid.Parent != page {
		t.Error("a node of a live document was stolen from it")
	}
}

// TestLabelCountsOnlyWhenRead: per-label counts exist only for a when
// clause with a per-label term, and still drive it across reports.
func TestLabelCountsOnlyWhenRead(t *testing.T) {
	r, reports := collectReports(t)
	plain := r.Register("Plain", countSpec(3))
	if plain.labelCount != nil {
		t.Error("a when clause without a per-label term must not keep label counts")
	}
	tagged := r.Register("Tagged", &sublang.ReportSpec{
		When: []sublang.ReportTerm{{Kind: sublang.TermTagCount, Tag: "Hot", Count: 1}},
	})
	if tagged.labelCount == nil {
		t.Fatal("a per-label term needs label counts")
	}
	for round := 0; round < 2; round++ {
		r.Notify(notif("Tagged", "Cold"))
		r.Notify(notif("Tagged", "Hot"))
		r.Notify(notif("Tagged", "Cold"))
		if len(*reports) != round {
			t.Fatalf("round %d: fired early (%d reports)", round, len(*reports))
		}
		r.Notify(notif("Tagged", "Hot"))
		if len(*reports) != round+1 || (*reports)[round].Notifications != 4 {
			t.Fatalf("round %d: reports = %d", round, len(*reports))
		}
	}
}

// TestUnregisterFollowLinks: unregistering a followed, a following and an
// unrelated subscription each leaves exactly the links that should remain,
// and the link count that lets Unregister skip the scan follows them to 0.
func TestUnregisterFollowLinks(t *testing.T) {
	r, reports := collectReports(t)
	recipients := func() map[string]int {
		got := make(map[string]int)
		for _, rep := range *reports {
			got[rep.Subscription]++
		}
		*reports = nil
		return got
	}
	r.Register("Owner", nil)
	r.Register("Other", nil)
	r.Register("Follower", nil)
	for _, target := range []string{"Owner", "Other"} {
		if err := r.Follow("Follower", target); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Follow("Ghost", "Owner"); err != nil { // never registered itself
		t.Fatal(err)
	}

	// Unrelated: nothing changes.
	r.Register("Bystander", nil)
	r.Unregister("Bystander")
	r.Notify(notif("Owner", "X"))
	if got := recipients(); got["Owner"] != 1 || got["Follower"] != 1 || got["Ghost"] != 1 || len(got) != 3 {
		t.Errorf("after unregistering a bystander: %v", got)
	}

	// Following: detached from every target, its own state gone.
	r.Unregister("Follower")
	r.Notify(notif("Owner", "X"))
	r.Notify(notif("Other", "X"))
	r.Notify(notif("Follower", "X"))
	if got := recipients(); got["Owner"] != 1 || got["Ghost"] != 1 || got["Other"] != 1 || len(got) != 3 {
		t.Errorf("after unregistering the follower: %v", got)
	}
	if n := r.links.Load(); n != 1 {
		t.Errorf("link count = %d after the follower left, want 1 (Ghost → Owner)", n)
	}

	// Followed: its followers' links die with it; a later unregister of
	// the follower finds no target and is harmless.
	r.Unregister("Owner")
	r.Notify(notif("Owner", "X"))
	if got := recipients(); len(got) != 0 {
		t.Errorf("after unregistering the owner: %v", got)
	}
	r.Unregister("Ghost")
	if n := r.links.Load(); n != 0 {
		t.Errorf("link count = %d with no link left, want 0", n)
	}

	// Registering a followed name again drops its links with its state.
	if err := r.Follow("Ghost", "Other"); err != nil {
		t.Fatal(err)
	}
	r.Register("Other", nil)
	r.Notify(notif("Other", "X"))
	if got := recipients(); got["Other"] != 1 || len(got) != 1 {
		t.Errorf("after registering Other again: %v", got)
	}
	if n := r.links.Load(); n != 0 {
		t.Errorf("link count = %d after the followed name was replaced, want 0", n)
	}
}
