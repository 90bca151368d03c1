package reporter

import (
	"fmt"
	"sync"
	"sync/atomic"
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

// TestReporterSharesPayload: the elements handed to Notify sit in the
// report document as they are — not copied, not re-parented; a delivered
// report is not touched by later notifications or reports; followers and
// the archive share the one document; one element handed to two
// subscriptions, or again while a report holds it, is shared by every
// report it reaches; a node of a live document stays in its document; and
// the buffer is reused without pinning what it delivered.
func TestReporterSharesPayload(t *testing.T) {
	c := newClock()
	r, reports := collectReports(t, WithClock(c.now))
	h := r.Register("S", &sublang.ReportSpec{
		When:    []sublang.ReportTerm{{Kind: sublang.TermCount, Count: 1}},
		Archive: sublang.Monthly,
	})
	if err := r.Follow("F", "S"); err != nil {
		t.Fatal(err)
	}
	other := r.Register("O", nil) // immediate
	e1 := xmldom.Element("E").WithAttr("n", "1")
	e2 := xmldom.Element("E").WithAttr("n", "2")
	r.Notify(Notification{Sub: h, Label: "E", Element: e1})
	r.NotifyBatch([]Notification{
		{Sub: h, Label: "E", Element: e2},
		{Sub: other, Label: "E", Element: e2},
	})
	if len(*reports) != 3 {
		t.Fatalf("reports = %d, want 3 (owner, follower, other)", len(*reports))
	}
	// The batch's reports come in stripe order: find each by recipient.
	var first, follower, otherRep *Report
	for _, rep := range *reports {
		switch rep.Subscription {
		case "S":
			first = rep
		case "F":
			follower = rep
		case "O":
			otherRep = rep
		}
	}
	if first == nil || follower == nil || otherRep == nil {
		t.Fatal("a recipient got no report")
	}
	if len(first.Doc.Children) != 2 || first.Doc.Children[0] != e1 || first.Doc.Children[1] != e2 {
		t.Fatalf("the report does not hold the very elements it was handed: %s", first.Doc.XML())
	}
	if len(otherRep.Doc.Children) != 1 || otherRep.Doc.Children[0] != e2 {
		t.Fatalf("the other subscription's report does not share the element: %s", otherRep.Doc.XML())
	}
	if e1.Parent != nil || e2.Parent != nil {
		t.Error("the Reporter re-parented a payload it was handed")
	}
	if follower.Doc != first.Doc {
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

	before, otherBefore := first.Doc.XML(), otherRep.Doc.XML()
	r.Notify(Notification{Sub: h, Label: "E", Element: xmldom.Element("E").WithAttr("n", "3")})
	r.Notify(Notification{Sub: h, Label: "E", Element: xmldom.Element("E").WithAttr("n", "4")})
	if len(*reports) != 5 {
		t.Fatalf("reports = %d, want 5", len(*reports))
	}
	if got := (*reports)[3].Doc.XML(); got != `<Report><E n="3"/><E n="4"/></Report>` {
		t.Errorf("second report = %s", got)
	}

	// e1 again, while the first report holds it, and a node of some
	// document: the new report references both, and neither the first
	// report nor the document changes.
	page := xmldom.Element("page")
	kid := xmldom.Element("kid")
	page.AppendChild(kid)
	r.Notify(Notification{Subscription: "S", Label: "E", Element: e1})
	r.Notify(Notification{Sub: h, Label: "E", Element: kid})
	if len(*reports) != 7 {
		t.Fatalf("reports = %d, want 7", len(*reports))
	}
	last := (*reports)[5].Doc
	if got := last.XML(); got != `<Report><E n="1"/><kid/></Report>` {
		t.Errorf("third report of S = %s", got)
	}
	if last.Children[0] != e1 || last.Children[1] != kid {
		t.Error("an element handed over again was copied, not shared")
	}
	if e1.Parent != nil || first.Doc.Children[0] != e1 {
		t.Error("an element still held by a delivered report was moved")
	}
	if kid.Parent != page || len(page.Children) != 1 || page.Children[0] != kid {
		t.Error("a node of a live document left its document")
	}
	if first.Doc.XML() != before || otherRep.Doc.XML() != otherBefore {
		t.Errorf("a delivered report changed under later notifications:\n before %s\n after  %s", before, first.Doc.XML())
	}
}

// TestSharedPayloadAcrossStripes: one element handed to immediate
// subscriptions on two stripes, by two goroutines at once, while a third
// ticks and the sink serialises every report. The Reporter only reads a
// payload, so the race detector sees nothing and every report holds the
// very element; a Reporter that re-parents payloads while it builds a
// report races here. CI repeats it under -race.
func TestSharedPayloadAcrossStripes(t *testing.T) {
	const rounds = 200
	elems := make([]*xmldom.Node, rounds)
	handed := make(map[*xmldom.Node]bool, rounds) // read-only once the goroutines start
	for i := range elems {
		elems[i] = xmldom.Element("E").WithAttr("n", fmt.Sprint(i))
		handed[elems[i]] = true
	}
	var delivered atomic.Int64
	r := New(DeliveryFunc(func(rep *Report) error {
		if len(rep.Doc.Children) != 1 || !handed[rep.Doc.Children[0]] {
			t.Errorf("%s: report does not hold the one element handed in: %s", rep.Subscription, rep.Doc.XML())
		} else if got, want := rep.Doc.XML(), "<Report>"+rep.Doc.Children[0].XML()+"</Report>"; got != want {
			t.Errorf("%s: report = %s, want %s", rep.Subscription, got, want)
		}
		delivered.Add(1)
		return nil
	}))
	names := []string{"A"}
	for i := 0; len(names) < 2; i++ {
		if name := fmt.Sprintf("B%d", i); stripeIndex(name) != stripeIndex("A") {
			names = append(names, name)
		}
	}
	var notifiers, ticker sync.WaitGroup
	done := make(chan struct{})
	ticker.Add(1)
	go func() {
		defer ticker.Done()
		for {
			select {
			case <-done:
				return
			default:
				r.Tick()
			}
		}
	}()
	for _, name := range names {
		h := r.Register(name, nil) // immediate
		notifiers.Add(1)
		go func() {
			defer notifiers.Done()
			for _, e := range elems {
				r.Notify(Notification{Sub: h, Label: "E", Element: e})
			}
		}()
	}
	notifiers.Wait()
	close(done)
	ticker.Wait()
	if got := delivered.Load(); got != 2*rounds {
		t.Errorf("delivered %d reports, want %d", got, 2*rounds)
	}
	for i, e := range elems {
		if e.Parent != nil {
			t.Fatalf("element %d was re-parented under <%s>", i, e.Parent.Data)
		}
	}
}

// TestLabelCountsOnlyWhenRead: per-label counts exist only for a when
// clause with a per-label term, and still drive it across reports.
func TestLabelCountsOnlyWhenRead(t *testing.T) {
	r, reports := collectReports(t)
	plain := r.Register("Plain", countSpec(3))
	if plain.tagTerms != nil {
		t.Error("a when clause without a per-label term must not keep label counts")
	}
	tagged := r.Register("Tagged", &sublang.ReportSpec{
		When: []sublang.ReportTerm{{Kind: sublang.TermTagCount, Tag: "Hot", Count: 1}},
	})
	if tagged.tagTerms == nil {
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
