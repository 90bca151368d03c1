package trigger

import (
	"strings"
	"testing"
	"time"

	"xymon/internal/sublang"
	"xymon/internal/xmldom"
	"xymon/internal/xyquery"
)

type clock struct{ t time.Time }

func (c *clock) now() time.Time          { return c.t }
func (c *clock) advance(d time.Duration) { c.t = c.t.Add(d) }

func setup(t *testing.T, queryText string, freq sublang.Frequency, delta bool) (*Engine, *clock, *[]Result, func(string)) {
	t.Helper()
	c := &clock{t: time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)}
	museumXML := `<culture><museum><address>Amsterdam</address>
		<painting><title>Night Watch</title></painting></museum></culture>`
	forest := []*xmldom.Node{xmldom.MustParse(museumXML).Root}
	setForest := func(xml string) { forest = []*xmldom.Node{xmldom.MustParse(xml).Root} }
	var results []Result
	e := New(
		func() []*xmldom.Node { return forest },
		func(r Result) { results = append(results, r) },
		WithClock(c.now),
	)
	var q *xyquery.Query
	if queryText != "" {
		var err error
		q, err = xyquery.Parse(queryText)
		if err != nil {
			t.Fatalf("parse query: %v", err)
		}
	}
	e.Register("Sub", &sublang.ContinuousQuery{
		Name:  "AmsterdamPaintings",
		Delta: delta,
		Query: q,
		When:  sublang.TriggerSpec{Freq: freq},
	})
	return e, c, &results, setForest
}

const paintingsQuery = `select p/title from culture/museum m, m/painting p where m/address contains "Amsterdam"`

func TestFrequencyEvaluation(t *testing.T) {
	e, c, results, _ := setup(t, paintingsQuery, sublang.BiWeekly, false)
	e.Tick() // first tick evaluates immediately
	if len(*results) != 1 {
		t.Fatalf("results = %d, want 1", len(*results))
	}
	r := (*results)[0]
	if r.Query != "AmsterdamPaintings" || r.Subscription != "Sub" {
		t.Errorf("result = %+v", r)
	}
	if !strings.Contains(r.Element.XML(), "Night Watch") {
		t.Errorf("result element = %s", r.Element.XML())
	}
	e.Tick() // period not elapsed
	if len(*results) != 1 {
		t.Fatalf("early re-evaluation: %d", len(*results))
	}
	c.advance(sublang.BiWeekly.Duration() + time.Hour)
	e.Tick()
	if len(*results) != 2 {
		t.Fatalf("results = %d, want 2", len(*results))
	}
	if e.Evaluations() != 2 {
		t.Errorf("Evaluations = %d", e.Evaluations())
	}
}

func TestDeltaQueryReportsOnlyChanges(t *testing.T) {
	e, c, results, setForest := setup(t, paintingsQuery, sublang.Daily, true)
	e.Tick()
	if len(*results) != 1 {
		t.Fatalf("first evaluation missing")
	}
	// First run returns the full answer.
	if got := (*results)[0].Element.XML(); !strings.Contains(got, "Night Watch") || strings.Contains(got, "-delta") {
		t.Errorf("first delta result = %s", got)
	}
	// Unchanged: no notification, only the evaluation's mark — a result
	// with no element, which a Reporter journals and never reports.
	c.advance(25 * time.Hour)
	e.Tick()
	if len(*results) != 2 || (*results)[1].Element != nil || !(*results)[1].Time.Equal(c.now()) {
		t.Fatalf("unchanged delta: results %+v, want one more with no element, at the evaluation", *results)
	}
	// Changed: a -delta element with the insertion.
	setForest(`<culture><museum><address>Amsterdam</address>
		<painting><title>Night Watch</title></painting>
		<painting><title>Milkmaid</title></painting></museum></culture>`)
	c.advance(25 * time.Hour)
	e.Tick()
	if len(*results) != 3 || (*results)[2].Element == nil {
		t.Fatalf("changed delta missing: %+v", *results)
	}
	got := (*results)[2].Element.XML()
	if !strings.HasPrefix(got, "<AmsterdamPaintings-delta>") || !strings.Contains(got, "<inserted") ||
		!strings.Contains(got, "Milkmaid") || strings.Contains(got, "Night Watch") {
		t.Errorf("delta = %s", got)
	}
}

func TestNotificationTrigger(t *testing.T) {
	c := &clock{t: time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)}
	var results []Result
	e := New(
		func() []*xmldom.Node { return nil },
		func(r Result) { results = append(results, r) },
		WithClock(c.now),
	)
	e.Register("XylemeCompetitors", &sublang.ContinuousQuery{
		Name: "MyCompetitors",
		When: sublang.TriggerSpec{NotifSub: "XylemeCompetitors", NotifQuery: "ChangeInMyProducts"},
	})
	e.Tick()
	if len(results) != 0 {
		t.Fatal("notification-triggered query must not run on Tick")
	}
	e.OnNotification("XylemeCompetitors", "SomethingElse")
	e.OnNotification("OtherSub", "ChangeInMyProducts")
	if len(results) != 0 {
		t.Fatal("wrong notification must not trigger")
	}
	e.OnNotification("XylemeCompetitors", "ChangeInMyProducts")
	if len(results) != 1 || results[0].Query != "MyCompetitors" {
		t.Fatalf("results = %+v", results)
	}
	// A query with no body still produces its (empty) element.
	if results[0].Element.Data != "MyCompetitors" {
		t.Errorf("element = %s", results[0].Element.XML())
	}
}

func TestUnregister(t *testing.T) {
	e, c, results, _ := setup(t, paintingsQuery, sublang.Daily, false)
	e.Tick()
	if e.Len() != 1 {
		t.Fatalf("Len = %d", e.Len())
	}
	e.Unregister("Sub")
	if e.Len() != 0 {
		t.Fatalf("Len after Unregister = %d", e.Len())
	}
	c.advance(48 * time.Hour)
	e.Tick()
	if len(*results) != 1 {
		t.Errorf("unregistered query still ran")
	}
}

func TestMultipleQueriesIndependentSchedules(t *testing.T) {
	c := &clock{t: time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)}
	var results []Result
	forest := []*xmldom.Node{xmldom.MustParse(`<d><x>1</x></d>`).Root}
	e := New(func() []*xmldom.Node { return forest },
		func(r Result) { results = append(results, r) }, WithClock(c.now))
	q, _ := xyquery.Parse(`select x from d/x x`)
	e.Register("S", &sublang.ContinuousQuery{Name: "Daily", Query: q, When: sublang.TriggerSpec{Freq: sublang.Daily}})
	e.Register("S", &sublang.ContinuousQuery{Name: "Weekly", Query: q, When: sublang.TriggerSpec{Freq: sublang.Weekly}})
	e.Tick() // both run on first tick
	if len(results) != 2 {
		t.Fatalf("first tick ran %d queries", len(results))
	}
	for day := 0; day < 7; day++ {
		c.advance(24*time.Hour + time.Minute)
		e.Tick()
	}
	daily, weekly := 0, 0
	for _, r := range results {
		switch r.Query {
		case "Daily":
			daily++
		case "Weekly":
			weekly++
		}
	}
	if daily != 8 || weekly != 2 {
		t.Errorf("daily=%d weekly=%d, want 8 and 2", daily, weekly)
	}
}

func TestQueryEvaluationErrorIsSilent(t *testing.T) {
	c := &clock{t: time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)}
	var results []Result
	e := New(func() []*xmldom.Node { return nil },
		func(r Result) { results = append(results, r) }, WithClock(c.now))
	// Invalid query (double-bound variable) fails validation at Eval time;
	// the engine must skip it rather than emit or panic.
	q, err := xyquery.Parse(`select a from x/y a, x/z a`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	e.Register("S", &sublang.ContinuousQuery{Name: "Bad", Query: q, When: sublang.TriggerSpec{Freq: sublang.Daily}})
	e.Tick()
	if len(results) != 0 {
		t.Errorf("bad query produced results: %v", results)
	}
}
