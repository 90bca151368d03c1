package sublang

import (
	"strings"
	"testing"
	"time"
)

// myXyleme is the full subscription example of Section 2.2.
const myXyleme = `subscription MyXyleme

monitoring
select <UpdatedPage url=URL/>
where URL extends "http://inria.fr/Xy/"
  and modified self

monitoring
select X
from self//Member X
where URL = "http://inria.fr/Xy/members.xml"
  and new X

continuous ReferenceXyleme
% a query Q that computes, e.g., the list of
% sites that reference Xyleme
try biweekly

refresh "http://inria.fr/Xy/members.xml" weekly

report
% an XML query Q' on the output stream
when notifications.count > 100
`

func TestParsePaperMyXyleme(t *testing.T) {
	sub, err := Parse(myXyleme)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if sub.Name != "MyXyleme" {
		t.Errorf("Name = %q", sub.Name)
	}
	if len(sub.Monitoring) != 2 {
		t.Fatalf("Monitoring = %d, want 2", len(sub.Monitoring))
	}

	m1 := sub.Monitoring[0]
	if m1.Label() != "UpdatedPage" {
		t.Errorf("m1 label = %q", m1.Label())
	}
	if m1.Select.Literal == nil || len(m1.Select.Literal.Attrs) != 1 ||
		m1.Select.Literal.Attrs[0].Name != "url" || !m1.Select.Literal.Attrs[0].IsVar {
		t.Errorf("m1 select = %+v", m1.Select)
	}
	if len(m1.Where) != 2 {
		t.Fatalf("m1 where = %d", len(m1.Where))
	}
	if m1.Where[0].Kind != CondURLExtends || m1.Where[0].Str != "http://inria.fr/Xy/" {
		t.Errorf("m1 cond0 = %v", m1.Where[0])
	}
	if m1.Where[1].Kind != CondSelfChange || m1.Where[1].Change != OpUpdated {
		t.Errorf("m1 cond1 = %v (modified must map to updated)", m1.Where[1])
	}

	m2 := sub.Monitoring[1]
	if m2.Label() != "X" {
		t.Errorf("m2 label = %q", m2.Label())
	}
	if len(m2.From) != 1 || m2.From[0].Var != "X" {
		t.Fatalf("m2 from = %+v", m2.From)
	}
	if len(m2.Where) != 2 {
		t.Fatalf("m2 where = %d", len(m2.Where))
	}
	// `new X` must resolve to the Member tag via the from binding.
	if m2.Where[1].Kind != CondElement || m2.Where[1].Change != OpNew ||
		m2.Where[1].Tag != "Member" || m2.Where[1].Var != "X" {
		t.Errorf("m2 cond1 = %+v, want new Member via X", m2.Where[1])
	}

	if len(sub.Continuous) != 1 {
		t.Fatalf("Continuous = %d", len(sub.Continuous))
	}
	c := sub.Continuous[0]
	if c.Name != "ReferenceXyleme" || c.Delta || c.Query != nil {
		t.Errorf("continuous = %+v", c)
	}
	if c.When.Freq != BiWeekly {
		t.Errorf("continuous freq = %v, want biweekly", c.When.Freq)
	}

	if len(sub.Refresh) != 1 || sub.Refresh[0].URL != "http://inria.fr/Xy/members.xml" ||
		sub.Refresh[0].Freq != Weekly {
		t.Errorf("refresh = %+v", sub.Refresh)
	}

	if sub.Report == nil || len(sub.Report.When) != 1 {
		t.Fatalf("report = %+v", sub.Report)
	}
	if w := sub.Report.When[0]; w.Kind != TermCount || w.Count != 100 {
		t.Errorf("report when = %+v", w)
	}
}

// xylemeCompetitors is the notification-triggered example of Section 5.2.
const xylemeCompetitors = `subscription XylemeCompetitors

monitoring
select <ChangeInMyProducts/>
where URL = "www.xyleme.com/products.xml"
  and modified self

continuous MyCompetitors
select c/name from market/competitor c
when XylemeCompetitors.ChangeInMyProducts

report when immediate
`

func TestParsePaperXylemeCompetitors(t *testing.T) {
	sub, err := Parse(xylemeCompetitors)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(sub.Continuous) != 1 {
		t.Fatalf("Continuous = %d", len(sub.Continuous))
	}
	c := sub.Continuous[0]
	if c.Query == nil {
		t.Fatal("continuous query body missing")
	}
	if c.When.NotifSub != "XylemeCompetitors" || c.When.NotifQuery != "ChangeInMyProducts" {
		t.Errorf("trigger = %+v", c.When)
	}
	if sub.Report.When[0].Kind != TermImmediate {
		t.Errorf("report when = %+v", sub.Report.When[0])
	}
}

// amsterdam is the delta continuous query of Section 5.2.
const amsterdam = `subscription Paintings

continuous delta AmsterdamPaintings
select p/title
from culture/museum m, m/painting p
where m/address contains "Amsterdam"
when biweekly

report when weekly
`

func TestParsePaperAmsterdam(t *testing.T) {
	sub, err := Parse(amsterdam)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	c := sub.Continuous[0]
	if !c.Delta || c.Name != "AmsterdamPaintings" {
		t.Errorf("continuous = %+v", c)
	}
	if c.Query == nil || len(c.Query.From) != 2 || len(c.Query.Where) != 1 {
		t.Fatalf("query = %v", c.Query)
	}
	if c.When.Freq.Duration() != 84*time.Hour {
		t.Errorf("biweekly = %v", c.When.Freq.Duration())
	}
}

func TestParseVirtual(t *testing.T) {
	sub, err := Parse(`subscription MyVirtualXyleme
virtual MyXyleme.Member`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(sub.Virtual) != 1 || sub.Virtual[0].Subscription != "MyXyleme" || sub.Virtual[0].Query != "Member" {
		t.Errorf("virtual = %+v", sub.Virtual)
	}
}

func TestParseElementConditions(t *testing.T) {
	sub, err := Parse(`subscription Catalog
monitoring
select <Hit/>
where URL extends "http://www.amazon.com/catalog/"
  and updated Product strict contains "camera"
  and Category contains "electronic"
  and DTD = "http://www.amazon.com/dtd/catalog.dtd"
report when notifications.count > 10 atmost 500 atmost weekly archive monthly
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	w := sub.Monitoring[0].Where
	if len(w) != 4 {
		t.Fatalf("where = %d", len(w))
	}
	if w[1].Kind != CondElement || w[1].Change != OpUpdated || w[1].Tag != "Product" ||
		!w[1].Strict || w[1].Str != "camera" {
		t.Errorf("cond1 = %+v", w[1])
	}
	if w[2].Kind != CondElement || w[2].Change != NoChange || w[2].Tag != "Category" ||
		w[2].Strict || w[2].Str != "electronic" {
		t.Errorf("cond2 = %+v", w[2])
	}
	if w[3].Kind != CondDTD {
		t.Errorf("cond3 = %+v", w[3])
	}
	r := sub.Report
	if r.AtMostCount != 500 || r.AtMostFreq != Weekly || r.Archive != Monthly {
		t.Errorf("report limits = %+v", r)
	}
}

func TestParseMetaConditions(t *testing.T) {
	sub, err := Parse(`subscription Meta
monitoring
select <M/>
where DTDID = 7
  and DOCID = 12
  and domain = "biology"
  and filename = "index.xml"
  and LastUpdate >= "2001-05-21"
  and LastAccessed < "2001-06-01"
  and self contains "genome"
report when immediate
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	w := sub.Monitoring[0].Where
	if w[0].Num != 7 || w[1].Num != 12 {
		t.Errorf("ids = %+v %+v", w[0], w[1])
	}
	if w[4].Kind != CondLastUpdate || w[4].Cmp != CmpGe {
		t.Errorf("lastupdate = %+v", w[4])
	}
	if w[5].Kind != CondLastAccessed || w[5].Cmp != CmpLt {
		t.Errorf("lastaccessed = %+v", w[5])
	}
	if w[6].Kind != CondSelfContains || w[6].Str != "genome" {
		t.Errorf("selfcontains = %+v", w[6])
	}
}

func TestParseReportDisjunction(t *testing.T) {
	sub, err := Parse(`subscription R
monitoring select <P/> where URL extends "http://x.example/"
report when UpdatedPage.count > 10 or weekly or immediate
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	w := sub.Report.When
	if len(w) != 3 || w[0].Kind != TermTagCount || w[0].Tag != "UpdatedPage" ||
		w[1].Kind != TermPeriodic || w[2].Kind != TermImmediate {
		t.Errorf("when = %+v", w)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty", ``},
		{"no name", `subscription`},
		{"no sections", `subscription S`},
		{"trailing garbage", `subscription S virtual A.B garbage...`},
		{"weak only", `subscription S
			monitoring select <P/> where modified self`},
		{"empty where", `subscription S
			monitoring select <P/> where`},
		{"bad url op", `subscription S
			monitoring select <P/> where URL like "x"`},
		{"short prefix", `subscription S
			monitoring select <P/> where URL extends "x"`},
		{"stopword", `subscription S
			monitoring select <P/> where self contains "the"`},
		{"stopword element", `subscription S
			monitoring select <P/> where Product contains "the"`},
		{"bare element", `subscription S
			monitoring select <P/> where Product`},
		{"unbound select var", `subscription S
			monitoring select X where URL extends "http://x/"`},
		{"self as var", `subscription S
			monitoring select X from self//a self where URL extends "http://x/"`},
		{"double var", `subscription S
			monitoring select X from self//a X, self//b X where URL extends "http://x/"`},
		{"bad builtin", `subscription S
			monitoring select <P u=NOPE/> where URL extends "http://x/"`},
		{"bad date", `subscription S
			monitoring select <P/> where LastUpdate > "yesterday"`},
		{"dup continuous", `subscription S
			continuous C select a from b c when weekly
			continuous C select a from b c when weekly`},
		{"no trigger ident", `subscription S
			continuous C select a from b c when`},
		{"unknown trigger label", `subscription S
			monitoring select <P/> where URL extends "http://x/"
			continuous C select a from b c when S.Nope`},
		{"bad report freq", `subscription S
			virtual A.B
			report when fortnightly`},
		{"bad atmost", `subscription S
			virtual A.B
			report when immediate atmost "x"`},
		{"bad refresh freq", `subscription S
			virtual A.B
			refresh "http://x/" sometimes`},
		{"dup report", `subscription S
			virtual A.B
			report when immediate
			report when immediate`},
		{"report without when", `subscription S
			virtual A.B
			report atmost 5`},
		{"wildcard var condition", `subscription S
			monitoring select X from self//* X where URL extends "http://x/" and new X`},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: Parse should fail\n%s", c.name, c.src)
		}
	}
}

// TestFromPathRefusesAttributeStep: a monitoring query's from paths share
// the query language's path grammar, which has attribute steps, but a
// from binding names elements, so an attribute step is refused by name.
func TestFromPathRefusesAttributeStep(t *testing.T) {
	_, err := Parse(`subscription S
		monitoring select X from self//product/@id X where URL extends "http://x/" and new X`)
	if err == nil || !strings.Contains(err.Error(), "attribute step @id") {
		t.Errorf("Parse = %v, want an attribute step error", err)
	}
}

func TestConditionStrings(t *testing.T) {
	sub, err := Parse(`subscription S
monitoring
select <P/>
where URL extends "http://x.example/"
  and new Product contains "camera"
  and unchanged self
report when immediate
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	joined := ""
	for _, c := range sub.Monitoring[0].Where {
		joined += c.String() + ";"
	}
	for _, want := range []string{`URL extends "http://x.example/"`, `new Product contains "camera"`, "unchanged self"} {
		if !strings.Contains(joined, want) {
			t.Errorf("condition strings %q missing %q", joined, want)
		}
	}
}

func TestFrequencyParsing(t *testing.T) {
	cases := map[string]Frequency{
		"hourly": Hourly, "daily": Daily, "biweekly": BiWeekly,
		"weekly": Weekly, "monthly": Monthly, "HOURLY": Hourly,
	}
	for in, want := range cases {
		got, ok := ParseFrequency(in)
		if !ok || got != want {
			t.Errorf("ParseFrequency(%q) = %v,%v", in, got, ok)
		}
	}
	if _, ok := ParseFrequency("yearly"); ok {
		t.Error("yearly should be rejected")
	}
}

func TestLiteralSelectWithContent(t *testing.T) {
	sub, err := Parse(`subscription Full
monitoring
select <Offer url=URL>"label" X DATE</Offer>
from self//Member X
where URL = "http://a.example/m.xml" and new X
report when immediate`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	lit := sub.Monitoring[0].Select.Literal
	if lit.Tag != "Offer" || len(lit.Children) != 3 {
		t.Fatalf("literal = %+v", lit)
	}
	if lit.Children[0].IsVar || lit.Children[0].Text != "label" {
		t.Errorf("child0 = %+v", lit.Children[0])
	}
	if !lit.Children[1].IsVar || lit.Children[1].Var != "X" {
		t.Errorf("child1 = %+v", lit.Children[1])
	}
	if !lit.Children[2].IsVar || lit.Children[2].Var != "DATE" {
		t.Errorf("child2 = %+v", lit.Children[2])
	}
	// Round-trips through the printer.
	reprint(t, sub.String())
}

func TestLiteralSelectContentErrors(t *testing.T) {
	cases := []string{
		`subscription S
monitoring select <O>Y</O> from self//M X where new X
report when immediate`, // unbound Y
		`subscription S
monitoring select <O>X</Wrong> from self//M X where new X
report when immediate`, // mismatched close tag
		`subscription S
monitoring select <O>X from self//M X where new X
report when immediate`, // unterminated literal
	}
	for i, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}
