package xyquery

import (
	"strings"
	"testing"
	"testing/quick"

	"xymon/internal/xmldom"
)

func museumForest() []*xmldom.Node {
	d1 := xmldom.MustParse(`<culture>
		<museum><address>Amsterdam Museumplein</address>
			<painting><title>Night Watch</title></painting>
			<painting><title>Milkmaid</title></painting>
		</museum>
		<museum><address>Paris</address>
			<painting><title>Mona Lisa</title></painting>
		</museum>
	</culture>`)
	d2 := xmldom.MustParse(`<culture>
		<museum><address>Amsterdam Jordaan</address>
			<painting><title>Sunflowers</title></painting>
		</museum>
	</culture>`)
	return []*xmldom.Node{d1.Root, d2.Root}
}

func mustParseQuery(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func titles(nodes []*xmldom.Node) []string {
	var out []string
	for _, n := range nodes {
		out = append(out, n.TextContent())
	}
	return out
}

// TestPaperContinuousQuery runs the AmsterdamPaintings query of Section 5.2.
func TestPaperContinuousQuery(t *testing.T) {
	q := mustParseQuery(t, `select p/title
		from culture/museum m, m/painting p
		where m/address contains "Amsterdam"`)
	got, err := q.Eval(museumForest())
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	want := []string{"Night Watch", "Milkmaid", "Sunflowers"}
	if strings.Join(titles(got), "|") != strings.Join(want, "|") {
		t.Errorf("titles = %v, want %v", titles(got), want)
	}
	for _, n := range got {
		if n.Data != "title" {
			t.Errorf("selected %q, want title elements", n.Data)
		}
	}
}

func TestEvalElementWrapping(t *testing.T) {
	q := mustParseQuery(t, `select p/title from culture/museum m, m/painting p where m/address contains "Paris"`)
	e, err := q.EvalElement("ParisPaintings", museumForest())
	if err != nil {
		t.Fatalf("EvalElement: %v", err)
	}
	if e.Data != "ParisPaintings" || len(e.Children) != 1 {
		t.Errorf("EvalElement = %s", e.XML())
	}
}

func TestSelfRootedDescendant(t *testing.T) {
	q := mustParseQuery(t, `select X from self//painting X`)
	got, err := q.Eval(museumForest())
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if len(got) != 4 {
		t.Errorf("got %d paintings, want 4", len(got))
	}
}

func TestWildcardStep(t *testing.T) {
	q := mustParseQuery(t, `select m/* from culture/museum m where m/address = "Paris"`)
	got, err := q.Eval(museumForest())
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	// address + painting children of the Paris museum
	if len(got) != 2 {
		t.Errorf("got %d children, want 2: %v", len(got), titles(got))
	}
}

func TestPredicateOps(t *testing.T) {
	forest := museumForest()
	cases := []struct {
		src  string
		want int
	}{
		{`select m/painting from culture/museum m where m/address = "Paris"`, 1},
		{`select m/painting from culture/museum m where m/address != "Paris"`, 3},
		{`select m from culture/museum m where m strict contains "Paris"`, 0}, // text is under address, not museum
		{`select a from culture/museum m, m/address a where a strict contains "Paris"`, 1},
		{`select m from culture/museum m where m contains "jordaan"`, 1}, // case-insensitive word match
		{`select m from culture/museum m where m contains "jord"`, 0},    // not a substring match
	}
	for _, c := range cases {
		q := mustParseQuery(t, c.src)
		got, err := q.Eval(forest)
		if err != nil {
			t.Fatalf("Eval(%q): %v", c.src, err)
		}
		if len(got) != c.want {
			t.Errorf("%q: got %d results, want %d", c.src, len(got), c.want)
		}
	}
}

func TestConjunction(t *testing.T) {
	q := mustParseQuery(t, `select p/title
		from culture/museum m, m/painting p
		where m/address contains "Amsterdam" and p/title contains "milkmaid"`)
	got, err := q.Eval(museumForest())
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if len(got) != 1 || got[0].TextContent() != "Milkmaid" {
		t.Errorf("got %v, want [Milkmaid]", titles(got))
	}
}

func TestNoFromClause(t *testing.T) {
	q := mustParseQuery(t, `select self//title where self contains "sunflowers"`)
	got, err := q.Eval(museumForest())
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	// The self predicate holds for the second document only; select runs
	// over all roots once (no bindings), so all titles of all docs are
	// returned when any root contains the word.
	if len(got) == 0 {
		t.Error("expected results")
	}
}

func TestEvalClonesResults(t *testing.T) {
	forest := museumForest()
	q := mustParseQuery(t, `select m/address from culture/museum m`)
	got, err := q.Eval(forest)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	got[0].Children[0].Data = "MUTATED"
	if strings.Contains(forest[0].TextContent(), "MUTATED") {
		t.Error("Eval must return clones, not aliases into the source tree")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`from x y`,
		`select`,
		`select a from`,
		`select a from b`,
		`select a where b ~ "x"`,
		`select a where b contains`,
		`select a/`,
		`select a from b c extra`,
		`select a where b ! "x"`,
		`select a where b strict "x"`,
		`select a where b contains "unterminated`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestValidate(t *testing.T) {
	q := mustParseQuery(t, `select a from x/y a, x/z a`)
	if _, err := q.Eval(nil); err == nil {
		t.Error("double binding should fail validation")
	}
	q2 := mustParseQuery(t, `select a from x/y self`)
	if _, err := q2.Eval(nil); err == nil {
		t.Error("binding 'self' should fail validation")
	}
}

func TestQueryString(t *testing.T) {
	src := `select p/title from culture/museum m, m/painting p where m/address contains "Amsterdam" and p/title != "x"`
	q := mustParseQuery(t, src)
	// The printed form must reparse to an equivalent query.
	q2 := mustParseQuery(t, q.String())
	if q.String() != q2.String() {
		t.Errorf("String round trip: %q vs %q", q.String(), q2.String())
	}
}

func TestDescendantPathInPredicate(t *testing.T) {
	q := mustParseQuery(t, `select m from culture//museum m where m//title contains "sunflowers"`)
	got, err := q.Eval(museumForest())
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if len(got) != 1 {
		t.Errorf("got %d museums, want 1", len(got))
	}
}

func TestDistinctRemovesDuplicates(t *testing.T) {
	// The paper's reporting example: remove duplicate URLs of pages found
	// updated several times.
	report := xmldom.MustParse(`<Report>
		<UpdatedPage url="http://a/"/>
		<UpdatedPage url="http://b/"/>
		<UpdatedPage url="http://a/"/>
	</Report>`)
	q := mustParseQuery(t, `select distinct p from Report/UpdatedPage p`)
	got, err := q.Eval([]*xmldom.Node{report.Root})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if len(got) != 2 {
		t.Errorf("distinct results = %d, want 2", len(got))
	}
	// Without distinct: all three.
	q2 := mustParseQuery(t, `select p from Report/UpdatedPage p`)
	got2, _ := q2.Eval([]*xmldom.Node{report.Root})
	if len(got2) != 3 {
		t.Errorf("plain results = %d, want 3", len(got2))
	}
}

func TestAttributeStep(t *testing.T) {
	report := xmldom.MustParse(`<Report>
		<site url="http://www.yahoo.com"/>
		<site url="http://www.amazone.com"/>
		<site/>
	</Report>`)
	q := mustParseQuery(t, `select s/@url from Report/site s`)
	got, err := q.Eval([]*xmldom.Node{report.Root})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if len(got) != 2 || got[0].TextContent() != "http://www.yahoo.com" {
		t.Errorf("attribute values = %v", titles(got))
	}
	// Attribute steps also work in predicates.
	q2 := mustParseQuery(t, `select s from Report/site s where s/@url contains "yahoo"`)
	got2, _ := q2.Eval([]*xmldom.Node{report.Root})
	if len(got2) != 1 {
		t.Errorf("predicate on attribute matched %d, want 1", len(got2))
	}
}

func TestAttributeStepMustBeLast(t *testing.T) {
	if _, err := Parse(`select s/@url/x from Report/site s`); err == nil {
		t.Error("attribute step in the middle of a path should be rejected")
	}
	if _, err := Parse(`select s/@* from Report/site s`); err == nil {
		t.Error("@* should be rejected")
	}
}

func TestNumericComparisons(t *testing.T) {
	catalog := xmldom.MustParse(`<catalog>
		<product><name>radio</name><price>9</price></product>
		<product><name>tv</name><price>100</price></product>
		<product><name>hifi</name><price>30</price></product>
	</catalog>`)
	roots := []*xmldom.Node{catalog.Root}
	q := mustParseQuery(t, `select p/name from catalog/product p where p/price < "50"`)
	got, err := q.Eval(roots)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	// Numeric, not lexicographic: 9 < 50 even though "9" > "50" as strings.
	if len(got) != 2 || got[0].TextContent() != "radio" || got[1].TextContent() != "hifi" {
		t.Errorf("cheap products = %v", titles(got))
	}
	q2 := mustParseQuery(t, `select p/name from catalog/product p where p/price > "50"`)
	got2, _ := q2.Eval(roots)
	if len(got2) != 1 || got2[0].TextContent() != "tv" {
		t.Errorf("expensive products = %v", titles(got2))
	}
	// Non-numeric values fall back to lexical comparison.
	q3 := mustParseQuery(t, `select p/name from catalog/product p where p/name < "s"`)
	got3, _ := q3.Eval(roots)
	if len(got3) != 2 {
		t.Errorf("lexical comparison = %v", titles(got3))
	}
}

func TestQueryStringWithExtensions(t *testing.T) {
	src := `select distinct s/@url from Report/site s where s/@rank > "3"`
	q := mustParseQuery(t, src)
	q2 := mustParseQuery(t, q.String())
	if q.String() != q2.String() {
		t.Errorf("round trip: %q vs %q", q.String(), q2.String())
	}
}

// Quick property: the parser never panics; parsed queries print to a form
// that reparses to the same printed form.
func TestQuickParseAndPrint(t *testing.T) {
	words := []string{
		"select", "distinct", "from", "where", "and", "contains", "strict",
		"self", "a", "b/c", "m//painting", "p", "@url", "/", "*", ",",
		"=", "!", "<", ">", `"x"`, "42",
	}
	f := func(picks []uint8) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		src := ""
		for _, p := range picks {
			src += words[int(p)%len(words)] + " "
		}
		q, err := Parse(src)
		if err != nil {
			return true
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Logf("printed form does not reparse: %q -> %q: %v", src, q.String(), err)
			return false
		}
		return q2.String() == q.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// Quick property: distinct is idempotent and never increases result count.
func TestQuickDistinctIdempotent(t *testing.T) {
	report := xmldom.MustParse(`<R><a>1</a><a>1</a><a>2</a><b>1</b><b>1</b></R>`)
	roots := []*xmldom.Node{report.Root}
	plain := mustParseQuery(t, `select x from self//a x`)
	dedup := mustParseQuery(t, `select distinct x from self//a x`)
	p, err := plain.Eval(roots)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dedup.Eval(roots)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) > len(p) || len(d) != 2 {
		t.Errorf("plain=%d distinct=%d", len(p), len(d))
	}
}
