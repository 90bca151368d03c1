package xyquery

import "testing"

// FuzzParse checks that Parse never panics, that an accepted query's
// String() reparses and prints the same again, and that evaluating it
// over a small fixed forest does not panic.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		`select p/title from culture/museum m, m/painting p where m/address contains "Amsterdam"`,
		`select distinct X from self//painting X`,
		`select m/@name from culture/museum m where m/address strict contains 'Paris' and m/price < 10`,
		`select * from a b where b != x and b > "y" and b = 3`,
		`SELECT a/b/* FROM a`,
		`select a where b = 'say "hi"'`,
		`select`,
		`select a/@b/c`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		printed := q.String()
		q2, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not reparse: %v", src, printed, err)
		}
		if again := q2.String(); again != printed {
			t.Fatalf("%q prints as %q, then as %q", src, printed, again)
		}
		_, _ = q.Eval(museumForest())
	})
}
