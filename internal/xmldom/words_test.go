package xmldom

import (
	"slices"
	"strings"
	"testing"
)

// TestWordScannerScreen holds the screened scan to its contract on
// ASCII, folded, multi-byte and invalid input: what it yields is a
// subsequence of Words(text) that keeps every word of the screened set,
// and Remove gives back exactly what Add took.
func TestWordScannerScreen(t *testing.T) {
	texts := []string{
		"", "camera", "Digital CAMERA, new! camera2 cam era", "a-b-c 10 x", "été Déjà ÉTÉ étés",
		"ab\u212a \u212aelvin kelvin" /* the Kelvin sign lower-cases to ASCII k */, "caméra camera cam\xffera", "—camera— candle", "über Öl ÖL öl",
		strings.Repeat("x", 70) + " " + strings.Repeat("X", 64),
	}
	sets := [][]string{
		{"camera"}, {"camera", "candle"}, {"été", "öl"}, {"kelvin", "abk"}, {"10", "a"},
		{strings.Repeat("x", 64)}, {"digital camera"}, {},
	}
	for _, set := range sets {
		var screen WordScreen
		for _, w := range set {
			screen.Add(w)
		}
		ws := WordScanner{Screen: &screen}
		for _, text := range texts {
			all := Words(text)
			var got []string
			for w, i := ws.Next([]byte(text), 0); w != nil; w, i = ws.Next([]byte(text), i) {
				got = append(got, string(w))
			}
			rest := all
			for _, w := range got {
				k := slices.Index(rest, w)
				if k < 0 {
					t.Fatalf("set %q, text %q: yielded %q, not a subsequence of %q", set, text, got, all)
				}
				rest = rest[k+1:]
			}
			for _, w := range all {
				if slices.Contains(set, w) && !slices.Contains(got, w) {
					t.Errorf("set %q, text %q: lost %q (yielded %q)", set, text, w, got)
				}
			}
		}
		for _, w := range set {
			screen.Remove(w)
		}
		if screen != (WordScreen{}) {
			t.Errorf("set %q: screen not empty after removing every word", set)
		}
	}
}
