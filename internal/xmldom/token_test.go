package xmldom

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

// boundaryCase is one line of testdata/boundary.txt.
type boundaryCase struct {
	src string
	off int    // TokenizeError.Off; -1 when the error is not a TokenizeError
	msg string // TokenizeError.Msg, or the whole error text; "" when accepted
}

func boundaryCases(t testing.TB) []boundaryCase {
	f, err := os.Open("testdata/boundary.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var cases []boundaryCase
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			var c boundaryCase
			if _, err := fmt.Sscanf(line, "%q %d %q", &c.src, &c.off, &c.msg); err != nil {
				t.Fatalf("boundary.txt: %q: %v", line, err)
			}
			cases = append(cases, c)
		}
	}
	return cases
}

// TestTokenizerBoundaries walks every fall-through edge of Next's hot
// path: the input must be accepted or rejected like the encoding/xml
// oracle, build the same tree, and — since rejections only ever come from
// the general scanner — fail at the offset and with the message recorded
// before the hot path existed.
func TestTokenizerBoundaries(t *testing.T) {
	for _, c := range boundaryCases(t) {
		want, wantErr := stdlibParse([]byte(c.src))
		got, err := ParseBytes([]byte(c.src))
		if (err == nil) != (wantErr == nil) {
			t.Errorf("%q: oracle err=%v, ParseBytes err=%v", c.src, wantErr, err)
			continue
		}
		off, msg := 0, ""
		var te *TokenizeError
		switch {
		case errors.As(err, &te):
			off, msg = te.Off, te.Msg
		case err != nil:
			off, msg = -1, err.Error()
		}
		if off != c.off || msg != c.msg {
			t.Errorf("%q: ParseBytes failed with (%d, %q), recorded (%d, %q)", c.src, off, msg, c.off, c.msg)
		}
		if err == nil && got.XML() != want.XML() {
			t.Errorf("%q: trees differ:\n oracle %q\n bytes  %q", c.src, want.XML(), got.XML())
		}
	}
}

// BenchmarkTokenize runs the tokenizer alone over a small catalog with
// attributes and over the tag-dense shape of a page the ingest gate
// refuses: short names, short text runs, few attributes.
func BenchmarkTokenize(b *testing.B) {
	dense := `<catalog>` + strings.Repeat(`<product><name>radio alpha</name><category>video</category><price>129</price></product>`, 100) + `</catalog>`
	for _, bc := range []struct{ name, src string }{
		{"catalog", `<catalog site="http://s.example/"><product id="p1"><name>radio alpha</name><category>video</category><price>129</price></product><product id="p2"><name>camera</name><category>photo</category><price>349</price></product></catalog>`},
		{"tagdense", dense},
	} {
		b.Run(bc.name, func(b *testing.B) {
			data := []byte(bc.src)
			z := NewTokenizer(data)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				z.Reset(data)
				for {
					k, err := z.Next()
					if err != nil {
						b.Fatal(err)
					}
					if k == TokEOF {
						break
					}
				}
			}
		})
	}
}

// NewTokenizer returns a Tokenizer reading data.
func NewTokenizer(data []byte) *Tokenizer {
	z := &Tokenizer{}
	z.Reset(data)
	return z
}
