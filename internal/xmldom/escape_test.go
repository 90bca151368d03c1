package xmldom

import (
	"encoding/xml"
	"strings"
	"testing"
)

// TestAppendEscapedMatchesStdlib holds AppendEscaped — the escaping
// Node.XML applies — byte-identical to xml.EscapeText, so the
// serialisation stays the one encoding/xml would write.
func TestAppendEscapedMatchesStdlib(t *testing.T) {
	cases := []string{
		"",
		"plain words",
		`<">&'`,
		"tab\tnl\ncr\r",
		"camera & <radio>",
		"� ok é世",
		"\x01\x0b", // outside the XML character range
		"\xff\xfe", // invalid UTF-8
		strings.Repeat("a&b", 100),
	}
	for _, s := range cases {
		var b strings.Builder
		if err := xml.EscapeText(&b, []byte(s)); err != nil {
			t.Fatalf("EscapeText(%q): %v", s, err)
		}
		if got := string(AppendEscaped(nil, s)); got != b.String() {
			t.Errorf("AppendEscaped(%q) = %q, want %q", s, got, b.String())
		}
	}
}
