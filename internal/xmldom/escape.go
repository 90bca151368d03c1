package xmldom

import "unicode/utf8"

var (
	escQuot = []byte("&#34;")
	escApos = []byte("&#39;")
	escAmp  = []byte("&amp;")
	escLT   = []byte("&lt;")
	escGT   = []byte("&gt;")
	escTab  = []byte("&#x9;")
	escNL   = []byte("&#xA;")
	escCR   = []byte("&#xD;")
	escFFFD = []byte("�")
)

// escPlain marks ASCII bytes that pass through AppendEscaped verbatim:
// printable ASCII minus the five characters with escape sequences. Tab,
// newline, and CR are excluded — they escape to character references.
var escPlain [256]bool

func init() {
	for c := 0x20; c <= 0x7E; c++ {
		escPlain[c] = true
	}
	for _, c := range []byte{'"', '\'', '&', '<', '>'} {
		escPlain[c] = false
	}
}

// AppendEscaped appends s to dst with XML escaping, byte-identical to
// the escaping WriteXML applies to text and attribute values. Generators
// that render documents straight to bytes (webgen's byte-first fetch
// path) use it so their output round-trips to the exact canonical
// serialisation — same signature, same tree — without importing
// encoding/xml (which the rawxml vet rule forbids outside tests).
func AppendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		if escPlain[s[i]] {
			i++
			continue
		}
		r, width := utf8.DecodeRuneInString(s[i:])
		i += width
		var esc []byte
		switch r {
		case '"':
			esc = escQuot
		case '\'':
			esc = escApos
		case '&':
			esc = escAmp
		case '<':
			esc = escLT
		case '>':
			esc = escGT
		case '\t':
			esc = escTab
		case '\n':
			esc = escNL
		case '\r':
			esc = escCR
		default:
			if !isInCharacterRange(r) || (r == 0xFFFD && width == 1) {
				esc = escFFFD
				break
			}
			continue
		}
		dst = append(dst, s[last:i-width]...)
		dst = append(dst, esc...)
		last = i
	}
	return append(dst, s[last:]...)
}
