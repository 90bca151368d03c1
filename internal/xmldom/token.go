package xmldom

import (
	"bytes"
	"errors"
	"fmt"
	"unicode"
	"unicode/utf8"
)

// This file is the hand-rolled byte-level XML tokenizer behind every
// reader of a serialized document: ParseBytes, StreamHasher, the
// alerter's streaming pre-filter and the semantic tag profile. It scans a
// whole document held in a []byte and yields the document's node stream
// — start, end and text tokens as spans into that buffer — applying the
// document rules in one place (see Next), so a malformed page fails the
// same way on every path. Next allocates nothing, and entity decoding
// happens only for a text or attribute value that holds an entity or a
// "\r", so a pre-filter pass that rejects a document never materialises
// a single string. The tokens documents are mostly made of are
// recognised by index walks over one byte-class table (see Next); the
// general scanner below them decides everything else, and every
// rejection.
//
// The tokenizer accepts exactly the documents the strict encoding/xml
// decoder accepts (FuzzParseBytes holds the two to identical trees or
// identical rejection), which pins down several non-obvious rules:
//
//   - End tags match the raw (prefix:local) name of the open element;
//     namespace bindings are never consulted.
//   - A name may contain at most one colon; a leading or trailing colon
//     makes the whole name the local name.
//   - Character data may not contain an unescaped "]]>", a bare "<" ends
//     it, and every rune must lie in the XML character range; numeric
//     entities above unicode.MaxRune are rejected while surrogate values
//     expand to U+FFFD.
//   - "\r" and "\r\n" normalise to "\n" — but only for source bytes, not
//     for the expansion of a character entity.
//   - Comments must not contain "--"; CDATA must terminate; directives
//     nest unquoted angle brackets and may embed comments; a <?xml?>
//     declaration may only carry version 1.0 and a utf-8 encoding.

// TokenizeError describes a malformed document rejected by the byte
// tokenizer, with the offset of the offending byte.
type TokenizeError struct {
	Off int
	Msg string
}

func (e *TokenizeError) Error() string {
	return fmt.Sprintf("syntax error at byte %d: %s", e.Off, e.Msg)
}

// TokKind identifies the kind of the current token.
type TokKind uint8

const (
	// TokEOF is returned at the end of a well-formed document.
	TokEOF TokKind = iota
	// TokStart is a start element; Tag holds its local name.
	TokStart
	// TokEnd is an end element (synthesised for self-closing elements).
	TokEnd
	// TokText is one text node: a run of character data or one CDATA
	// section inside the root element, decoded and trimmed, not empty.
	TokText
	// tokSkip is internal: a comment, processing instruction or
	// directive that was validated and consumed.
	tokSkip
)

// span is a half-open byte range into the tokenizer's input buffer.
type span struct{ lo, hi int }

// nameSpan is an element name in the input buffer: the raw name is
// [lo, hi) and the local name [local, hi), so local == lo unless the name
// carries a prefix.
type nameSpan struct{ lo, local, hi int }

// Byte classes. One 256-entry table drives every index walk of the hot
// path — names, character data, attribute values — and the word scanner
// of words.go, so each of them costs one load and one test per byte.
const (
	cName  uint8 = 0x01 // ASCII name byte other than ':': letters, digits, '_', '.', '-'
	cStart uint8 = 0x02 // ASCII name-start byte other than ':': letters, '_'
	cColon uint8 = 0x04 // ':', which a name scan must notice to split the prefix
	cHigh  uint8 = 0x08 // >= 0x80: part of a multi-byte rune, validated after the scan
	cPlain uint8 = 0x10 // character data scanText can bulk-skip (see below)
	cUpper uint8 = 0x20 // 'A'..'Z' — the very bit that, or-ed in, lower-cases the byte
	cWord  uint8 = 0x40 // ASCII letter or digit: a word byte

	cNameAny = cName | cColon | cHigh // any byte a name scan absorbs
)

// cPlain marks printable ASCII plus tab and newline, excluding everything
// scanText's state machine inspects — the terminators ('<', the quote
// bytes), '&' (entities), ']' and '>' (the ]]> tracker), and anything
// that needs validation (controls, '\r', multi-byte lead bytes).
var byteClass = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		switch {
		case c >= utf8.RuneSelf:
			t[c] = cHigh
		case 'a' <= c && c <= 'z':
			t[c] = cName | cStart | cWord
		case 'A' <= c && c <= 'Z':
			t[c] = cName | cStart | cWord | cUpper
		case '0' <= c && c <= '9':
			t[c] = cName | cWord
		case c == '_':
			t[c] = cName | cStart
		case c == '.' || c == '-':
			t[c] = cName
		case c == ':':
			t[c] = cColon
		}
		if c >= 0x20 && c < utf8.RuneSelf || c == '\t' || c == '\n' {
			t[c] |= cPlain
		}
	}
	for _, c := range []byte{'<', '&', '"', '\'', ']', '>'} {
		t[c] &^= cPlain
	}
	return t
}()

// textFlags records what a raw text span needs before it can be consumed.
type textFlags uint8

const (
	textEntity textFlags = 1 << iota // contains entity references to expand
	textCR                           // contains \r bytes to normalise
	textCDATA                        // CDATA content: entities are literal
)

// attrSpan is one attribute of the current TokStart: the local-name span
// and the raw value span between the quotes.
type attrSpan struct {
	local span
	value span
	flags textFlags
}

// Tokenizer scans a []byte XML document into its node stream. The zero
// value is ready for use once Reset onto a document. Scratch slices are
// retained across Reset so a pooled Tokenizer tokenizes without
// allocating.
type Tokenizer struct {
	buf []byte
	pos int
	err error

	name   nameSpan // element name of the current TokStart or TokEnd
	text   span
	tflags textFlags
	attrs  []attrSpan

	needClose bool // the current TokStart was <name/>: its TokEnd is next
	rooted    bool // the root element has opened

	stack []nameSpan // names of the open elements

	node []byte // the current TokText, decoded and trimmed
	dec  []byte // decode buffer behind node and attr
}

// Reset rewinds the tokenizer onto a new buffer, keeping its internal
// scratch. Reset(nil) drops the reference to the previous buffer.
func (z *Tokenizer) Reset(data []byte) {
	z.buf = data
	z.pos = 0
	z.err = nil
	z.attrs = z.attrs[:0]
	z.stack = z.stack[:0]
	z.needClose = false
	z.rooted = false
	z.node = nil
}

// syntax records the first error with the current byte offset, wrapped
// the way Next returns it. Callers that need to return it read z.err,
// which syntax never overwrites.
func (z *Tokenizer) syntax(msg string) {
	if z.err == nil {
		z.err = fmt.Errorf("xmldom: %w", &TokenizeError{Off: z.pos, Msg: msg})
	}
}

func (z *Tokenizer) getc() (byte, bool) {
	if z.pos >= len(z.buf) {
		return 0, false
	}
	b := z.buf[z.pos]
	z.pos++
	return b, true
}

// mustgetc is getc with the stdlib decoder's semantics: running out of
// input mid-token is a syntax error.
func (z *Tokenizer) mustgetc() (byte, bool) {
	b, ok := z.getc()
	if !ok {
		z.syntax("unexpected EOF")
	}
	return b, ok
}

func (z *Tokenizer) ungetc() { z.pos-- }

func (z *Tokenizer) bytes(s span) []byte { return z.buf[s.lo:s.hi] }

// space skips XML whitespace.
func (z *Tokenizer) space() {
	for z.pos < len(z.buf) {
		switch z.buf[z.pos] {
		case ' ', '\r', '\n', '\t':
			z.pos++
		default:
			return
		}
	}
}

// Tag returns the local element name of the current TokStart or TokEnd.
// The slice aliases the input buffer.
func (z *Tokenizer) Tag() []byte { return z.buf[z.name.local:z.name.hi] }

// Text returns the text of the current TokText: entity references
// expanded, \r and \r\n normalised to \n, surrounding white space trimmed.
// The slice aliases the input buffer or the tokenizer's scratch and is
// only valid until the next call to Next.
func (z *Tokenizer) Text() []byte { return z.node }

// attr returns the local name and the decoded value of the current
// TokStart's i-th attribute. The value may alias the tokenizer's scratch:
// it is only valid until the next call to attr or Next.
func (z *Tokenizer) attr(i int) (name, value []byte) {
	a := z.attrs[i]
	value = z.bytes(a.value)
	if a.flags&(textEntity|textCR) != 0 {
		z.dec = appendDecoded(z.dec[:0], value, a.flags)
		value = z.dec
	}
	return z.bytes(a.local), value
}

// errMultipleRoots rejects a document with a second top-level element.
var errMultipleRoots = errors.New("xmldom: multiple root elements")

// Next advances the node stream: TokStart, TokEnd or TokText, or TokEOF
// at the end of a well-formed document. It applies the document rules
// every reader of a page shares, so each reads the same tree:
//
//   - the document has exactly one root element: a second one is an
//     error, and none at all is ErrNoRoot at EOF;
//   - character data outside the root element is dropped;
//   - text is decoded and trimmed (see Text), and text left empty is
//     dropped: adjacent character data and CDATA sections stay separate
//     text tokens;
//   - comments, processing instructions and directives are validated and
//     skipped;
//   - a self-closing element yields a TokStart followed by a TokEnd.
//
// A syntax error wraps a *TokenizeError. After an error, Next keeps
// returning it.
//
// The tokens a serialized document is mostly made of are recognised here
// by index walks over byteClass, without entering the general scanner: a
// run of plain character data up to the next '<'; an end tag, which is
// one compare of the bytes after "</" against the raw name on top of the
// open-element stack and then '>' (a name byte-equal to one already
// validated needs no validation and no prefix split); and a start tag
// whose name is colon-free ASCII, which returns at once on '>' and
// otherwise goes to the attribute loop. These paths only ever accept.
// Whatever they do not recognise — prefixed or non-ASCII names,
// whitespace before '>' in an end tag, entities, '\r', ']' and '>' in
// text, comments, PIs, CDATA, directives, truncated input and every
// malformed construct — is rescanned from the same offset by the general
// code below, so the accepted set, the token stream and every
// TokenizeError's offset and message are those of the general code alone.
func (z *Tokenizer) Next() (TokKind, error) {
	if z.err != nil {
		return TokEOF, z.err
	}
	if z.needClose {
		// The end tag implied by <name/>: the element is on top of the
		// stack and z.name still holds it.
		z.needClose = false
		z.stack = z.stack[:len(z.stack)-1]
		return TokEnd, nil
	}
	buf := z.buf
	for {
		p := z.pos
		if p >= len(buf) {
			if len(z.stack) > 0 {
				z.syntax("unexpected EOF")
			} else if !z.rooted {
				z.err = ErrNoRoot
			}
			return TokEOF, z.err
		}
		if buf[p] != '<' {
			q := p
			for q < len(buf) && byteClass[buf[q]]&cPlain != 0 {
				q++
			}
			if q < len(buf) && buf[q] == '<' {
				z.pos = q
				if len(z.stack) == 0 {
					continue
				}
				// Plain bytes are ASCII: a run with no space at either end
				// is its own decoded, trimmed text.
				if buf[p] > ' ' && buf[q-1] > ' ' {
					z.node = buf[p:q]
					return TokText, nil
				}
				z.text, z.tflags = span{p, q}, 0
			} else if z.textToken(false) == TokEOF {
				return TokEOF, z.err
			}
			if z.keepText() {
				return TokText, nil
			}
			continue
		}
		if p+1 < len(buf) {
			if c := buf[p+1]; c == '/' {
				if n := len(z.stack); n > 0 {
					top := z.stack[n-1]
					e := p + 2 + top.hi - top.lo
					if e < len(buf) && buf[e] == '>' && string(buf[p+2:e]) == string(buf[top.lo:top.hi]) {
						z.name, z.pos, z.stack = top, e+1, z.stack[:n-1]
						return TokEnd, nil
					}
				}
			} else if byteClass[c]&cStart != 0 {
				q := p + 2
				for q < len(buf) && byteClass[buf[q]]&cName != 0 {
					q++
				}
				// The name must end at a delimiter inside the input: then
				// it is pure ASCII with a checked start byte, hence valid.
				if q < len(buf) && byteClass[buf[q]]&(cColon|cHigh) == 0 {
					name := nameSpan{p + 1, p + 1, q}
					if buf[q] == '>' {
						z.name, z.pos, z.attrs = name, q+1, z.attrs[:0]
						z.stack = append(z.stack, name)
						return z.opened()
					}
					z.pos = q
					if z.startTag(name) == TokEOF {
						return TokEOF, z.err
					}
					return z.opened()
				}
			}
		}
		switch k := z.scanMarkup(); {
		case z.err != nil:
			return TokEOF, z.err
		case k == TokEnd:
			// Raw-name matching: for names with at most one colon,
			// byte equality of the raw names is exactly equality of
			// the (space, local) pairs the stdlib compares.
			if len(z.stack) == 0 {
				z.syntax("unexpected end element </" + string(z.Tag()) + ">")
				return TokEOF, z.err
			}
			top := z.stack[len(z.stack)-1]
			z.stack = z.stack[:len(z.stack)-1]
			if open, raw := buf[top.lo:top.hi], buf[z.name.lo:z.name.hi]; !bytes.Equal(open, raw) {
				z.syntax("element <" + string(open) + "> closed by </" + string(raw) + ">")
				return TokEOF, z.err
			}
			return TokEnd, nil
		case k == TokStart:
			return z.opened()
		case k == TokText:
			if z.keepText() {
				return TokText, nil
			}
		}
		// A comment, PI or directive, or dropped text — keep scanning.
	}
}

// opened applies the one-root rule to the element the current TokStart
// has just opened.
func (z *Tokenizer) opened() (TokKind, error) {
	if len(z.stack) == 1 {
		if z.rooted {
			z.err = errMultipleRoots
			return TokEOF, z.err
		}
		z.rooted = true
	}
	return TokStart, nil
}

// keepText applies the text rules to the text token just scanned: outside
// the root it is dropped; inside, it is decoded and trimmed into z.node,
// and kept unless nothing is left.
func (z *Tokenizer) keepText() bool {
	if len(z.stack) == 0 {
		return false
	}
	b := z.bytes(z.text)
	if z.tflags&(textEntity|textCR) != 0 {
		z.dec = appendDecoded(z.dec[:0], b, z.tflags)
		b = z.dec
	}
	z.node = bytes.TrimSpace(b)
	return len(z.node) > 0
}

// textToken scans one character-data or CDATA token with scanText; a
// failure is recorded in z.err.
func (z *Tokenizer) textToken(cdata bool) TokKind {
	s, flags, ok := z.scanText(-1, cdata)
	if !ok {
		return TokEOF
	}
	z.text, z.tflags = s, flags
	return TokText
}

// scanMarkup is the general scanner for the markup at the cursor, which
// is on a '<': an end tag, a start tag (TokStart, already opened by
// startTag), a CDATA section (TokText), or a comment, processing
// instruction or directive (tokSkip). A failure is recorded in z.err.
func (z *Tokenizer) scanMarkup() TokKind {
	z.pos++
	b, ok := z.mustgetc()
	if !ok {
		return TokEOF
	}
	switch b {
	case '/':
		// </name>
		name, ok := z.nsName()
		if !ok {
			z.syntax("expected element name after </")
			return TokEOF
		}
		z.space()
		if b, ok = z.mustgetc(); !ok {
			return TokEOF
		}
		if b != '>' {
			z.syntax("invalid characters between </" + string(z.buf[name.local:name.hi]) + " and >")
			return TokEOF
		}
		z.name = name
		return TokEnd

	case '?':
		// Processing instruction: <?target ...?>. The target has no
		// namespace restriction; only <?xml?> is inspected.
		target, _, _, ok := z.rawName()
		if !ok {
			z.syntax("expected target name after <?")
			return TokEOF
		}
		z.space()
		lo := z.pos
		var b0 byte
		for {
			if b, ok = z.mustgetc(); !ok {
				return TokEOF
			}
			if b0 == '?' && b == '>' {
				break
			}
			b0 = b
		}
		if bytes.Equal(z.bytes(target), []byte("xml")) {
			if !z.checkXMLDecl(z.buf[lo : z.pos-2]) {
				return TokEOF
			}
		}
		return tokSkip

	case '!':
		if b, ok = z.mustgetc(); !ok {
			return TokEOF
		}
		switch b {
		case '-': // <!-- comment
			if b, ok = z.mustgetc(); !ok {
				return TokEOF
			}
			if b != '-' {
				z.syntax("invalid sequence <!- not part of <!--")
				return TokEOF
			}
			var b0, b1 byte
			for {
				if b, ok = z.mustgetc(); !ok {
					return TokEOF
				}
				if b0 == '-' && b1 == '-' {
					if b != '>' {
						z.syntax(`invalid sequence "--" not allowed in comments`)
						return TokEOF
					}
					break
				}
				b0, b1 = b1, b
			}
			return tokSkip

		case '[': // <![CDATA[
			for i := 0; i < 6; i++ {
				if b, ok = z.mustgetc(); !ok {
					return TokEOF
				}
				if b != "CDATA["[i] {
					z.syntax("invalid <![ sequence")
					return TokEOF
				}
			}
			return z.textToken(true)
		}
		// A directive: <!DOCTYPE ...> etc. Consumed without keeping the
		// body: quoted angle brackets do not nest, embedded comments are
		// skipped whole, and (like the stdlib) the first byte after <!
		// is stored without inspection.
		inquote := byte(0)
		depth := 0
		for {
			if b, ok = z.mustgetc(); !ok {
				return TokEOF
			}
			if inquote == 0 && b == '>' && depth == 0 {
				break
			}
		HandleB:
			switch {
			case b == inquote:
				inquote = 0
			case inquote != 0:
				// In quotes: no special action.
			case b == '\'' || b == '"':
				inquote = b
			case b == '>':
				depth--
			case b == '<':
				// Probe for <!-- opening an embedded comment.
				for i := 0; i < 3; i++ {
					if b, ok = z.mustgetc(); !ok {
						return TokEOF
					}
					if b != "!--"[i] {
						depth++
						goto HandleB
					}
				}
				var b0, b1 byte
				for {
					if b, ok = z.mustgetc(); !ok {
						return TokEOF
					}
					if b0 == '-' && b1 == '-' && b == '>' {
						break
					}
					b0, b1 = b1, b
				}
			}
		}
		return tokSkip
	}

	// An open element: <name attr="value" ...> or <name/>.
	z.ungetc()
	name, ok := z.nsName()
	if !ok {
		z.syntax("expected element name after <")
		return TokEOF
	}
	return z.startTag(name)
}

// startTag scans the rest of a start tag whose name has just been
// scanned — attributes, then > or /> — and opens the element. An
// attribute written name="value" with a colon-free ASCII name and a value
// of plain bytes is taken by index walks; anything else goes through
// nsName and scanText from the same offset.
func (z *Tokenizer) startTag(name nameSpan) TokKind {
	buf := z.buf
	z.attrs = z.attrs[:0]
	for {
		z.space()
		b, ok := z.mustgetc()
		if !ok {
			return TokEOF
		}
		if b == '/' {
			if b, ok = z.mustgetc(); !ok {
				return TokEOF
			}
			if b != '>' {
				z.syntax("expected /> in element")
				return TokEOF
			}
			z.needClose = true
			break
		}
		if b == '>' {
			break
		}
		z.ungetc()
		if p := z.pos; byteClass[b]&cStart != 0 {
			q := p + 1
			for q < len(buf) && byteClass[buf[q]]&cName != 0 {
				q++
			}
			if q+1 < len(buf) && buf[q] == '=' && (buf[q+1] == '"' || buf[q+1] == '\'') {
				e := q + 2
				for e < len(buf) && byteClass[buf[e]]&cPlain != 0 {
					e++
				}
				if e < len(buf) && buf[e] == buf[q+1] {
					z.attrs = append(z.attrs, attrSpan{local: span{p, q}, value: span{q + 2, e}})
					z.pos = e + 1
					continue
				}
			}
		}
		aname, ok := z.nsName()
		if !ok {
			z.syntax("expected attribute name in element")
			return TokEOF
		}
		z.space()
		if b, ok = z.mustgetc(); !ok {
			return TokEOF
		}
		if b != '=' {
			z.syntax("attribute name without = in element")
			return TokEOF
		}
		z.space()
		if b, ok = z.mustgetc(); !ok {
			return TokEOF
		}
		if b != '"' && b != '\'' {
			z.syntax("unquoted or missing attribute value in element")
			return TokEOF
		}
		val, flags, ok := z.scanText(int(b), false)
		if !ok {
			return TokEOF
		}
		z.attrs = append(z.attrs, attrSpan{local: span{aname.local, aname.hi}, value: val, flags: flags})
	}
	z.name = name
	z.stack = append(z.stack, name)
	return TokStart
}

// rawName scans an XML name at the cursor: ASCII name bytes and all
// multi-byte runes are absorbed, then the name is validated against the
// Appendix B tables. A name of pure ASCII name bytes — the overwhelming
// case — validates with a single start-byte check: the scanned bytes are
// exactly the ASCII subset of nameFirst ∪ nameRest, so only the
// first-byte rule can still fail. The scan also reports how many colons
// the name holds and the offset of the last one, for nsName. ok=false
// with z.err unset means "no name here"; callers convert that into their
// own context error.
func (z *Tokenizer) rawName() (s span, colons, colon int, ok bool) {
	lo := z.pos
	b, ok := z.mustgetc()
	if !ok {
		return span{}, 0, 0, false
	}
	z.ungetc()
	if byteClass[b]&cNameAny == 0 {
		return span{}, 0, 0, false
	}
	ascii := true
	for ; z.pos < len(z.buf); z.pos++ {
		c := byteClass[z.buf[z.pos]]
		if c&cName != 0 {
			continue
		}
		if c&cColon != 0 {
			colons, colon = colons+1, z.pos
		} else if c&cHigh != 0 {
			ascii = false
		} else {
			break
		}
	}
	if z.pos == len(z.buf) {
		// A name cannot end the document: something must close the tag.
		z.syntax("unexpected EOF")
		return span{}, 0, 0, false
	}
	s = span{lo, z.pos}
	if ascii {
		if byteClass[z.buf[lo]]&(cStart|cColon) == 0 {
			z.syntax("invalid XML name: " + string(z.bytes(s)))
			return span{}, 0, 0, false
		}
		return s, colons, colon, true
	}
	if !isName(z.bytes(s)) {
		z.syntax("invalid XML name: " + string(z.bytes(s)))
		return span{}, 0, 0, false
	}
	return s, colons, colon, true
}

// nsName scans a name and applies the namespace split: more than one
// colon rejects the name; exactly one interior colon splits prefix and
// local name; a leading or trailing colon leaves the local name whole.
func (z *Tokenizer) nsName() (nameSpan, bool) {
	raw, colons, colon, ok := z.rawName()
	name := nameSpan{raw.lo, raw.lo, raw.hi}
	if !ok || colons > 1 {
		return name, false
	}
	if colons == 1 && colon > raw.lo && colon < raw.hi-1 {
		name.local = colon + 1
	}
	return name, true
}

// scanText scans character data (quote < 0), a quoted attribute value
// (quote holds the quote byte) or a CDATA section, validating exactly
// what the strict stdlib decoder accepts but copying nothing: the
// returned span is raw input, with flags recording whether consuming it
// requires entity expansion or \r normalisation.
func (z *Tokenizer) scanText(quote int, cdata bool) (span, textFlags, bool) {
	lo := z.pos
	var flags textFlags
	if cdata {
		flags = textCDATA
	}
	var b0, b1 byte
	trunc := 0
Input:
	for {
		// Bulk-skip runs of plain printable ASCII — no terminator, no
		// entity, no ']' or '\r' or control or multi-byte candidates. Such
		// bytes need no validation and cannot interact with the ]]> / CR
		// state machine, so only the run's last two bytes matter to it.
		if lo := z.pos; lo < len(z.buf) && byteClass[z.buf[lo]]&cPlain != 0 {
			p := lo + 1
			for p < len(z.buf) && byteClass[z.buf[p]]&cPlain != 0 {
				p++
			}
			z.pos = p
			if p-lo >= 2 {
				b0, b1 = z.buf[p-2], z.buf[p-1]
			} else {
				b0, b1 = b1, z.buf[p-1]
			}
		}
		b, ok := z.getc()
		if !ok {
			if cdata {
				z.syntax("unexpected EOF in CDATA section")
				return span{}, 0, false
			}
			break Input
		}
		// <![CDATA[ sections end with ]]>; it is an error for ]]> to
		// appear in ordinary text (quoted strings excepted).
		if quote < 0 && b0 == ']' && b1 == ']' && b == '>' {
			if cdata {
				trunc = 3
				break Input
			}
			z.syntax("unescaped ]]> not in CDATA section")
			return span{}, 0, false
		}
		if b == '<' && !cdata {
			if quote >= 0 {
				z.syntax("unescaped < inside quoted string")
				return span{}, 0, false
			}
			z.ungetc()
			break Input
		}
		if quote >= 0 && b == byte(quote) {
			trunc = 1
			break Input
		}
		if b == '&' && !cdata {
			if !z.scanEntity() {
				return span{}, 0, false
			}
			flags |= textEntity
			// An expanded entity resets the ]]> / \r\n state, so e.g.
			// "]]&gt;" is legal.
			b0, b1 = 0, 0
			continue Input
		}
		// Validate in place: the stdlib validates the decoded buffer,
		// which for non-entity bytes is this same byte stream with \r
		// mapped to \n — both sides of that mapping are legal runes.
		if b == '\r' {
			flags |= textCR
		} else if b < 0x20 && b != '\t' && b != '\n' {
			z.syntax("illegal character code")
			return span{}, 0, false
		} else if b >= utf8.RuneSelf {
			z.ungetc()
			r, size := utf8.DecodeRune(z.buf[z.pos:])
			if r == utf8.RuneError && size == 1 {
				z.syntax("invalid UTF-8")
				return span{}, 0, false
			}
			if !isInCharacterRange(r) {
				z.syntax("illegal character code")
				return span{}, 0, false
			}
			z.pos += size
			// b0/b1 track "]]" and "\r"; no byte of a multi-byte rune
			// can be ']' or '\r', so folding the final byte in is safe.
			b0, b1 = b1, z.buf[z.pos-1]
			continue Input
		}
		b0, b1 = b1, b
	}
	return span{lo, z.pos - trunc}, flags, true
}

// scanEntity validates one entity reference (the '&' has been consumed):
// numeric references must parse to a value no larger than
// unicode.MaxRune and land in the XML character range — surrogates
// expand to U+FFFD, exactly like string(rune(n)) — and named references
// must be one of the five predefined entities.
func (z *Tokenizer) scanEntity() bool {
	b, ok := z.mustgetc()
	if !ok {
		return false
	}
	if b == '#' {
		base := uint64(10)
		if b, ok = z.mustgetc(); !ok {
			return false
		}
		if b == 'x' {
			base = 16
			if b, ok = z.mustgetc(); !ok {
				return false
			}
		}
		var n uint64
		digits := 0
		for '0' <= b && b <= '9' ||
			base == 16 && 'a' <= b && b <= 'f' ||
			base == 16 && 'A' <= b && b <= 'F' {
			if n <= unicode.MaxRune {
				n = n*base + uint64(hexVal(b))
			}
			digits++
			if b, ok = z.mustgetc(); !ok {
				return false
			}
		}
		if b != ';' {
			z.syntax("invalid character entity (no semicolon)")
			return false
		}
		if digits == 0 || n > unicode.MaxRune {
			z.syntax("invalid character entity")
			return false
		}
		r := rune(n)
		if r >= 0xD800 && r <= 0xDFFF {
			return true // expands to U+FFFD
		}
		if !isInCharacterRange(r) {
			z.syntax("illegal character code")
			return false
		}
		return true
	}
	// Named entity: absorb name bytes (no validity requirement until the
	// semicolon is seen), then require one of the predefined five.
	z.ungetc()
	lo := z.pos
	if b, ok = z.mustgetc(); !ok {
		return false
	}
	if byteClass[b]&cNameAny == 0 {
		z.ungetc()
	} else {
		for {
			if b, ok = z.mustgetc(); !ok {
				return false
			}
			if byteClass[b]&cNameAny == 0 {
				z.ungetc()
				break
			}
		}
	}
	hi := z.pos
	if b, ok = z.mustgetc(); !ok {
		return false
	}
	if b != ';' {
		z.syntax("invalid character entity (no semicolon)")
		return false
	}
	name := z.buf[lo:hi]
	if !isName(name) || !isPredefinedEntity(name) {
		z.syntax("invalid character entity &" + string(name) + ";")
		return false
	}
	return true
}

func hexVal(b byte) int {
	switch {
	case '0' <= b && b <= '9':
		return int(b - '0')
	case 'a' <= b && b <= 'f':
		return int(b-'a') + 10
	default:
		return int(b-'A') + 10
	}
}

func isPredefinedEntity(name []byte) bool {
	switch string(name) {
	case "lt", "gt", "amp", "apos", "quot":
		return true
	}
	return false
}

// appendDecoded expands a validated raw text span into its decoded form:
// entities expanded, \r and \r\n normalised to \n. The span has already
// been accepted by scanText, so every entity is well formed.
func appendDecoded(dst, src []byte, flags textFlags) []byte {
	if flags&(textEntity|textCR) == 0 {
		return append(dst, src...)
	}
	for i := 0; i < len(src); i++ {
		b := src[i]
		switch {
		case b == '&' && flags&textCDATA == 0:
			semi := i + 1
			for src[semi] != ';' {
				semi++
			}
			dst = appendEntity(dst, src[i+1:semi])
			i = semi
		case b == '\r':
			dst = append(dst, '\n')
			if i+1 < len(src) && src[i+1] == '\n' {
				i++
			}
		default:
			dst = append(dst, b)
		}
	}
	return dst
}

// appendEntity appends the expansion of one entity body (the bytes
// between '&' and ';').
func appendEntity(dst, ent []byte) []byte {
	if ent[0] == '#' {
		digits := ent[1:]
		base := rune(10)
		if digits[0] == 'x' {
			base = 16
			digits = digits[1:]
		}
		var n rune
		for _, d := range digits {
			if n <= unicode.MaxRune {
				n = n*base + rune(hexVal(byte(d)))
			}
		}
		// utf8.AppendRune encodes surrogates as U+FFFD, matching
		// string(rune(n)).
		return utf8.AppendRune(dst, n)
	}
	switch string(ent) {
	case "lt":
		return append(dst, '<')
	case "gt":
		return append(dst, '>')
	case "amp":
		return append(dst, '&')
	case "apos":
		return append(dst, '\'')
	default: // "quot"
		return append(dst, '"')
	}
}

// isInCharacterRange reports whether r is in the XML Char production of
// the spec: https://www.xml.com/axml/testaxml.htm Section 2.2 Char.
func isInCharacterRange(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// checkXMLDecl enforces the <?xml ...?> constraints the stdlib applies
// when no CharsetReader is installed: only version 1.0 and (a case fold
// of) utf-8 are supported.
func (z *Tokenizer) checkXMLDecl(content []byte) bool {
	if ver := procInstValue("version", content); len(ver) > 0 && !bytes.Equal(ver, []byte("1.0")) {
		z.syntax("unsupported version " + string(ver) + "; only version 1.0 is supported")
		return false
	}
	if enc := procInstValue("encoding", content); len(enc) > 0 && !bytes.EqualFold(enc, []byte("utf-8")) {
		z.syntax("encoding " + string(enc) + " is not supported")
		return false
	}
	return true
}

// procInstValue extracts the quoted `param="..."` (or '...') value from
// a processing-instruction body, mirroring the stdlib's procInst.
func procInstValue(param string, s []byte) []byte {
	pat := []byte(param + "=")
	lenp := len(pat)
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := bytes.Index(sub, pat)
		if k < 0 || lenp+k >= len(sub) {
			return nil
		}
		i += lenp + k + 1
		if c := sub[lenp+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return nil
	}
	j := bytes.IndexByte(s[i:], sep)
	if j < 0 {
		return nil
	}
	return s[i : i+j]
}
