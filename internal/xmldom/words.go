package xmldom

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// A word is a maximal run of letters and digits, lower-cased rune by rune
// (unicode.ToLower, then the letter/digit test on the lowered rune). This
// is the tokenisation shared by the `contains` conditions of the
// subscription language and the alerters' word tables, so "Camera,
// digital!" contains the word "camera". WordScanner is its one
// implementation: Words, ContainsWord, the alerters' detection walk and
// the streaming pre-filter all read words through it.

// wordBits summarises a set of lower-cased words by the byte lengths and
// the first bytes that occur in it, so a scanner can refuse most words of
// a text on two loads, without copying or hashing them. It errs only
// towards admitting: a word of the set always passes.
type wordBits struct {
	lens  uint64    // bit min(len, 63): some word of the set has that byte length
	first [4]uint64 // bit b: some word of the set starts with byte b
}

func lenBit(n int) uint { return uint(min(n, 63)) }

func (s *wordBits) add(word string) {
	s.lens |= 1 << lenBit(len(word))
	s.first[word[0]>>6] |= 1 << (word[0] & 63)
}

// admits reports whether a word of n bytes starting with b could be in
// the set; a nil screen admits every word.
func (s *wordBits) admits(n int, b byte) bool {
	return s == nil || s.lens>>lenBit(n)&1 != 0 && s.first[b>>6]>>(b&63)&1 != 0
}

// WordScreen is the wordBits of a set that changes: Add and Remove keep a
// count behind every bit, so removing the last word of a length or a
// first byte clears its bit without rescanning the set. The caller
// serialises Add and Remove against each other and against scans.
type WordScreen struct {
	bits   wordBits
	nlen   [64]uint32
	nfirst [256]uint32
}

// Add counts one more distinct word (not empty) into the screen.
func (s *WordScreen) Add(word string) {
	s.nlen[lenBit(len(word))]++
	s.nfirst[word[0]]++
	s.bits.add(word)
}

// Remove takes out a word counted in by Add.
func (s *WordScreen) Remove(word string) {
	n, b := lenBit(len(word)), word[0]
	if s.nlen[n]--; s.nlen[n] == 0 {
		s.bits.lens &^= 1 << n
	}
	if s.nfirst[b]--; s.nfirst[b] == 0 {
		s.bits.first[b>>6] &^= 1 << (b & 63)
	}
}

// WordScanner iterates over the words of a text in place. With a Screen,
// it yields only the words the screen admits — every word of the screened
// set, and few others. The zero value scans every word.
type WordScanner struct {
	Screen *WordScreen
	buf    []byte // the current word; reused across calls
}

// Next returns the first word of text at or after offset pos,
// lower-cased, and the offset just past it; the word is nil when no word
// is left. The slice is only valid until the next call.
func (ws *WordScanner) Next(text []byte, pos int) ([]byte, int) { return nextWord(ws, text, pos) }

// NextString is Next over a string.
func (ws *WordScanner) NextString(text string, pos int) ([]byte, int) { return nextWord(ws, text, pos) }

func nextWord[T ~string | ~[]byte](ws *WordScanner, text T, pos int) ([]byte, int) {
	var bits *wordBits
	if ws.Screen != nil {
		bits = &ws.Screen.bits
	}
	ws.buf, pos = scanWord(text, pos, bits, ws.buf[:0])
	if len(ws.buf) == 0 {
		return nil, pos
	}
	return ws.buf, pos
}

// scanWord appends to buf the first word of text at or after pos that
// the screen admits and returns the offset past it; buf comes back empty
// at the end of text. ASCII words are delimited by an index walk over
// byteClass and screened where they lie, so a refused word is neither
// copied nor folded; a word that touches a byte >= 0x80 is rescanned from
// its start by runeWord.
func scanWord[T ~string | ~[]byte](text T, pos int, screen *wordBits, buf []byte) ([]byte, int) {
	for i := pos; i < len(text); {
		c := text[i]
		if byteClass[c]&cWord == 0 && c < utf8.RuneSelf {
			i++
			continue
		}
		j := i
		for j < len(text) && byteClass[text[j]]&cWord != 0 {
			j++
		}
		if j < len(text) && text[j] >= utf8.RuneSelf {
			buf, j = runeWord(text, i, buf)
			if len(buf) == 0 {
				i = j // a separator rune
				continue
			}
			if screen.admits(len(buf), buf[0]) {
				return buf, j
			}
			buf = buf[:0]
		} else if first := c | byteClass[c]&cUpper; screen.admits(j-i, first) {
			for ; i < j; i++ {
				c = text[i]
				buf = append(buf, c|byteClass[c]&cUpper)
			}
			return buf, j
		}
		i = j
	}
	return buf, len(text)
}

// runeWord is the general form of the word rule: it appends the lowered
// letter/digit runes at text[i:] to buf and returns the offset of the
// first rune that is neither. When text[i:] starts with such a separator,
// buf stays empty and the offset returned is past that one rune.
func runeWord[T ~string | ~[]byte](text T, i int, buf []byte) ([]byte, int) {
	for i < len(text) {
		// At most four bytes, and the string does not escape: no allocation.
		r, size := utf8.DecodeRuneInString(string(text[i:min(i+utf8.UTFMax, len(text))]))
		l := unicode.ToLower(r)
		if !unicode.IsLetter(l) && !unicode.IsDigit(l) {
			if len(buf) == 0 {
				i += size
			}
			break
		}
		buf = utf8.AppendRune(buf, l)
		i += size
	}
	return buf, i
}

// Words splits text into its lower-cased words.
func Words(text string) []string {
	var words []string
	var arr [64]byte
	for w, i := scanWord(text, 0, nil, arr[:0]); len(w) > 0; w, i = scanWord(text, i, nil, w[:0]) {
		words = append(words, string(w))
	}
	return words
}

// ContainsWord reports whether the word (already lower-case) is one of
// the words of text. It allocates nothing for words of up to 64 bytes:
// this runs once per (element, condition) on the alerter hot path.
func ContainsWord(text, word string) bool {
	if word == "" {
		return false
	}
	var only wordBits
	only.add(word)
	var arr [64]byte
	for w, i := scanWord(text, 0, &only, arr[:0]); len(w) > 0; w, i = scanWord(text, i, &only, w[:0]) {
		if string(w) == word {
			return true
		}
	}
	return false
}

// NormalizeWord lower-cases a query word so it compares against Words
// output. Returns the empty string when the input contains no letters or
// digits.
func NormalizeWord(s string) string {
	return strings.Join(Words(s), " ")
}
