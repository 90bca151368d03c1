// Package lex provides the tokenizer shared by the subscription language
// parser (internal/sublang) and the query parser (internal/xyquery). The
// concrete syntax follows the paper: keywords are plain identifiers,
// strings are quoted with " or ', and % starts a comment running to the
// end of the line.
package lex

import (
	"fmt"
	"strings"
	"unicode"
)

// Kind classifies a token.
type Kind int

const (
	// EOF marks the end of input.
	EOF Kind = iota
	// Ident is an identifier or keyword (case preserved; keyword matching
	// is case-insensitive and done by the parsers).
	Ident
	// String is a quoted string; Text holds the unquoted value.
	String
	// Number is an unsigned integer literal.
	Number
	// Symbol is a single punctuation character: / , = < > ( ) . !
	Symbol
)

func (k Kind) String() string {
	switch k {
	case EOF:
		return "end of input"
	case Ident:
		return "identifier"
	case String:
		return "string"
	case Number:
		return "number"
	case Symbol:
		return "symbol"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Token is one lexical unit with its position for error reporting.
type Token struct {
	Kind Kind
	Text string
	Line int
	Col  int
}

// Is reports whether the token is the given identifier, compared
// case-insensitively (the paper mixes `select` and `SELECT` styles).
func (t Token) Is(keyword string) bool {
	return t.Kind == Ident && strings.EqualFold(t.Text, keyword)
}

// IsSymbol reports whether the token is the given punctuation.
func (t Token) IsSymbol(s string) bool {
	return t.Kind == Symbol && t.Text == s
}

func (t Token) String() string {
	if t.Kind == EOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

// Error is a lexical or syntax error with position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("line %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Errorf builds a positioned error from a token.
func Errorf(t Token, format string, args ...any) error {
	return &Error{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

// Lexer walks the input producing tokens. Use New, then Next/Peek.
type Lexer struct {
	src    []rune
	pos    int
	line   int
	col    int
	peeked *Token
	err    error
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: []rune(src), line: 1, col: 1}
}

// Err returns the first lexical error encountered, if any.
func (l *Lexer) Err() error { return l.err }

// Peek returns the next token without consuming it.
func (l *Lexer) Peek() Token {
	if l.peeked == nil {
		t := l.scan()
		l.peeked = &t
	}
	return *l.peeked
}

// Next consumes and returns the next token.
func (l *Lexer) Next() Token {
	if l.peeked != nil {
		t := *l.peeked
		l.peeked = nil
		return t
	}
	return l.scan()
}

func (l *Lexer) rune() (rune, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *Lexer) advance() {
	if r, ok := l.rune(); ok {
		if r == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}

func (l *Lexer) skipSpaceAndComments() {
	for {
		r, ok := l.rune()
		if !ok {
			return
		}
		switch {
		case unicode.IsSpace(r):
			l.advance()
		case r == '%':
			for {
				r, ok := l.rune()
				if !ok || r == '\n' {
					break
				}
				l.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == ':'
}

func (l *Lexer) scan() Token {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	r, ok := l.rune()
	if !ok {
		return Token{Kind: EOF, Line: line, Col: col}
	}
	switch {
	case isIdentStart(r):
		start := l.pos
		for {
			r, ok := l.rune()
			if !ok || !isIdentPart(r) {
				break
			}
			l.advance()
			_ = r
		}
		return Token{Kind: Ident, Text: string(l.src[start:l.pos]), Line: line, Col: col}
	case unicode.IsDigit(r):
		start := l.pos
		for {
			r, ok := l.rune()
			if !ok || !unicode.IsDigit(r) {
				break
			}
			l.advance()
			_ = r
		}
		return Token{Kind: Number, Text: string(l.src[start:l.pos]), Line: line, Col: col}
	case r == '"' || r == '\'':
		quote := r
		l.advance()
		start := l.pos
		for {
			r, ok := l.rune()
			if !ok {
				if l.err == nil {
					l.err = &Error{Line: line, Col: col, Msg: "unterminated string"}
				}
				return Token{Kind: String, Text: string(l.src[start:l.pos]), Line: line, Col: col}
			}
			if r == quote {
				break
			}
			l.advance()
		}
		text := string(l.src[start:l.pos])
		l.advance() // closing quote
		return Token{Kind: String, Text: text, Line: line, Col: col}
	default:
		l.advance()
		return Token{Kind: Symbol, Text: string(r), Line: line, Col: col}
	}
}
