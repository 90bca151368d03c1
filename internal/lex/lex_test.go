package lex

import (
	"testing"
)

func TestTokens(t *testing.T) {
	src := `subscription MyXyleme % a comment
	select <UpdatedPage url=URL/>
	where URL extends "http://inria.fr/Xy/" and notifications.count > 100`
	toks, err := Tokens(src)
	if err != nil {
		t.Fatalf("Tokens: %v", err)
	}
	var kinds []Kind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"subscription", "MyXyleme", "select", "<", "UpdatedPage",
		"url", "=", "URL", "/", ">", "where", "URL", "extends",
		"http://inria.fr/Xy/", "and", "notifications", ".", "count", ">", "100"}
	if len(texts) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(texts), texts, len(want))
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[13] != String {
		t.Errorf("URL literal kind = %v, want String", kinds[13])
	}
	if kinds[19] != Number {
		t.Errorf("100 kind = %v, want Number", kinds[19])
	}
}

func TestCommentToEndOfLine(t *testing.T) {
	toks, err := Tokens("a % everything here is skipped \"even strings\nb")
	if err != nil {
		t.Fatalf("Tokens: %v", err)
	}
	if len(toks) != 2 || toks[0].Text != "a" || toks[1].Text != "b" {
		t.Errorf("tokens = %v", toks)
	}
}

func TestSingleQuotedStrings(t *testing.T) {
	toks, err := Tokens(`'hello world'`)
	if err != nil {
		t.Fatalf("Tokens: %v", err)
	}
	if len(toks) != 1 || toks[0].Kind != String || toks[0].Text != "hello world" {
		t.Errorf("tokens = %v", toks)
	}
}

func TestUnterminatedString(t *testing.T) {
	if _, err := Tokens(`"oops`); err == nil {
		t.Error("unterminated string should error")
	}
}

func TestPositions(t *testing.T) {
	toks, err := Tokens("a\n  b")
	if err != nil {
		t.Fatalf("Tokens: %v", err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("a at %d:%d, want 1:1", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("b at %d:%d, want 2:3", toks[1].Line, toks[1].Col)
	}
}

func TestIsAndIsSymbol(t *testing.T) {
	toks, _ := Tokens("SELECT =")
	if !toks[0].Is("select") {
		t.Error("Is should be case-insensitive")
	}
	if !toks[1].IsSymbol("=") {
		t.Error("IsSymbol failed")
	}
	if toks[1].Is("select") {
		t.Error("symbols are not keywords")
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	l := New("x y")
	if l.Peek().Text != "x" || l.Peek().Text != "x" {
		t.Error("Peek should be stable")
	}
	if l.Next().Text != "x" || l.Next().Text != "y" {
		t.Error("Next after Peek skipped a token")
	}
	if l.Next().Kind != EOF {
		t.Error("expected EOF")
	}
}

func TestIdentsWithDashesAndColons(t *testing.T) {
	toks, _ := Tokens("hi-fi xsi:type")
	if len(toks) != 2 || toks[0].Text != "hi-fi" || toks[1].Text != "xsi:type" {
		t.Errorf("tokens = %v", toks)
	}
}

// Tokens scans the whole input.
func Tokens(src string) ([]Token, error) {
	l := New(src)
	var out []Token
	for {
		t := l.Next()
		if t.Kind == EOF {
			break
		}
		out = append(out, t)
	}
	return out, l.Err()
}
