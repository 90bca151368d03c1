package xmldom

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// stdlibParse is the differential oracle for ParseBytes and every other
// consumer of the byte tokenizer: the same tree contract — whitespace-only
// text dropped, comments, processing instructions and directives ignored —
// built on the strict encoding/xml decoder.
func stdlibParse(data []byte) (*Document, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldom: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Type: ElementNode, Data: t.Name.Local}
			for _, a := range t.Attr {
				n.WithAttr(a.Name.Local, a.Value)
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, errors.New("xmldom: multiple root elements")
				}
				root = n
			} else {
				stack[len(stack)-1].AppendChild(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, errors.New("xmldom: unbalanced end element")
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			text := strings.TrimSpace(string(t))
			if text == "" || len(stack) == 0 {
				continue
			}
			stack[len(stack)-1].AppendChild(Text(text))
		}
	}
	if root == nil {
		return nil, ErrNoRoot
	}
	if len(stack) != 0 {
		return nil, errors.New("xmldom: unexpected end of input")
	}
	return NewDocument(root), nil
}

// BenchmarkParse compares the two DOM construction paths over the same
// serialized catalog: the stdlib-decoder oracle against ParseBytes, the
// byte tokenizer with arena node allocation that ingest runs.
func BenchmarkParse(b *testing.B) {
	var sb strings.Builder
	sb.WriteString(`<catalog site="http://s.example/">`)
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, `<product id="p%d"><name>radio &amp; tuner %d</name><category>audio</category><price>%d</price></product>`, i, i, 100+i)
	}
	sb.WriteString(`</catalog>`)
	data := []byte(sb.String())
	for _, arm := range []struct {
		name  string
		parse func([]byte) (*Document, error)
	}{{"stdlib", stdlibParse}, {"bytes", ParseBytes}} {
		b.Run(arm.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := arm.parse(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
