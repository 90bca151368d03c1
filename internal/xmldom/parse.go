package xmldom

import (
	"errors"
	"io"
)

// ErrNoRoot is returned when the input contains no element.
var ErrNoRoot = errors.New("xmldom: document has no root element")

// ParseString parses a document held in a string with ParseBytes.
func ParseString(s string) (*Document, error) {
	return ParseBytes([]byte(s))
}

// MustParse parses a document and panics on error; for tests and
// generators with known-good input.
func MustParse(s string) *Document {
	d, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return d
}

// WriteXML serialises the subtree to w as XML. Attributes and text are
// escaped with AppendEscaped; output has no insignificant whitespace so
// that ParseBytes(WriteXML(d)) reproduces the same tree.
func (n *Node) WriteXML(w io.Writer) error {
	_, err := w.Write(n.appendXML(nil))
	return err
}

// XML returns the subtree serialised as a string.
func (n *Node) XML() string { return string(n.appendXML(nil)) }

// XML returns the document serialised as a string.
func (d *Document) XML() string {
	if d == nil || d.Root == nil {
		return ""
	}
	return d.Root.XML()
}

// appendXML appends the subtree's serialisation to dst.
func (n *Node) appendXML(dst []byte) []byte {
	if n.Type == TextNode {
		return AppendEscaped(dst, n.Text)
	}
	dst = append(append(dst, '<'), n.Tag...)
	for _, a := range n.Attrs {
		dst = append(append(append(dst, ' '), a.Name...), `="`...)
		dst = append(AppendEscaped(dst, a.Value), '"')
	}
	if len(n.Children) == 0 {
		return append(dst, "/>"...)
	}
	dst = append(dst, '>')
	for _, c := range n.Children {
		dst = c.appendXML(dst)
	}
	return append(append(append(dst, "</"...), n.Tag...), '>')
}
