package xmldom

import "errors"

// ErrNoRoot is returned when the input contains no element.
var ErrNoRoot = errors.New("xmldom: document has no root element")

// ParseString parses a document held in a string with ParseBytes.
func ParseString(s string) (*Document, error) {
	return ParseBytes([]byte(s))
}

// MustParse parses a document and panics on error; for tests and
// generators with known-good input.
func MustParse(s string) *Document { //xyvet:ignore testonly tree helper of the tests across packages
	d, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return d
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
		return AppendEscaped(dst, n.Data)
	}
	dst = append(append(dst, '<'), n.Data...)
	for _, a := range n.Attrs() {
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
	return append(append(append(dst, "</"...), n.Data...), '>')
}
