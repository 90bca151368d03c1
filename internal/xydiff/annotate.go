package xydiff

import (
	"fmt"
	"strings"

	"xymon/internal/xmldom"
)

// AnnotateText renders the new version of a document as an indented tree
// with change markers — the textual counterpart of the paper's "practical
// change editor for the visualization of changes in XML documents"
// (Section 5.2, in the spirit of change editors as found in MS-Word):
//
//   - inserted node (whole subtree)
//     ~ node updated in place (text or attributes)
//   - deleted subtree, shown under its surviving parent
//     unchanged node
//
// The document must be the new version labelled by Diff against the same
// delta.
func AnnotateText(newDoc *xmldom.Document, delta *Delta) string {
	inserted := make(map[xmldom.XID]bool)
	updated := make(map[xmldom.XID]bool)
	deleted := make(map[xmldom.XID][]*xmldom.Node) // parent XID -> subtrees
	if delta != nil {
		for _, op := range delta.Ops {
			switch op.Kind {
			case OpInsert:
				inserted[op.XID] = true
			case OpUpdate:
				updated[op.XID] = true
			case OpDelete:
				deleted[op.Parent] = append(deleted[op.Parent], op.Subtree)
			}
		}
	}
	var b strings.Builder
	var walk func(n *xmldom.Node, depth int, inInsert bool)
	walk = func(n *xmldom.Node, depth int, inInsert bool) {
		marker := "  "
		switch {
		case inInsert || inserted[n.XID]:
			marker = "+ "
			inInsert = true
		case updated[n.XID]:
			marker = "~ "
		}
		writeLine(&b, marker, depth, n)
		for _, c := range n.Children {
			walk(c, depth+1, inInsert)
		}
		for _, sub := range deleted[n.XID] {
			writeDeleted(&b, depth+1, sub)
		}
	}
	if newDoc != nil && newDoc.Root != nil {
		walk(newDoc.Root, 0, false)
	}
	return b.String()
}

func writeDeleted(b *strings.Builder, depth int, n *xmldom.Node) {
	writeLine(b, "- ", depth, n)
	for _, c := range n.Children {
		writeDeleted(b, depth+1, c)
	}
}

func writeLine(b *strings.Builder, marker string, depth int, n *xmldom.Node) {
	b.WriteString(marker)
	b.WriteString(strings.Repeat("  ", depth))
	if n.Type == xmldom.TextNode {
		fmt.Fprintf(b, "%q\n", n.Data)
		return
	}
	b.WriteString("<")
	b.WriteString(n.Data)
	for _, a := range n.Attrs() {
		fmt.Fprintf(b, " %s=%q", a.Name, a.Value)
	}
	b.WriteString(">\n")
}
