package xydiff

import (
	"fmt"

	"xymon/internal/xmldom"
)

// Apply reconstructs the new version from the old version and a delta
// produced by Diff. The old document is not modified. This is the XyDelta
// property the versioning mechanism relies on: old + delta = new.
func Apply(old *xmldom.Document, delta *Delta) (*xmldom.Document, error) {
	if old == nil || old.Root == nil {
		return nil, fmt.Errorf("xydiff: apply on empty document")
	}
	doc := old.Clone()
	if delta.Empty() {
		return doc, nil
	}
	index := make(map[xmldom.XID]*xmldom.Node)
	doc.Root.PreOrder(func(n *xmldom.Node) bool {
		index[n.XID] = n
		return true
	})
	for _, op := range delta.Ops {
		switch op.Kind {
		case OpDelete:
			n := index[op.XID]
			if n == nil {
				return nil, fmt.Errorf("xydiff: delete of unknown node %d", op.XID)
			}
			if n.Parent == nil {
				return nil, fmt.Errorf("xydiff: cannot delete the root")
			}
			i := n.Parent.ChildIndex(n)
			n.Parent.RemoveChild(i)
			n.PreOrder(func(c *xmldom.Node) bool {
				delete(index, c.XID)
				return true
			})
		case OpUpdate:
			n := index[op.XID]
			if n == nil {
				return nil, fmt.Errorf("xydiff: update of unknown node %d", op.XID)
			}
			if op.TextChanged && n.Type == xmldom.TextNode { // an element's Data is its tag
				n.Data = op.NewText
			}
			if op.AttrsChanged {
				n.SetAttrs(append([]xmldom.Attr(nil), op.NewAttrs...))
			}
		case OpInsert:
			parent := index[op.Parent]
			if parent == nil {
				return nil, fmt.Errorf("xydiff: insert under unknown parent %d", op.Parent)
			}
			if op.Pos < 0 || op.Pos > len(parent.Children) {
				return nil, fmt.Errorf("xydiff: insert position %d out of range under %d", op.Pos, op.Parent)
			}
			sub := op.Subtree.Clone()
			parent.InsertChild(op.Pos, sub)
			sub.PreOrder(func(c *xmldom.Node) bool {
				index[c.XID] = c
				return true
			})
		default:
			return nil, fmt.Errorf("xydiff: unknown op kind %v", op.Kind)
		}
	}
	doc.Relabel()
	return doc, nil
}

// ChangeKind classifies an element of the new version for the element-level
// conditions of the subscription language (Section 5.1): new, updated,
// deleted, unchanged.
type ChangeKind int

const (
	// Unchanged: the element and its whole subtree are identical in both versions.
	Unchanged ChangeKind = iota
	// New: the element was inserted (it is inside an inserted subtree).
	New
	// Updated: something changed inside the element's subtree.
	Updated
	// Deleted: the element existed in the old version only.
	Deleted
)

func (k ChangeKind) String() string {
	switch k {
	case Unchanged:
		return "unchanged"
	case New:
		return "new"
	case Updated:
		return "updated"
	case Deleted:
		return "deleted"
	}
	return fmt.Sprintf("ChangeKind(%d)", int(k))
}

// Classification maps the delta onto the new version's elements: which
// element nodes are new, which are updated (a change happened inside their
// subtree), and the subtrees that were deleted. This is the form the XML
// alerter consumes to raise `new tag`, `updated tag` and `deleted tag`
// atomic events.
type Classification struct {
	// NewElems are element nodes of the new version inside inserted subtrees.
	NewElems []*xmldom.Node
	// UpdatedElems are element nodes of the new version whose subtree
	// changed (ancestors of any operation, and updated nodes themselves).
	UpdatedElems []*xmldom.Node
	// DeletedSubtrees are the removed subtrees, with their old XIDs.
	DeletedSubtrees []*xmldom.Node
	// flags holds flagNew/flagUpdated per node of the new version, by Node.Ord.
	flags []uint8
}

const flagNew, flagUpdated uint8 = 1, 2

// IsNew reports whether n, a node of the classified version, is in NewElems.
func (cl *Classification) IsNew(n *xmldom.Node) bool { return cl.flag(n)&flagNew != 0 }

// IsUpdated reports whether n, a node of the classified version, is in
// UpdatedElems (an element inside an inserted subtree is new, not updated).
func (cl *Classification) IsUpdated(n *xmldom.Node) bool { return cl.flag(n) == flagUpdated }

func (cl *Classification) flag(n *xmldom.Node) uint8 {
	if i := n.Ord(); i < len(cl.flags) {
		return cl.flags[i]
	}
	return 0
}

// Classify projects a delta onto the new version of the document. The new
// version must be the one labelled by Diff: it shares its XIDs with the
// delta, and Diff left its nodes their preorder indexes (Node.Ord).
func Classify(newDoc *xmldom.Document, delta *Delta) *Classification {
	cl := &Classification{}
	if delta.Empty() {
		return cl
	}
	// The few nodes the operations name are resolved in the walk that sizes flags.
	at := make(map[xmldom.XID]*xmldom.Node, 2*len(delta.Ops))
	for _, op := range delta.Ops {
		at[op.XID], at[op.Parent] = nil, nil
	}
	size := 0
	newDoc.Root.PreOrder(func(n *xmldom.Node) bool {
		if _, named := at[n.XID]; named {
			at[n.XID] = n
		}
		size++
		return true
	})
	cl.flags = make([]uint8, size)
	// Marking runs up to the root: it can stop at an ancestor already marked.
	markAncestors := func(n *xmldom.Node) {
		for ; n != nil && cl.flags[n.Ord()]&flagUpdated == 0; n = n.Parent {
			if n.Type == xmldom.ElementNode {
				cl.flags[n.Ord()] |= flagUpdated
			}
		}
	}
	for _, op := range delta.Ops {
		switch op.Kind {
		case OpInsert:
			root := at[op.XID]
			if root == nil {
				continue
			}
			root.PreOrder(func(c *xmldom.Node) bool {
				if c.Type == xmldom.ElementNode {
					cl.flags[c.Ord()] |= flagNew
				}
				return true
			})
			markAncestors(root.Parent)
		case OpDelete:
			cl.DeletedSubtrees = append(cl.DeletedSubtrees, op.Subtree)
			// The parent of a deleted subtree survives in the new version
			// (same XID); it and its ancestors are updated.
			markAncestors(at[op.Parent])
		case OpUpdate:
			markAncestors(at[op.XID])
		}
	}
	newDoc.Root.PreOrder(func(n *xmldom.Node) bool {
		if cl.IsNew(n) {
			cl.NewElems = append(cl.NewElems, n)
		} else if cl.IsUpdated(n) {
			cl.UpdatedElems = append(cl.UpdatedElems, n)
		}
		return true
	})
	return cl
}
