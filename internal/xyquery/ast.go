// Package xyquery implements the small XML query language used by the
// subscription system for continuous queries and report queries (the paper
// uses the Xyleme query processor [2]; this package is its stand-in). A
// query has the familiar shape
//
//	select p/title
//	from culture/museum m, m/painting p
//	where m/address contains "Amsterdam"
//
// and is evaluated over a forest of document roots (the warehouse's
// documents, or the notification stream of a report).
package xyquery

import "strings"

// Axis selects how a path step walks the tree.
type Axis int

const (
	// Child matches direct element children ("/").
	Child Axis = iota
	// Descendant matches any descendant element ("//").
	Descendant
)

// Step is one component of a path: an axis plus an element name, where "*"
// matches any tag. A step with Attr set selects an attribute of the nodes
// reached so far ("site/@url") and must be the last step; the attribute
// value is materialised as a text node.
type Step struct {
	Axis Axis
	Name string
	Attr bool
}

// Path is a path expression. Root is the first identifier: a variable name
// (bound by a from clause), the keyword "self" (every input root), or an
// absolute root tag. RootAxis applies when Root is not a variable and is
// Descendant for paths like "self//Member".
type Path struct {
	Root  string
	Steps []Step
}

func (p Path) String() string {
	var b strings.Builder
	b.WriteString(p.Root)
	for _, s := range p.Steps {
		if s.Axis == Descendant {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		if s.Attr {
			b.WriteString("@")
		}
		b.WriteString(s.Name)
	}
	return b.String()
}

// FromItem binds Var to every node reached by Path.
type FromItem struct {
	Path Path
	Var  string
}

// PredOp is a predicate operator.
type PredOp int

const (
	// OpContains: a word occurs in the subtree's text ("contains").
	OpContains PredOp = iota
	// OpStrictContains: a word occurs directly in the element's own data
	// children ("strict contains").
	OpStrictContains
	// OpEq: the subtree's text equals the value.
	OpEq
	// OpNeq: the subtree's text differs from the value.
	OpNeq
	// OpLt / OpGt compare numerically when both sides parse as numbers,
	// lexically otherwise.
	OpLt
	OpGt
)

func (o PredOp) String() string {
	switch o {
	case OpContains:
		return "contains"
	case OpStrictContains:
		return "strict contains"
	case OpEq:
		return "="
	case OpNeq:
		return "!="
	case OpLt:
		return "<"
	case OpGt:
		return ">"
	}
	return "?"
}

// Predicate is one atomic condition of the where clause. Predicates are
// existential: true when at least one node reached by Path satisfies the
// comparison.
type Predicate struct {
	Path  Path
	Op    PredOp
	Value string
}

// Query is a parsed select/from/where query. Distinct drops duplicate
// results (structurally identical selected subtrees) — the paper's
// reporting example "removes duplicate URLs of pages that have been found
// updated several times".
type Query struct {
	Distinct bool
	Select   Path
	From     []FromItem
	Where    []Predicate
}

func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("select ")
	if q.Distinct {
		b.WriteString("distinct ")
	}
	b.WriteString(q.Select.String())
	if len(q.From) > 0 {
		b.WriteString(" from ")
		for i, f := range q.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.Path.String())
			b.WriteString(" ")
			b.WriteString(f.Var)
		}
	}
	if len(q.Where) > 0 {
		b.WriteString(" where ")
		for i, p := range q.Where {
			if i > 0 {
				b.WriteString(" and ")
			}
			b.WriteString(p.Path.String())
			b.WriteString(" ")
			b.WriteString(p.Op.String())
			// Strings have no escapes; a value read from one holds at
			// most the quote it was not delimited by.
			quote := `"`
			if strings.Contains(p.Value, quote) {
				quote = "'"
			}
			b.WriteString(" " + quote + p.Value + quote)
		}
	}
	return b.String()
}
