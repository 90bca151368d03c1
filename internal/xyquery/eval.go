package xyquery

import (
	"fmt"
	"strconv"
	"strings"

	"xymon/internal/xmldom"
)

// Eval runs the query over a forest of document roots and returns the
// selected nodes as deep clones, in document order of the bindings. The
// from clauses bind variables with nested-loop semantics; the where
// predicates filter bindings conjunctively.
func (q *Query) Eval(roots []*xmldom.Node) ([]*xmldom.Node, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	var out []*xmldom.Node
	bindings := map[string]*xmldom.Node{}
	var loop func(i int) error
	loop = func(i int) error {
		if i == len(q.From) {
			for _, pred := range q.Where {
				ok, err := evalPredicate(pred, roots, bindings)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
			nodes, err := resolvePath(q.Select, roots, bindings)
			if err != nil {
				return err
			}
			for _, n := range nodes {
				out = append(out, n.Clone())
			}
			return nil
		}
		item := q.From[i]
		nodes, err := resolvePath(item.Path, roots, bindings)
		if err != nil {
			return err
		}
		for _, n := range nodes {
			bindings[item.Var] = n
			if err := loop(i + 1); err != nil {
				return err
			}
		}
		delete(bindings, item.Var)
		return nil
	}
	if err := loop(0); err != nil {
		return nil, err
	}
	if q.Distinct {
		seen := make(map[string]bool, len(out))
		uniq := out[:0]
		for _, n := range out {
			key := n.XML()
			if !seen[key] {
				seen[key] = true
				uniq = append(uniq, n)
			}
		}
		out = uniq
	}
	return out, nil
}

// EvalElement runs the query and wraps the results in an element with the
// given tag — the shape continuous-query notifications take in reports
// (e.g. <AmsterdamPaintings>…</AmsterdamPaintings>).
func (q *Query) EvalElement(tag string, roots []*xmldom.Node) (*xmldom.Node, error) {
	nodes, err := q.Eval(roots)
	if err != nil {
		return nil, err
	}
	e := xmldom.Element(tag)
	for _, n := range nodes {
		e.AppendChild(n)
	}
	return e, nil
}

// Validate checks variable scoping: every variable used in select/where
// must be bound by an earlier from clause, and from-clause paths may only
// reference previously bound variables.
func (q *Query) Validate() error {
	bound := map[string]bool{}
	for _, item := range q.From {
		if item.Path.Root != "self" && bound[item.Path.Root] {
			// relative path rooted at an earlier variable — fine
		}
		if item.Var == "self" {
			return fmt.Errorf("xyquery: 'self' cannot be used as a variable name")
		}
		if bound[item.Var] {
			return fmt.Errorf("xyquery: variable %q bound twice", item.Var)
		}
		bound[item.Var] = true
	}
	return nil
}

// Resolve evaluates a path over roots with no variable bindings, returning
// the reached nodes (not clones). The subscription manager uses it to
// materialise `select X from self//Member X` notification payloads.
func Resolve(p Path, roots []*xmldom.Node) []*xmldom.Node {
	nodes, _ := resolvePath(p, roots, nil)
	return nodes
}

// resolvePath evaluates a path: variable-rooted paths start at the bound
// node; self-rooted paths start at every input root; absolute paths start
// at roots whose tag matches the first component.
func resolvePath(p Path, roots []*xmldom.Node, bindings map[string]*xmldom.Node) ([]*xmldom.Node, error) {
	var current []*xmldom.Node
	switch {
	case bindings[p.Root] != nil:
		current = []*xmldom.Node{bindings[p.Root]}
	case p.Root == "self":
		current = roots
	default:
		for _, r := range roots {
			if r.Type == xmldom.ElementNode && (r.Data == p.Root || p.Root == "*") {
				current = append(current, r)
			}
		}
	}
	for _, step := range p.Steps {
		var next []*xmldom.Node
		if step.Attr {
			// Attribute steps materialise the value as a text node.
			for _, n := range current {
				if v, ok := n.Attr(step.Name); ok {
					next = append(next, xmldom.Text(v))
				}
			}
			current = next
			continue
		}
		for _, n := range current {
			if step.Axis == Child {
				for _, c := range n.Children {
					if c.Type == xmldom.ElementNode && (step.Name == "*" || c.Data == step.Name) {
						next = append(next, c)
					}
				}
			} else {
				n.PreOrder(func(c *xmldom.Node) bool {
					if c != n && c.Type == xmldom.ElementNode && (step.Name == "*" || c.Data == step.Name) {
						next = append(next, c)
					}
					return true
				})
			}
		}
		current = next
	}
	return current, nil
}

func evalPredicate(pred Predicate, roots []*xmldom.Node, bindings map[string]*xmldom.Node) (bool, error) {
	nodes, err := resolvePath(pred.Path, roots, bindings)
	if err != nil {
		return false, err
	}
	for _, n := range nodes {
		if nodeSatisfies(n, pred.Op, pred.Value) {
			return true, nil
		}
	}
	// Neq is also existential: true if some reached node differs. With no
	// reached nodes every predicate is false.
	return false, nil
}

func nodeSatisfies(n *xmldom.Node, op PredOp, value string) bool {
	switch op {
	case OpContains:
		return xmldom.ContainsWord(n.TextContent(), xmldom.NormalizeWord(value))
	case OpStrictContains:
		for _, c := range n.Children {
			if c.Type == xmldom.TextNode && xmldom.ContainsWord(c.Data, xmldom.NormalizeWord(value)) {
				return true
			}
		}
		return false
	case OpEq:
		return n.TextContent() == value
	case OpNeq:
		return n.TextContent() != value
	case OpLt:
		return compareValues(n.TextContent(), value) < 0
	case OpGt:
		return compareValues(n.TextContent(), value) > 0
	}
	return false
}

// compareValues compares numerically when both sides parse as numbers and
// lexically otherwise.
func compareValues(a, b string) int {
	fa, errA := strconv.ParseFloat(strings.TrimSpace(a), 64)
	fb, errB := strconv.ParseFloat(strings.TrimSpace(b), 64)
	if errA == nil && errB == nil {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return 0
	}
	return strings.Compare(a, b)
}
