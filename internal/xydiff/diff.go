// Package xydiff computes and applies deltas between versions of an XML
// document, in the spirit of the XyDelta mechanism the paper builds on
// (Section 5.2 and [17]): elements carry persistent XIDs, a delta lists
// inserted, deleted and updated nodes in terms of those XIDs, and the new
// version of a document can be reconstructed from the old version plus the
// delta. The XML alerter uses the delta to raise element-level change
// events ("new Product", "updated Product contains camera"), and the
// trigger engine uses it to report only the changes of a continuous query
// result.
package xydiff

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"xymon/internal/xmldom"
)

// OpKind is the kind of a delta operation.
type OpKind int

const (
	// OpInsert inserts a subtree under Parent at position Pos.
	OpInsert OpKind = iota
	// OpDelete removes the subtree rooted at XID.
	OpDelete
	// OpUpdate changes the text of a data node or the attributes of an
	// element node, in place.
	OpUpdate
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpUpdate:
		return "update"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one delta operation.
type Op struct {
	Kind         OpKind
	XID          xmldom.XID    // target node (delete/update) or inserted subtree root
	Parent       xmldom.XID    // insert: parent element
	Pos          int           // insert: position among the parent's children in the new version
	Subtree      *xmldom.Node  // insert: subtree added (carries final XIDs); delete: removed subtree (old XIDs)
	NewText      string        // update of a data node
	NewAttrs     []xmldom.Attr // update of an element's attributes
	TextChanged  bool
	AttrsChanged bool
}

// Delta is an ordered list of operations turning the old version into the
// new one. An empty Ops list means the versions are identical.
type Delta struct {
	Ops []Op
}

// Empty reports whether the delta carries no change.
func (d *Delta) Empty() bool { return d == nil || len(d.Ops) == 0 }

// Diff compares two versions of a document. It labels the nodes of the new
// version in place: nodes matched with the old version inherit its XIDs,
// unmatched (inserted) nodes receive fresh XIDs drawn from the old
// document's counter. It returns the delta from old to new.
//
// Matching is order-preserving per level. Children lists are aligned by
// subtree hash (xmldom.Document.Hashes — computed once per version and
// cached, so diffing version n→n+1 of a warehouse chain hashes only the
// new tree): equal-prefix/suffix runs and unique-hash anchors pair in
// linear time, and only the short residues between anchors fall back to a
// weighted LCS that pairs nodes of the same kind and tag. Deltas stay
// small on typical edits and Apply reconstructs the new version exactly.
func Diff(old, new *xmldom.Document) (*Delta, error) {
	return diffWith(old, new, alignAnchors)
}

// alignFunc computes an order-preserving matching between two children
// lists, appending strictly i- and j-increasing pairs of compatible nodes
// (same kind; same tag for elements) to buf.
type alignFunc func(d *differ, old, new []*xmldom.Node, buf []pair) []pair

func diffWith(old, new *xmldom.Document, align alignFunc) (*Delta, error) {
	if old == nil || old.Root == nil || new == nil || new.Root == nil {
		return nil, errors.New("xydiff: both versions must have a root")
	}
	if old.Root.Type != new.Root.Type || old.Root.Data != new.Root.Data {
		return nil, errors.New("xydiff: root elements differ; versions are unrelated documents")
	}
	sc := diffScratchPool.Get().(*diffScratch)
	d := &differ{
		doc:   old,
		delta: &Delta{},
		oh:    old.Hashes(),
		nh:    new.Hashes(),
		sc:    sc,
		align: align,
	}
	d.matchNodes(old.Root, new.Root)
	new.SetNextXID(old.NextXID())
	sc.release()
	diffScratchPool.Put(sc)
	return d.delta, nil
}

type differ struct {
	doc   *xmldom.Document // old document: supplies fresh XIDs
	delta *Delta
	oh    *xmldom.HashVector // subtree hashes of the old version
	nh    *xmldom.HashVector // subtree hashes of the new version
	sc    *diffScratch
	align alignFunc
}

// diffScratch holds every per-Diff working buffer. One scratch serves the
// whole recursion because an align call finishes before matchNodes recurses
// into the pairs it produced; only the pair output buffers live across the
// recursion, and those come from pairsPool.
type diffScratch struct {
	dp     []int              // flat (a+1)×(b+1) LCS table for one residue
	tb     []pair             // residue traceback, built reversed
	counts map[uint64]int     // shared-child-hash counts for one score() call
	occ    map[uint64]occRec  // hash occurrence counts for anchor discovery
	cand   []pair             // unique-hash anchor candidates, in j order
	tails  []int32            // patience LIS: candidate index ending each length
	prev   []int32            // patience LIS: predecessor candidate index
	chain  []pair             // chosen anchor chain, in order
	byKey  map[string][]int32 // greedy fallback: old indices per kind/tag key
}

func (sc *diffScratch) release() {
	clear(sc.counts)
	clear(sc.occ)
	clear(sc.byKey)
	sc.dp = sc.dp[:0]
	sc.tb = sc.tb[:0]
	sc.cand = sc.cand[:0]
	sc.tails = sc.tails[:0]
	sc.prev = sc.prev[:0]
	sc.chain = sc.chain[:0]
}

var diffScratchPool = sync.Pool{New: func() any {
	return &diffScratch{
		counts: make(map[uint64]int),
		occ:    make(map[uint64]occRec),
		byKey:  make(map[string][]int32),
	}
}}

// pairsPool recycles the per-level pair buffers. They cannot live on
// diffScratch: a parent's pairs are still being walked while its children
// run their own alignment.
var pairsPool = sync.Pool{New: func() any {
	b := make([]pair, 0, 16)
	return &b
}}

// occRec tracks how often a subtree hash occurs in the old and new middle
// runs, and where it first occurs in the old one.
type occRec struct {
	oc, nc int32
	oi     int32
}

// propagateXIDs copies XIDs from an old subtree to a structurally
// identical new subtree.
func propagateXIDs(old, new *xmldom.Node) {
	new.XID = old.XID
	for i := range new.Children {
		propagateXIDs(old.Children[i], new.Children[i])
	}
}

// labelFresh assigns fresh XIDs to every node of an inserted subtree.
func (d *differ) labelFresh(n *xmldom.Node) {
	n.XID = d.doc.NextXID()
	for _, c := range n.Children {
		d.labelFresh(c)
	}
}

// matchNodes handles a matched pair (same kind; same tag for elements).
func (d *differ) matchNodes(old, new *xmldom.Node) {
	new.XID = old.XID
	if d.oh.Of(old) == d.nh.Of(new) {
		// Identical subtrees: just propagate identities.
		propagateXIDs(old, new)
		return
	}
	if old.Type == xmldom.TextNode {
		if old.Data != new.Data {
			d.delta.Ops = append(d.delta.Ops, Op{
				Kind: OpUpdate, XID: old.XID, NewText: new.Data, TextChanged: true,
			})
		}
		return
	}
	if !attrsEqual(old.Attrs(), new.Attrs()) {
		d.delta.Ops = append(d.delta.Ops, Op{
			Kind: OpUpdate, XID: old.XID,
			NewAttrs: append([]xmldom.Attr(nil), new.Attrs()...), AttrsChanged: true,
		})
	}
	bufp := pairsPool.Get().(*[]pair)
	pairs := d.align(d, old.Children, new.Children, (*bufp)[:0])
	// Deletions first (they reference old XIDs only). pairs is strictly
	// increasing in both coordinates, so a single cursor replaces the old
	// per-level matched-bool slices.
	pi := 0
	for i, c := range old.Children {
		if pi < len(pairs) && pairs[pi].i == i {
			pi++
			continue
		}
		d.delta.Ops = append(d.delta.Ops, Op{Kind: OpDelete, XID: c.XID, Parent: old.XID, Subtree: c.Clone()})
	}
	// Recurse into matched pairs.
	for _, p := range pairs {
		d.matchNodes(old.Children[p.i], new.Children[p.j])
	}
	// Insertions, positioned in the new children list.
	pj := 0
	for j, c := range new.Children {
		if pj < len(pairs) && pairs[pj].j == j {
			pj++
			continue
		}
		d.labelFresh(c)
		d.delta.Ops = append(d.delta.Ops, Op{
			Kind: OpInsert, XID: c.XID, Parent: old.XID, Pos: j, Subtree: c.Clone(),
		})
	}
	*bufp = pairs[:0]
	pairsPool.Put(bufp)
}

func attrsEqual(a, b []xmldom.Attr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

type pair struct{ i, j int }

// maxDPCells bounds the size of the weighted-LCS table run on one residue
// between anchors. Residues larger than this (which only arise when a
// level was rewritten nearly wholesale, so there are no unique-hash
// anchors to shrink them) fall back to a linear greedy matching: the
// result is still a valid order-preserving pairing of compatible nodes —
// all that correctness requires — it may just trade a few matches for
// delete+insert pairs.
const maxDPCells = 16384

// alignAnchors is the production aligner: a patience-diff-style pass over
// the cached subtree hashes.
//
//  1. Trim the common prefix and suffix (hash-equal runs) in linear time —
//     the entire cost on the no-change and single-edit fast paths.
//  2. In the middle, bucket children by subtree hash and take hashes that
//     occur exactly once on each side as anchor candidates; a patience
//     longest-increasing-subsequence pass keeps the largest order-
//     consistent subset.
//  3. Only the short residues between consecutive anchors run the
//     weighted LCS (alignSegment), so the quadratic work is bounded by
//     the edit, not the fan-out.
func alignAnchors(d *differ, old, new []*xmldom.Node, buf []pair) []pair {
	n, m := len(old), len(new)
	if n == 0 || m == 0 {
		return buf
	}
	oh, nh := d.oh, d.nh
	// Common prefix.
	lo := 0
	for lo < n && lo < m && oh.Of(old[lo]) == nh.Of(new[lo]) {
		buf = append(buf, pair{lo, lo})
		lo++
	}
	// Common suffix (appended after the middle to keep buf ordered).
	hiO, hiM := n, m
	for hiO > lo && hiM > lo && oh.Of(old[hiO-1]) == nh.Of(new[hiM-1]) {
		hiO--
		hiM--
	}
	if lo < hiO && lo < hiM {
		sc := d.sc
		// Occurrence counts over the middle runs.
		clear(sc.occ)
		for i := lo; i < hiO; i++ {
			h := oh.Of(old[i])
			e := sc.occ[h]
			if e.oc == 0 {
				e.oi = int32(i)
			}
			e.oc++
			sc.occ[h] = e
		}
		for j := lo; j < hiM; j++ {
			h := nh.Of(new[j])
			e := sc.occ[h]
			e.nc++
			sc.occ[h] = e
		}
		// Anchor candidates: unique on both sides, collected in j order.
		sc.cand = sc.cand[:0]
		for j := lo; j < hiM; j++ {
			if e := sc.occ[nh.Of(new[j])]; e.oc == 1 && e.nc == 1 {
				sc.cand = append(sc.cand, pair{int(e.oi), j})
			}
		}
		// Patience LIS: with candidates in increasing j, the longest chain
		// of strictly increasing i is the largest non-crossing anchor set.
		sc.chain = sc.chain[:0]
		if len(sc.cand) > 0 {
			sc.tails = sc.tails[:0]
			sc.prev = append(sc.prev[:0], make([]int32, len(sc.cand))...)
			for ci, c := range sc.cand {
				k := sort.Search(len(sc.tails), func(k int) bool {
					return sc.cand[sc.tails[k]].i >= c.i
				})
				if k > 0 {
					sc.prev[ci] = sc.tails[k-1]
				} else {
					sc.prev[ci] = -1
				}
				if k == len(sc.tails) {
					sc.tails = append(sc.tails, int32(ci))
				} else {
					sc.tails[k] = int32(ci)
				}
			}
			for ci := sc.tails[len(sc.tails)-1]; ci >= 0; ci = sc.prev[ci] {
				sc.chain = append(sc.chain, sc.cand[ci])
			}
			// Chain was collected back-to-front; reverse in place.
			for a, b := 0, len(sc.chain)-1; a < b; a, b = a+1, b-1 {
				sc.chain[a], sc.chain[b] = sc.chain[b], sc.chain[a]
			}
		}
		// Residues between anchors; then the anchor itself.
		pi, pj := lo, lo
		for _, a := range sc.chain {
			buf = alignSegment(d, old, new, pi, a.i, pj, a.j, buf)
			buf = append(buf, a)
			pi, pj = a.i+1, a.j+1
		}
		buf = alignSegment(d, old, new, pi, hiO, pj, hiM, buf)
	}
	for k := 0; hiO+k < n; k++ {
		buf = append(buf, pair{hiO + k, hiM + k})
	}
	return buf
}

// alignSegment matches one residue old[i0:i1) × new[j0:j1) between
// anchors, appending pairs with absolute indices to buf. Small residues
// run the weighted LCS; oversized ones (see maxDPCells) use a greedy
// per-kind/tag two-pointer pass.
func alignSegment(d *differ, old, new []*xmldom.Node, i0, i1, j0, j1 int, buf []pair) []pair {
	a, b := i1-i0, j1-j0
	if a == 0 || b == 0 {
		return buf
	}
	if a*b > maxDPCells {
		return alignGreedy(d, old, new, i0, i1, j0, j1, buf)
	}
	return alignDP(d, old, new, i0, i1, j0, j1, buf)
}

// alignDP is the weighted-LCS table fill and traceback over one span.
func alignDP(d *differ, old, new []*xmldom.Node, i0, i1, j0, j1 int, buf []pair) []pair {
	a, b := i1-i0, j1-j0
	oh, nh, sc := d.oh, d.nh, d.sc
	const identical = 1 << 20
	common := func(x, y *xmldom.Node) int {
		if len(x.Children) == 0 || len(y.Children) == 0 {
			return 0
		}
		clear(sc.counts)
		for _, c := range x.Children {
			sc.counts[oh.Of(c)]++
		}
		shared := 0
		for _, c := range y.Children {
			if sc.counts[nh.Of(c)] > 0 {
				sc.counts[nh.Of(c)]--
				shared++
			}
		}
		return shared
	}
	// Weighted LCS: identical subtrees dominate; among compatible nodes
	// (same kind and tag) the score grows with the number of identical
	// child subtrees, so an edited element pairs with its former self
	// rather than with an arbitrary same-tag sibling; incompatible nodes
	// never match.
	score := func(x, y *xmldom.Node) int {
		if x.Type != y.Type {
			return 0
		}
		if x.Type == xmldom.ElementNode && x.Data != y.Data {
			return 0
		}
		if oh.Of(x) == nh.Of(y) {
			return identical
		}
		return 1 + common(x, y)
	}
	w := b + 1
	need := (a + 1) * w
	if cap(sc.dp) < need {
		sc.dp = make([]int, need)
	}
	dp := sc.dp[:need]
	for k := range dp {
		dp[k] = 0
	}
	for i := 1; i <= a; i++ {
		for j := 1; j <= b; j++ {
			best := dp[(i-1)*w+j]
			if v := dp[i*w+j-1]; v > best {
				best = v
			}
			if s := score(old[i0+i-1], new[j0+j-1]); s > 0 {
				if v := dp[(i-1)*w+j-1] + s; v > best {
					best = v
				}
			}
			dp[i*w+j] = best
		}
	}
	// Traceback. Skip moves are preferred when they lose no score, so ties
	// between equally-scored matchings resolve toward pairing the earliest
	// compatible nodes — an edited first element pairs with its former
	// self rather than pushing every sibling one slot over.
	sc.tb = sc.tb[:0]
	i, j := a, b
	for i > 0 && j > 0 {
		switch {
		case dp[(i-1)*w+j] == dp[i*w+j]:
			i--
		case dp[i*w+j-1] == dp[i*w+j]:
			j--
		default:
			sc.tb = append(sc.tb, pair{i0 + i - 1, j0 + j - 1})
			i--
			j--
		}
	}
	for k := len(sc.tb) - 1; k >= 0; k-- {
		buf = append(buf, sc.tb[k])
	}
	return buf
}

// alignGreedy is the linear fallback for residues too large for the DP:
// old children are bucketed by kind/tag, and each new child takes the
// first still-unmatched old child of its key that keeps the matching
// order-preserving.
func alignGreedy(d *differ, old, new []*xmldom.Node, i0, i1, j0, j1 int, buf []pair) []pair {
	byKey := d.sc.byKey
	clear(byKey)
	for i := i0; i < i1; i++ {
		k := alignKey(old[i])
		byKey[k] = append(byKey[k], int32(i))
	}
	last := int32(i0) - 1
	for j := j0; j < j1; j++ {
		q := byKey[alignKey(new[j])]
		for len(q) > 0 && q[0] <= last {
			q = q[1:]
		}
		if len(q) > 0 {
			buf = append(buf, pair{int(q[0]), j})
			last = q[0]
			q = q[1:]
		}
		byKey[alignKey(new[j])] = q
	}
	return buf
}

// alignKey buckets nodes for the greedy fallback: elements by tag, data
// nodes under a key no element tag can collide with.
func alignKey(n *xmldom.Node) string {
	if n.Type == xmldom.TextNode {
		return "\x00text"
	}
	return n.Data
}
