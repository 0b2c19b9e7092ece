package xmltree

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sync"
)

// Code returns a canonical string encoding of the subtree rooted at n.
// Two subtrees are isomorphic in the sense of Definition 1 (labeled,
// unordered tree isomorphism) if and only if their codes are equal. The
// encoding follows the Aho-Hopcroft-Ullman scheme extended with labels:
// a node's code is its (escaped) label followed by the sorted codes of its
// children, wrapped in parentheses.
func Code(n *Node) string {
	c := getCoder()
	defer c.release()
	s := c.code(n)
	return string(c.bytes(s))
}

// coder builds AHU codes in one byte buffer: a node's children write
// their codes one after another, and sorting them permutes those spans
// in place. It is recycled through coderPool.
type coder struct {
	buf   []byte
	spans []span // stack of child spans of the nodes being encoded
	tmp   []byte // staging copy for reordering child spans
}

// span is the code buf[from:to].
type span struct{ from, to int }

var coderPool = sync.Pool{New: func() any { return new(coder) }}

func getCoder() *coder { return coderPool.Get().(*coder) }

func (c *coder) release() {
	c.buf, c.spans, c.tmp = c.buf[:0], c.spans[:0], c.tmp[:0]
	coderPool.Put(c)
}

func (c *coder) bytes(s span) []byte { return c.buf[s.from:s.to] }

func (c *coder) compare(a, b span) int { return bytes.Compare(c.bytes(a), c.bytes(b)) }

// code appends the code of the subtree rooted at n to buf and returns
// its span.
func (c *coder) code(n *Node) span {
	start := len(c.buf)
	c.buf = append(c.buf, '(')
	c.buf = appendEscaped(c.buf, n.label)
	if len(n.children) > 0 {
		base := len(c.spans)
		for _, ch := range n.children {
			s := c.code(ch)
			c.spans = append(c.spans, s)
		}
		kids := c.spans[base:]
		if !slices.IsSortedFunc(kids, c.compare) {
			from := kids[0].from
			c.tmp = append(c.tmp[:0], c.buf[from:]...)
			slices.SortFunc(kids, c.compare)
			at := from
			for _, k := range kids {
				at += copy(c.buf[at:], c.tmp[k.from-from:k.to-from])
			}
		}
		c.spans = c.spans[:base]
	}
	c.buf = append(c.buf, ')')
	return span{start, len(c.buf)}
}

// appendEscaped appends a label made safe inside the parenthesized
// encoding: '(', ')' and '\' gain a backslash.
func appendEscaped(buf []byte, l string) []byte {
	for i := 0; i < len(l); i++ {
		switch l[i] {
		case '(', ')', '\\':
			buf = append(buf, '\\')
		}
		buf = append(buf, l[i])
	}
	return buf
}

// Digest returns a fixed-length hex digest of the tree's canonical AHU
// code: two trees have equal digests iff they are isomorphic (up to
// SHA-256 collisions). The durable store records it with every WAL
// record and snapshot so recovery can re-verify that replay reproduced
// exactly the tree that was acknowledged.
func (t *Tree) Digest() string {
	c := getCoder()
	defer c.release()
	sum := sha256.Sum256(c.bytes(c.code(t.root)))
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// Isomorphic reports whether two trees are isomorphic (Definition 1).
func Isomorphic(a, b *Tree) bool {
	return IsomorphicNodes(a.root, b.root)
}

// IsomorphicNodes reports whether the subtrees rooted at a and b are
// isomorphic (Definition 1).
func IsomorphicNodes(a, b *Node) bool {
	return isoNodes(a, b)
}

// isoNodes decides isomorphism by comparing the two codes, after the
// cheap label and fan-out checks that settle clearly different trees.
func isoNodes(a, b *Node) bool {
	if a.label != b.label || len(a.children) != len(b.children) {
		return false
	}
	if len(a.children) == 0 {
		return true
	}
	c := getCoder()
	defer c.release()
	return c.compare(c.code(a), c.code(b)) == 0
}

// SameNodeSet reports whether two node slices contain the same node
// identities (Definition 2 applied to operation results). Duplicates are
// ignored; evaluation results are sets. Identity-sorted inputs (every
// evaluator result is) are compared by one merge, allocation-free.
func SameNodeSet(a, b []*Node) bool {
	if !sortedByID(a) || !sortedByID(b) {
		return sameNodeSetUnsorted(a, b)
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		id := a[i].id
		if b[j].id != id {
			return false
		}
		for i < len(a) && a[i].id == id {
			i++
		}
		for j < len(b) && b[j].id == id {
			j++
		}
	}
	return i == len(a) && j == len(b)
}

func sortedByID(ns []*Node) bool {
	return slices.IsSortedFunc(ns, func(a, b *Node) int { return cmp.Compare(a.id, b.id) })
}

func sameNodeSetUnsorted(a, b []*Node) bool {
	as := map[int]bool{}
	for _, n := range a {
		as[n.id] = true
	}
	bs := map[int]bool{}
	for _, n := range b {
		bs[n.id] = true
	}
	if len(as) != len(bs) {
		return false
	}
	for id := range as {
		if !bs[id] {
			return false
		}
	}
	return true
}

// SameIsoClasses reports whether the sets of isomorphism classes of the
// subtrees rooted at the given nodes coincide. This is the set-of-trees
// isomorphism of Definition 1 (each tree on one side must have an
// isomorphic counterpart on the other side) used by the value-based
// conflict semantics (Definitions 5-6).
func SameIsoClasses(a, b []*Node) bool {
	c := getCoder()
	defer c.release()
	for _, ns := range [2][]*Node{a, b} {
		for _, n := range ns {
			s := c.code(n)
			c.spans = append(c.spans, s)
		}
	}
	as, bs := c.classes(c.spans[:len(a)]), c.classes(c.spans[len(a):])
	return slices.EqualFunc(as, bs, func(x, y span) bool { return c.compare(x, y) == 0 })
}

// classes sorts spans by code and drops duplicate codes.
func (c *coder) classes(spans []span) []span {
	slices.SortFunc(spans, c.compare)
	return slices.CompactFunc(spans, func(x, y span) bool { return c.compare(x, y) == 0 })
}

// canonicalOrder returns a copy of n's children sorted by code, ties
// broken by identity: the order the serializers emit. Each child's code
// is computed once, before sorting.
func canonicalOrder(n *Node) []*Node {
	type keyed struct {
		n    *Node
		code span
	}
	if len(n.children) < 2 {
		return append([]*Node(nil), n.children...)
	}
	c := getCoder()
	defer c.release()
	ks := make([]keyed, len(n.children))
	for i, ch := range n.children {
		ks[i] = keyed{ch, c.code(ch)}
	}
	slices.SortFunc(ks, func(x, y keyed) int {
		if d := c.compare(x.code, y.code); d != 0 {
			return d
		}
		return cmp.Compare(x.n.id, y.n.id)
	})
	out := make([]*Node, len(ks))
	for i, k := range ks {
		out[i] = k.n
	}
	return out
}

// SortByID sorts nodes in place by identity and returns the slice; useful
// for deterministic output of evaluation results.
func SortByID(ns []*Node) []*Node {
	slices.SortFunc(ns, func(a, b *Node) int { return cmp.Compare(a.id, b.id) })
	return ns
}
