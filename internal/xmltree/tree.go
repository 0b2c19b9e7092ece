// Package xmltree implements the unordered, unranked labeled-tree data model
// of Section 2.1 of "Conflicting XML Updates" (Raghavachari & Shmueli,
// EDBT 2006).
//
// An XML document is a tree whose nodes carry labels drawn from an infinite
// alphabet Σ. Sibling order is not observable by the pattern language of the
// paper, so trees here are unordered: all comparisons (isomorphism,
// serialization) are order-insensitive.
//
// Nodes have stable integer identities. The reference-based conflict
// semantics of the paper (Definitions 2-4) compare results by node identity
// across a tree and its updated version, so a Tree can be cloned with
// identities preserved (Clone) while freshly inserted nodes always draw new
// identities.
package xmltree

import (
	"fmt"
	"strings"
)

// Node is a node of an unordered labeled tree. Nodes are created and owned
// by a Tree; the zero value is not useful.
//
// A node has no parent pointer and, once it belongs to a version that an
// update derived (see Fork and Update.Apply in package ops), it is never
// written again: versions share every subtree an update did not touch.
type Node struct {
	id       int
	label    string
	children []*Node

	// stamp is the clock of the tree that created or copied the node,
	// taken at that moment; Tree.Modified compares it with the tree's
	// current clock (the Lemma 1 tree-conflict flag).
	stamp uint64
}

// ID returns the node's identity, unique within its tree's history. Clones
// made with Tree.Clone preserve IDs; nodes added by updates get fresh IDs.
func (n *Node) ID() int { return n.id }

// Label returns the node's label.
func (n *Node) Label() string { return n.label }

// Children returns the node's children. The returned slice is owned by the
// tree and must not be modified by the caller.
func (n *Node) Children() []*Node { return n.children }

// Tree is a rooted, unordered, labeled tree: a handle on one version of
// a document. Versions derived from it by Fork and updates share
// structure with it (see version.go).
type Tree struct {
	root   *Node
	nextID int
	// clock stamps the nodes this tree creates or copies; ClearModified
	// advances it.
	clock uint64
}

// New returns a tree consisting of a single root node with the given label.
func New(rootLabel string) *Tree {
	t := &Tree{}
	t.root = t.newNode(rootLabel)
	return t
}

func (t *Tree) newNode(label string) *Node {
	n := &Node{id: t.nextID, label: label, stamp: t.clock}
	t.nextID++
	return n
}

// Root returns the root node of the tree.
func (t *Tree) Root() *Node { return t.root }

// AddChild creates a new node with the given label, attaches it as a child
// of parent, and returns it. The parent must belong to this tree.
func (t *Tree) AddChild(parent *Node, label string) *Node {
	n := t.newNode(label)
	parent.children = append(parent.children, n)
	return n
}

// Size returns the number of nodes in the tree (|t| in the paper).
func (t *Tree) Size() int {
	n := 0
	t.Walk(func(*Node) bool { n++; return true })
	return n
}

// Height returns the number of nodes on the longest root-to-leaf path.
func (t *Tree) Height() int {
	var h func(n *Node) int
	h = func(n *Node) int {
		best := 0
		for _, c := range n.children {
			if d := h(c); d > best {
				best = d
			}
		}
		return best + 1
	}
	return h(t.root)
}

// Walk visits every node in preorder. If fn returns false, the walk skips
// the node's subtree (the node itself has already been visited).
func (t *Tree) Walk(fn func(*Node) bool) {
	walkNode(t.root, fn)
}

func walkNode(n *Node, fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.children {
		walkNode(c, fn)
	}
}

// Nodes returns all nodes of the tree in preorder.
func (t *Tree) Nodes() []*Node {
	var out []*Node
	t.Walk(func(n *Node) bool { out = append(out, n); return true })
	return out
}

// NodeByID returns the node with the given identity, or nil if the tree has
// no such node.
func (t *Tree) NodeByID(id int) *Node {
	var found *Node
	t.Walk(func(n *Node) bool {
		if n.id == id {
			found = n
			return false
		}
		return true
	})
	return found
}

// Labels returns the set of labels used in the tree (Σ_t in the paper).
func (t *Tree) Labels() map[string]bool {
	out := map[string]bool{}
	t.Walk(func(n *Node) bool { out[n.label] = true; return true })
	return out
}

// Contains reports whether n belongs to this tree's current version. It
// walks the tree: O(|t|).
func (t *Tree) Contains(n *Node) bool {
	found := false
	t.Walk(func(m *Node) bool {
		found = found || m == n
		return !found
	})
	return found
}

// Clone returns a deep copy of the tree in which every node keeps its
// identity and its modified status. Updates do not need it (Fork shares
// structure instead); it is for code that goes on to use the in-place
// builders (AddChild, Graft, DeleteSubtree, Detach, Attach), which must
// only ever touch nodes no other version shares.
func (t *Tree) Clone() *Tree {
	return &Tree{root: cloneNode(t.root), nextID: t.nextID, clock: t.clock}
}

func cloneNode(n *Node) *Node {
	m := &Node{id: n.id, label: n.label, stamp: n.stamp}
	m.children = make([]*Node, len(n.children))
	for i, c := range n.children {
		m.children[i] = cloneNode(c)
	}
	return m
}

// CloneSubtree returns SUBTREE_n(t) as a fresh tree. Node identities are
// preserved from the source tree.
func (t *Tree) CloneSubtree(n *Node) *Tree {
	return &Tree{root: cloneNode(n), nextID: t.nextID, clock: t.clock}
}

// Graft attaches a fresh copy of the tree x as a new child of parent and
// returns the root of the copy. The copy's nodes draw new identities from
// this tree, modeling the INSERT operation's fresh clones X_i (Section 3).
func (t *Tree) Graft(parent *Node, x *Tree) *Node {
	r := t.graftNode(parent, x.root)
	return r
}

func (t *Tree) graftNode(parent *Node, src *Node) *Node {
	n := t.AddChild(parent, src.label)
	for _, c := range src.children {
		t.graftNode(n, c)
	}
	return n
}

// DeleteSubtree detaches the subtree rooted at n from the tree. It returns
// an error when n is the root (the paper requires deletions to leave a
// tree: Ø(p) ≠ ROOT(p)) or is not in the tree. Without parent pointers it
// finds n's parent by walking the tree: O(|t|).
func (t *Tree) DeleteSubtree(n *Node) error {
	if n == t.root {
		return fmt.Errorf("xmltree: cannot delete the root of a tree")
	}
	var p *Node
	at := -1
	t.Walk(func(m *Node) bool {
		if p != nil {
			return false
		}
		for i, c := range m.children {
			if c == n {
				p, at = m, i
			}
		}
		return true
	})
	if p == nil {
		return fmt.Errorf("xmltree: node %d is not in the tree", n.id)
	}
	p.children = append(p.children[:at], p.children[at+1:]...)
	return nil
}

// Prune removes every subtree whose root fails keep, in one pass: keep
// is asked about every node below the root whose parent stays, and the
// root always stays. Like the other in-place builders it is for private
// trees only.
func (t *Tree) Prune(keep func(*Node) bool) {
	var prune func(n *Node)
	prune = func(n *Node) {
		kept := n.children[:0]
		for _, c := range n.children {
			if keep(c) {
				prune(c)
				kept = append(kept, c)
			}
		}
		clear(n.children[len(kept):])
		n.children = kept
	}
	prune(t.root)
}

// Modified reports whether n was copied or created since t's last
// ClearModified (or ever, if t was never cleared). An update marks this
// way exactly the nodes it changed: the root-to-point paths it copied and
// the nodes it inserted. It drives the tree-conflict check of Lemma 1.
func (t *Tree) Modified(n *Node) bool { return n.stamp == t.clock }

// ClearModified resets the modified status of every node in O(1): it
// advances t's clock without writing any node.
func (t *Tree) ClearModified() { t.clock++ }

// Detach removes n from its parent without deleting it, and Attach places a
// detached node (with its subtree) under a new parent. They implement the
// edge surgery used by the reparenting operation (Definition 10): the moved
// nodes keep their identities.
func (t *Tree) Detach(n *Node) error {
	return t.DeleteSubtree(n)
}

// Attach makes the detached node n a child of parent. n must not currently
// be in the tree.
func (t *Tree) Attach(parent, n *Node) error {
	if t.Contains(n) {
		return fmt.Errorf("xmltree: node %d is already attached", n.id)
	}
	parent.children = append(parent.children, n)
	return nil
}

// String renders the tree in a compact, deterministic, XML-like form with
// children sorted by canonical code. It is meant for debugging and tests.
func (t *Tree) String() string {
	var b strings.Builder
	writeNode(&b, t.root)
	return b.String()
}

func writeNode(b *strings.Builder, n *Node) {
	if len(n.children) == 0 {
		fmt.Fprintf(b, "<%s/>", n.label)
		return
	}
	fmt.Fprintf(b, "<%s>", n.label)
	for _, c := range canonicalOrder(n) {
		writeNode(b, c)
	}
	fmt.Fprintf(b, "</%s>", n.label)
}
