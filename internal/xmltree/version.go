package xmltree

// This file implements persistent document versions, the functional
// update model of FLUX (Cheney): an update never writes a node that is
// reachable from the version it started from. It copies the nodes on the
// root-to-point paths, shares every other subtree with the pre-state, and
// swaps the copied root into the tree handle. The paper's reference
// semantics compare R(t) with R(u(t)) by node identity (Definitions 2-4),
// which is the node id, not the pointer; path copies keep their ids, so
// verdicts are the same as with a deep copy.

// Fork returns a second handle on t's current version in O(1): the two
// trees share every node. Updates applied to either (Update.Apply in
// package ops) path-copy, so neither sees the other's changes. The
// in-place builders (AddChild, Graft, DeleteSubtree, Detach, Attach) must
// not be used on a tree whose nodes another live version shares; Clone
// first.
func (t *Tree) Fork() *Tree {
	return &Tree{root: t.root, nextID: t.nextID, clock: t.clock}
}

// Layout is a tree version laid out in preorder: the subtree of Nodes[i]
// is Nodes[i:End[i]], and Parent[i] is the position of its parent (-1 for
// the root). Positions follow Children order, so a node's first child
// sits at i+1 and every next sibling at the End of the previous one. The
// pattern evaluator computes on a Layout, and the path-copying updates
// find their root-to-point paths in it.
type Layout struct {
	Nodes  []*Node
	Parent []int32
	End    []int32
}

// Reset lays out t's current version into l, reusing l's storage.
func (l *Layout) Reset(t *Tree) {
	l.Nodes, l.Parent, l.End = l.Nodes[:0], l.Parent[:0], l.End[:0]
	l.add(t.root, -1)
}

func (l *Layout) add(n *Node, parent int32) {
	i := int32(len(l.Nodes))
	l.Nodes = append(l.Nodes, n)
	l.Parent = append(l.Parent, parent)
	l.End = append(l.End, 0)
	for _, c := range n.children {
		l.add(c, i)
	}
	l.End[i] = int32(len(l.Nodes))
}

// InsertAt performs INSERT at the points l.Nodes[i], i ∈ at (ascending
// positions in a layout of t's current version): t becomes the new
// version, in which a fresh copy of x (new identities, drawn in point
// identity order) is the last child of every point. Only the nodes on
// the root-to-point paths are copied. It returns the new version's
// copies of the points, sorted by identity.
func (t *Tree) InsertAt(l *Layout, at []int32, x *Tree) []*Node {
	if len(at) == 0 {
		return nil
	}
	points := t.pathCopy(l, at, true)
	SortByID(points)
	for _, p := range points {
		t.graftNode(p, x.root)
	}
	return points
}

// DeleteAt performs DELETE at the points l.Nodes[i], i ∈ at (ascending
// positions in a layout of t's current version): t becomes the new
// version, without the subtrees rooted at the points. Points below other
// points vanish with them. Only the nodes on the root-to-parent paths are
// copied. The root cannot be a point.
func (t *Tree) DeleteAt(l *Layout, at []int32) {
	if len(at) > 0 {
		t.pathCopy(l, at, false)
	}
}

// pathStep is one node on the union of the root-to-point paths.
type pathStep struct {
	pos   int32
	point bool
}

// pathCopy replaces t's root with a copy in which the nodes on the
// root-to-point paths are fresh copies stamped with t's clock and every
// other subtree is shared. Insert points are copied (keep) and returned;
// delete points are dropped from their parents' copies.
func (t *Tree) pathCopy(l *Layout, at []int32, keep bool) []*Node {
	steps := pathSteps(l, at, keep)
	c := copier{t: t, l: l, steps: steps, keep: keep}
	t.root = c.copy()
	return c.points
}

// pathSteps lists the union of the root-to-point paths in preorder. The
// points ascend, so each one's path shares a prefix with the previous
// point's path (kept on a stack) and only the rest needs climbing. With
// keep false (delete) a point below an earlier point is dropped.
func pathSteps(l *Layout, at []int32, keep bool) []pathStep {
	steps := make([]pathStep, 0, 2*len(at)+8)
	var stack []int32 // the path to the previous point
	var buf []int32
	cut := int32(-1) // end of the last delete point's subtree
	for _, q := range at {
		if !keep && q < cut {
			continue
		}
		for len(stack) > 0 && q >= l.End[stack[len(stack)-1]] {
			stack = stack[:len(stack)-1]
		}
		top := int32(-1)
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		buf = buf[:0]
		for v := q; v != top; v = l.Parent[v] {
			buf = append(buf, v)
		}
		for i := len(buf) - 1; i >= 0; i-- {
			steps = append(steps, pathStep{pos: buf[i], point: i == 0})
			stack = append(stack, buf[i])
		}
		if !keep {
			cut = l.End[q]
		}
	}
	return steps
}

// copier rebuilds the path nodes of pathSteps bottom-up.
type copier struct {
	t      *Tree
	l      *Layout
	steps  []pathStep
	next   int
	keep   bool
	points []*Node
}

// copy returns the copy of the node at steps[next], consuming the steps
// of its subtree. Children keep their order; a child that is not on a
// path is shared.
func (c *copier) copy() *Node {
	s := c.steps[c.next]
	c.next++
	old := c.l.Nodes[s.pos]
	extra := 0
	if s.point {
		extra = 1 // room for the graft, so InsertAt's append does not reallocate
	}
	kids := make([]*Node, 0, len(old.children)+extra)
	pos := s.pos + 1
	for _, ch := range old.children {
		switch {
		case c.next >= len(c.steps) || c.steps[c.next].pos != pos:
			kids = append(kids, ch)
		case c.steps[c.next].point && !c.keep:
			c.next++ // deleted
		default:
			kids = append(kids, c.copy())
		}
		pos = c.l.End[pos]
	}
	n := &Node{id: old.id, label: old.label, children: kids, stamp: c.t.clock}
	if s.point {
		c.points = append(c.points, n)
	}
	return n
}

// Parents returns the parent of every non-root node of t's current
// version, for the few callers that walk upward (witness shrinking,
// incremental revalidation, embedding checks). Nodes have no parent
// pointers, so it costs a walk of the tree: O(|t|).
func (t *Tree) Parents() map[*Node]*Node {
	out := make(map[*Node]*Node, t.Size())
	t.Walk(func(n *Node) bool {
		for _, c := range n.children {
			out[c] = n
		}
		return true
	})
	return out
}
