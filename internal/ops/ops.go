// Package ops implements the read, insertion, and deletion operations of
// Section 3 of "Conflicting XML Updates" with the reference-based
// (mutating) semantics of XQuery updates and XJ, together with the
// polynomial-time witness checkers of Lemma 1 for all three conflict
// semantics (node, tree, value). An update turns a tree into a new
// version that keeps node identities and shares every subtree it did not
// change with the old one (see xmltree's version.go).
package ops

import (
	"fmt"

	"xmlconflict/internal/match"
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/xmltree"
)

// Read is READ_p: evaluating it on t projects the node set [[p]](t).
type Read struct {
	P *pattern.Pattern
}

// Eval returns [[p]](t), sorted by node identity.
func (r Read) Eval(t *xmltree.Tree) []*xmltree.Node {
	return match.Eval(r.P, t)
}

// EvalSubtrees returns [[p]]_T(t): the subtrees of t rooted at the nodes of
// [[p]](t), represented by their root nodes.
func (r Read) EvalSubtrees(t *xmltree.Tree) []*xmltree.Node {
	return r.Eval(t)
}

// Update is an operation that produces a new version of a tree: INSERT
// or DELETE.
type Update interface {
	// Apply makes t the updated version and returns the insertion or
	// deletion points ([[p]](t) evaluated before the update), sorted by
	// identity. No node reachable from t's old root is ever written: the
	// nodes on the root-to-point paths are copied, the rest is shared
	// with the pre-state, and the copies (with the inserted nodes) are
	// t's modified nodes (Tree.Modified). Insertion points are returned
	// as the new version's copies; deletion points as the pre-state
	// nodes, which the new version no longer contains.
	Apply(t *xmltree.Tree) ([]*xmltree.Node, error)
	// Pattern returns the operation's tree pattern.
	Pattern() *pattern.Pattern
	// Kind returns "insert" or "delete".
	Kind() string
}

// Insert is INSERT_{p,X}: evaluate p on t and add a fresh copy of X as a
// child of every node in the result.
type Insert struct {
	P *pattern.Pattern
	X *xmltree.Tree
}

// Pattern returns the insertion's tree pattern.
func (i Insert) Pattern() *pattern.Pattern { return i.P }

// Kind returns "insert".
func (i Insert) Kind() string { return "insert" }

// Apply updates t per the paper's semantics: for every insertion point
// n ∈ [[p]](t), a fresh clone X_i of X (disjoint node identities) is added
// as a child of n. It returns the insertion points. If [[p]](t) is empty,
// t is unchanged.
func (i Insert) Apply(t *xmltree.Tree) ([]*xmltree.Node, error) {
	return i.apply(t, nil), nil
}

// apply runs the insertion; ev, when not nil, is P compiled (the witness
// Checker's cached evaluator).
func (i Insert) apply(t *xmltree.Tree, ev *match.Evaluator) (points []*xmltree.Node) {
	evalLayout(i.P, ev, t, func(l *xmltree.Layout, at []int32) {
		points = t.InsertAt(l, at, i.X)
	})
	return points
}

// evalLayout evaluates p on t with ev, its compiled form, or compiles it
// per call when ev is nil, and hands the layout and result to fn.
func evalLayout(p *pattern.Pattern, ev *match.Evaluator, t *xmltree.Tree, fn func(*xmltree.Layout, []int32)) {
	if ev != nil {
		ev.EvalLayout(t, fn)
		return
	}
	match.EvalLayout(p, t, fn)
}

// Delete is DELETE_p: evaluate p on t and delete the subtree rooted at
// every node in the result. The paper requires Ø(p) ≠ ROOT(p) so that the
// result remains a tree.
type Delete struct {
	P *pattern.Pattern
}

// Pattern returns the deletion's tree pattern.
func (d Delete) Pattern() *pattern.Pattern { return d.P }

// Kind returns "delete".
func (d Delete) Kind() string { return "delete" }

// Validate checks the well-formedness requirement Ø(p) ≠ ROOT(p).
func (d Delete) Validate() error {
	if d.P.Output() == d.P.Root() {
		return fmt.Errorf("ops: delete pattern selects the root (Ø(p) = ROOT(p)); the result would not be a tree")
	}
	return nil
}

// Apply updates t: every subtree rooted at a deletion point is removed.
// Deletion points nested below other deletion points vanish with their
// ancestors. It returns the deletion points.
func (d Delete) Apply(t *xmltree.Tree) ([]*xmltree.Node, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d.apply(t, nil), nil
}

// apply runs the deletion, already validated; ev is as for Insert.apply.
func (d Delete) apply(t *xmltree.Tree, ev *match.Evaluator) (points []*xmltree.Node) {
	evalLayout(d.P, ev, t, func(l *xmltree.Layout, at []int32) {
		if len(at) == 0 {
			return
		}
		points = make([]*xmltree.Node, len(at))
		for k, v := range at {
			points[k] = l.Nodes[v]
		}
		xmltree.SortByID(points)
		t.DeleteAt(l, at)
	})
	return points
}

// ApplyCopy applies the update to a new version of t and returns it; t
// itself is untouched. The two versions share every subtree the update
// did not change (Tree.Fork), so the cost is that of the change, not of
// t. Node identities carry over and freshly inserted nodes draw
// identities unused by t, so node identity comparisons between t and the
// result are meaningful (Definition 2). The result's modified nodes are
// exactly those the update changed.
func ApplyCopy(u Update, t *xmltree.Tree) (*xmltree.Tree, error) {
	c := t.Fork()
	c.ClearModified()
	if _, err := u.Apply(c); err != nil {
		return nil, err
	}
	return c, nil
}

// NodeConflictWitness reports whether t witnesses a node conflict between
// the read r and the update u (Definitions 3-4): R(u(t)) ≠ R(t) as node
// sets. Per Lemma 1, the check runs in polynomial time.
func NodeConflictWitness(r Read, u Update, t *xmltree.Tree) (bool, error) {
	after, err := ApplyCopy(u, t)
	if err != nil {
		return false, err
	}
	return !xmltree.SameNodeSet(r.Eval(t), r.Eval(after)), nil
}

// TreeConflictWitness reports whether t witnesses a tree conflict between r
// and u: either the node sets differ, or some returned subtree was
// modified by the update. The modified status Apply leaves on the new
// version makes the check linear in |t| (Lemma 1).
func TreeConflictWitness(r Read, u Update, t *xmltree.Tree) (bool, error) {
	after, err := ApplyCopy(u, t)
	if err != nil {
		return false, err
	}
	before := r.Eval(t)
	res := r.Eval(after)
	if !xmltree.SameNodeSet(before, res) {
		return true, nil
	}
	return anyModified(after, res), nil
}

// anyModified reports whether the update that produced after modified
// the subtree rooted at any of the nodes ns: a node's copy is modified
// exactly when a change point lies in its subtree.
func anyModified(after *xmltree.Tree, ns []*xmltree.Node) bool {
	for _, n := range ns {
		if after.Modified(n) {
			return true
		}
	}
	return false
}

// ValueConflictWitness reports whether t witnesses a value conflict between
// r and u (Definitions 5-6): the sets of isomorphism classes of
// [[p]]_T(u(t)) and [[p]]_T(t) differ.
func ValueConflictWitness(r Read, u Update, t *xmltree.Tree) (bool, error) {
	after, err := ApplyCopy(u, t)
	if err != nil {
		return false, err
	}
	return !xmltree.SameIsoClasses(r.Eval(t), r.Eval(after)), nil
}

// FiredSemantics reports which of the three conflict notions the tree t
// witnesses between r and u, in declaration order (node, tree, value).
// One update application serves all three comparisons, so the check
// costs the same as a single witness check plus the set comparisons.
// The durable store uses it to tell a rejected client exactly which
// semantics its read admission failed under.
func FiredSemantics(r Read, u Update, t *xmltree.Tree) ([]Semantics, error) {
	after, err := ApplyCopy(u, t)
	if err != nil {
		return nil, err
	}
	before := r.Eval(t)
	res := r.Eval(after)
	var fired []Semantics
	sameNodes := xmltree.SameNodeSet(before, res)
	if !sameNodes {
		fired = append(fired, NodeSemantics)
	}
	if !sameNodes || anyModified(after, res) {
		fired = append(fired, TreeSemantics)
	}
	if !xmltree.SameIsoClasses(before, res) {
		fired = append(fired, ValueSemantics)
	}
	return fired, nil
}

// ConflictWitness dispatches on the conflict semantics.
func ConflictWitness(sem Semantics, r Read, u Update, t *xmltree.Tree) (bool, error) {
	switch sem {
	case NodeSemantics:
		return NodeConflictWitness(r, u, t)
	case TreeSemantics:
		return TreeConflictWitness(r, u, t)
	case ValueSemantics:
		return ValueConflictWitness(r, u, t)
	default:
		return false, fmt.Errorf("ops: unknown conflict semantics %d", sem)
	}
}

// Semantics selects one of the paper's three conflict notions.
type Semantics int

const (
	// NodeSemantics compares result node sets by identity (Definitions 3-4,
	// first parts). This is the paper's default.
	NodeSemantics Semantics = iota
	// TreeSemantics additionally requires returned subtrees unmodified
	// (Definitions 3-4, second parts).
	TreeSemantics
	// ValueSemantics compares results up to tree isomorphism
	// (Definitions 5-6).
	ValueSemantics
)

// String names the semantics ("node", "tree", or "value").
func (s Semantics) String() string {
	switch s {
	case NodeSemantics:
		return "node"
	case TreeSemantics:
		return "tree"
	case ValueSemantics:
		return "value"
	default:
		return fmt.Sprintf("Semantics(%d)", int(s))
	}
}

// CommuteWitness reports whether applying u1 then u2 to (versions of) t
// yields a tree that is not isomorphic to applying u2 then u1. It realizes
// the informal Section 6 definition of conflicts between two updates under
// value-based semantics, where the fresh-clone identity problem of the
// reference semantics disappears.
func CommuteWitness(u1, u2 Update, t *xmltree.Tree) (bool, error) {
	a, err := ApplyCopy(u1, t)
	if err != nil {
		return false, err
	}
	if _, err := u2.Apply(a); err != nil {
		return false, err
	}
	b, err := ApplyCopy(u2, t)
	if err != nil {
		return false, err
	}
	if _, err := u1.Apply(b); err != nil {
		return false, err
	}
	return !xmltree.Isomorphic(a, b), nil
}
