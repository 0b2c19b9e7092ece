// Package match implements the embedding semantics of Section 2.3 of
// "Conflicting XML Updates": evaluation of a tree pattern p on a tree t,
// [[p]](t), is the set of images of the output node Ø(p) under all
// embeddings of p into t.
//
// The evaluator runs in O(|t|·|p|) time using two linear passes (a
// bottom-up subtree-satisfiability pass followed by a top-down context-
// feasibility pass), in the spirit of the Core XPath algorithm of Gottlob,
// Koch & Pichler that the paper cites for its polynomial-time operation
// bounds. Every entry point runs the compiled bitset engine of
// compiled.go; a per-node map engine and a naive embedding enumerator
// live in the tests as differential oracles.
package match

import (
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/xmltree"
)

func labelOK(q *pattern.Node, v *xmltree.Node) bool {
	return q.IsWildcard() || q.Label() == v.Label()
}

// Eval returns [[p]](t): the set of nodes v of t such that some embedding
// of p into t maps Ø(p) to v. The result is sorted by node identity.
func Eval(p *pattern.Pattern, t *xmltree.Tree) []*xmltree.Node {
	s := getScratch(p)
	defer s.release()
	return s.eval(&s.pat, t)
}

// EvalSet returns [[p]](t) as a set of node identities.
func EvalSet(p *pattern.Pattern, t *xmltree.Tree) map[int]bool {
	out := map[int]bool{}
	for _, n := range Eval(p, t) {
		out[n.ID()] = true
	}
	return out
}

// EvalLayout is Evaluator.EvalLayout for a pattern compiled per call.
func EvalLayout(p *pattern.Pattern, t *xmltree.Tree, fn func(l *xmltree.Layout, at []int32)) {
	s := getScratch(p)
	defer s.release()
	fn(&s.Layout, s.match(&s.pat, t))
}

// Embeds reports whether an embedding of p into t exists at all
// ([[p]](t) ≠ ∅); it needs only the bottom-up pass.
func Embeds(p *pattern.Pattern, t *xmltree.Tree) bool {
	s := getScratch(p)
	defer s.release()
	s.bottomUp(&s.pat, t)
	return s.at(s.sat, 0, 0)
}

// EmbedsAt reports whether the pattern p embeds into the tree t with the
// pattern root mapped to the node v of t (and the rest of the pattern
// mapped into v's subtree). It implements the side conditions of Lemma 6:
// an embedding of SEQ_{n'}^{Ø(R)} into X (v = root of X, anchored) or into
// some subtree of X (any v).
func EmbedsAt(p *pattern.Pattern, t *xmltree.Tree, v *xmltree.Node) bool {
	s := getScratch(p)
	defer s.release()
	s.bottomUp(&s.pat, t)
	i := s.index(v)
	return i >= 0 && s.at(s.sat, i, 0)
}

// EmbedsAnywhere reports whether p embeds into t with the pattern root
// mapped to any node of t.
func EmbedsAnywhere(p *pattern.Pattern, t *xmltree.Tree) bool {
	s := getScratch(p)
	defer s.release()
	s.bottomUp(&s.pat, t)
	return s.at(s.sub, 0, 0)
}

// Embedding is a total assignment of pattern nodes to tree nodes that
// satisfies the four embedding conditions of Section 2.3.
type Embedding map[*pattern.Node]*xmltree.Node

// Valid re-checks the four embedding conditions (root-, label-, child- and
// descendant-edge preservation); it is used by tests.
func (e Embedding) Valid(p *pattern.Pattern, t *xmltree.Tree) bool {
	parent := t.Parents()
	for _, q := range p.Nodes() {
		v, ok := e[q]
		if !ok {
			return false
		}
		if q.Parent() == nil {
			if v != t.Root() {
				return false
			}
		} else {
			u := e[q.Parent()]
			if u == nil {
				return false
			}
			if q.Axis() == pattern.Child {
				if parent[v] != u {
					return false
				}
			} else if !properAncestor(parent, u, v) {
				return false
			}
		}
		if !labelOK(q, v) {
			return false
		}
	}
	return true
}

func properAncestor(parent map[*xmltree.Node]*xmltree.Node, u, v *xmltree.Node) bool {
	for a := parent[v]; a != nil; a = parent[a] {
		if a == u {
			return true
		}
	}
	return false
}
