package match

import (
	"slices"

	"xmlconflict/internal/pattern"
	"xmlconflict/internal/xmltree"
)

// FindEmbeddingAt returns an embedding of p into t that maps the output
// node Ø(p) to target, or nil if none exists. It runs in polynomial
// time: a path DP places the root-to-output spine of p on the
// root-to-target path of t, and the off-spine subpatterns are then
// filled in greedily from the bottom-up satisfiability tables (sibling
// subpatterns are independent, so greedy choices cannot clash).
//
// The marking procedure of Definition 9 uses it to pick the embeddings
// e_R and e_I whose images must be preserved while a witness is shrunk.
func FindEmbeddingAt(p *pattern.Pattern, t *xmltree.Tree, target *xmltree.Node) Embedding {
	s := getScratch(p)
	defer s.release()
	e := &s.pat
	s.bottomUp(e, t)
	tv := s.index(target)
	if tv < 0 {
		return nil
	}
	var spine, path []int
	for q := int(e.out); q >= 0; q = int(e.parent[q]) {
		spine = append(spine, q)
	}
	for v := tv; v >= 0; v = int(s.Parent[v]) {
		path = append(path, v)
	}
	slices.Reverse(spine)
	slices.Reverse(path)
	ls, lp := len(spine), len(path)
	onSpine := make([]bool, len(e.pnodes))
	for _, q := range spine {
		onSpine[q] = true
	}

	// okAt: spine node q can be mapped to tree node v with all off-spine
	// subpatterns of q embeddable below v.
	okAt := func(q, v int) bool {
		if !e.wildcard[q] && e.labels[q] != s.Nodes[v].Label() {
			return false
		}
		for qc := q + 1; qc < int(e.end[q]); qc = int(e.end[qc]) {
			if !onSpine[qc] && s.findImage(e, qc, v) < 0 {
				return false
			}
		}
		return true
	}

	// reach[i*lp+j]: spine[0..i] placed on path[0..j] with spine[i] ↦
	// path[j]; from records the placement of spine[i-1].
	reach := make([]bool, ls*lp)
	from := make([]int, ls*lp)
	reach[0] = okAt(spine[0], path[0])
	for i := 1; i < ls; i++ {
		for j := 1; j < lp; j++ {
			if !okAt(spine[i], path[j]) {
				continue
			}
			lo := 0 // a descendant edge takes the topmost placement of spine[i-1]
			if e.childAx[spine[i]] {
				lo = j - 1
			}
			for k := lo; k < j; k++ {
				if reach[(i-1)*lp+k] {
					reach[i*lp+j], from[i*lp+j] = true, k
					break
				}
			}
		}
	}
	if !reach[ls*lp-1] {
		return nil
	}

	emb := Embedding{}
	// fill maps the subpattern rooted at q with q ↦ v, greedily top-down.
	var fill func(q, v int) bool
	fill = func(q, v int) bool {
		emb[e.pnodes[q]] = s.Nodes[v]
		for qc := q + 1; qc < int(e.end[q]); qc = int(e.end[qc]) {
			if onSpine[qc] {
				continue
			}
			img := s.findImage(e, qc, v)
			if img < 0 || !fill(qc, img) {
				return false
			}
		}
		return true
	}
	for i, j := ls-1, lp-1; i >= 0; i-- {
		if !fill(spine[i], path[j]) {
			return nil // unreachable given okAt, kept as a safety net
		}
		j = from[i*lp+j]
	}
	return emb
}

// findImage returns the preorder index of a node under v whose subtree
// satisfies the subpattern rooted at q, respecting q's axis, or -1. A
// descendant-edge image is the topmost satisfying node on the first
// branch whose sub row holds q.
func (s *scratch) findImage(e *Evaluator, q, v int) int {
	for c := v + 1; c < int(s.End[v]); c = int(s.End[c]) {
		if e.childAx[q] {
			if s.at(s.sat, c, q) {
				return c
			}
			continue
		}
		if !s.at(s.sub, c, q) {
			continue
		}
		for u := c; ; {
			if s.at(s.sat, u, q) {
				return u
			}
			next := -1
			for d := u + 1; d < int(s.End[u]); d = int(s.End[d]) {
				if s.at(s.sub, d, q) {
					next = d
					break
				}
			}
			if next < 0 {
				return -1
			}
			u = next
		}
	}
	return -1
}
