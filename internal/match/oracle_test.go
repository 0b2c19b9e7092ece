package match

import (
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/xmltree"
)

// The differential oracles of the compiled engine: a reference engine
// that runs the same two passes over per-node maps of []bool rows, and a
// naive embedding enumerator that follows the Section 2.3 definition
// literally. They share no code with compiled.go.

// evalState carries the per-(tree node, pattern node) bit tables for one
// reference evaluation. Pattern nodes are indexed by preorder position.
type evalState struct {
	p      *pattern.Pattern
	pnodes []*pattern.Node
	pindex map[*pattern.Node]int
	m      int

	// sat[v][q]: the subpattern rooted at q embeds into the subtree rooted
	// at v with q ↦ v.
	sat map[*xmltree.Node][]bool
	// satSub[v][q]: some node in the subtree rooted at v (v included)
	// satisfies sat[·][q].
	satSub map[*xmltree.Node][]bool
}

func newEvalState(p *pattern.Pattern, t *xmltree.Tree) *evalState {
	s := &evalState{
		p:      p,
		pnodes: p.Nodes(),
		pindex: map[*pattern.Node]int{},
		sat:    map[*xmltree.Node][]bool{},
		satSub: map[*xmltree.Node][]bool{},
	}
	s.m = len(s.pnodes)
	for i, q := range s.pnodes {
		s.pindex[q] = i
	}
	s.computeSat(t.Root())
	return s
}

// computeSat fills sat and satSub for the subtree rooted at v, bottom-up.
func (s *evalState) computeSat(v *xmltree.Node) {
	for _, c := range v.Children() {
		s.computeSat(c)
	}
	sat := make([]bool, s.m)
	sub := make([]bool, s.m)
	// Pattern nodes in reverse preorder: children before parents.
	for qi := s.m - 1; qi >= 0; qi-- {
		q := s.pnodes[qi]
		ok := labelOK(q, v)
		if ok {
			for _, qc := range q.Children() {
				ci := s.pindex[qc]
				found := false
				for _, tc := range v.Children() {
					if qc.Axis() == pattern.Child {
						if s.sat[tc][ci] {
							found = true
							break
						}
					} else if s.satSub[tc][ci] {
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
		}
		sat[qi] = ok
		sub[qi] = ok
		if !sub[qi] {
			for _, tc := range v.Children() {
				if s.satSub[tc][qi] {
					sub[qi] = true
					break
				}
			}
		}
	}
	s.sat[v] = sat
	s.satSub[v] = sub
}

// refEval is the reference engine's [[p]](t).
func refEval(p *pattern.Pattern, t *xmltree.Tree) []*xmltree.Node {
	s := newEvalState(p, t)
	if !s.sat[t.Root()][0] {
		return nil
	}
	// Top-down feasibility: feas[v][q] means a full embedding exists that
	// maps q to v.
	feas := map[*xmltree.Node][]bool{}
	outIdx := s.pindex[p.Output()]
	var result []*xmltree.Node
	var down func(v, pv *xmltree.Node, anc []bool)
	down = func(v, pv *xmltree.Node, anc []bool) {
		f := make([]bool, s.m)
		sat := s.sat[v]
		for qi, q := range s.pnodes {
			if !sat[qi] {
				continue
			}
			if q.Parent() == nil {
				f[qi] = v == t.Root()
				continue
			}
			pi := s.pindex[q.Parent()]
			if q.Axis() == pattern.Child {
				if pv != nil && feas[pv][pi] {
					f[qi] = true
				}
			} else if anc[pi] {
				f[qi] = true
			}
		}
		feas[v] = f
		if f[outIdx] {
			result = append(result, v)
		}
		childAnc := make([]bool, s.m)
		for qi := range childAnc {
			childAnc[qi] = anc[qi] || f[qi]
		}
		for _, c := range v.Children() {
			down(c, v, childAnc)
		}
	}
	down(t.Root(), nil, make([]bool, s.m))
	return xmltree.SortByID(result)
}

func refEmbeds(p *pattern.Pattern, t *xmltree.Tree) bool {
	return newEvalState(p, t).sat[t.Root()][0]
}

func refEmbedsAt(p *pattern.Pattern, t *xmltree.Tree, v *xmltree.Node) bool {
	return newEvalState(p, t).sat[v][0]
}

func refEmbedsAnywhere(p *pattern.Pattern, t *xmltree.Tree) bool {
	return newEvalState(p, t).satSub[t.Root()][0]
}

// refFindEmbeddingAt is FindEmbeddingAt on the reference tables: the
// same spine DP and greedy fill, so it must choose the same embedding.
func refFindEmbeddingAt(p *pattern.Pattern, t *xmltree.Tree, target *xmltree.Node) Embedding {
	s := newEvalState(p, t)
	spine := p.Spine()
	var path []*xmltree.Node
	parent := t.Parents()
	for n := target; n != nil; n = parent[n] {
		path = append([]*xmltree.Node{n}, path...)
	}
	if path[0] != t.Root() {
		return nil
	}
	ls, lp := len(spine), len(path)
	onSpine := map[*pattern.Node]bool{}
	for _, q := range spine {
		onSpine[q] = true
	}
	findImage := func(qc *pattern.Node, v *xmltree.Node) *xmltree.Node {
		ci := s.pindex[qc]
		if qc.Axis() == pattern.Child {
			for _, tc := range v.Children() {
				if s.sat[tc][ci] {
					return tc
				}
			}
			return nil
		}
		var descend func(n *xmltree.Node) *xmltree.Node
		descend = func(n *xmltree.Node) *xmltree.Node {
			if s.sat[n][ci] {
				return n
			}
			for _, c := range n.Children() {
				if s.satSub[c][ci] {
					return descend(c)
				}
			}
			return nil
		}
		for _, tc := range v.Children() {
			if s.satSub[tc][ci] {
				return descend(tc)
			}
		}
		return nil
	}
	okAt := func(q *pattern.Node, v *xmltree.Node) bool {
		if !labelOK(q, v) {
			return false
		}
		for _, qc := range q.Children() {
			if !onSpine[qc] && findImage(qc, v) == nil {
				return false
			}
		}
		return true
	}
	reach := make([][]bool, ls)
	from := make([][]int, ls)
	for i := range reach {
		reach[i] = make([]bool, lp)
		from[i] = make([]int, lp)
	}
	reach[0][0] = okAt(spine[0], path[0])
	for i := 1; i < ls; i++ {
		for j := 1; j < lp; j++ {
			if !okAt(spine[i], path[j]) {
				continue
			}
			if spine[i].Axis() == pattern.Child {
				if reach[i-1][j-1] {
					reach[i][j], from[i][j] = true, j-1
				}
				continue
			}
			for k := 0; k < j; k++ {
				if reach[i-1][k] {
					reach[i][j], from[i][j] = true, k
					break
				}
			}
		}
	}
	if !reach[ls-1][lp-1] {
		return nil
	}
	e := Embedding{}
	j := lp - 1
	for i := ls - 1; i >= 0; i-- {
		e[spine[i]] = path[j]
		j = from[i][j]
	}
	var fill func(q *pattern.Node, v *xmltree.Node) bool
	fill = func(q *pattern.Node, v *xmltree.Node) bool {
		e[q] = v
		for _, qc := range q.Children() {
			img := findImage(qc, v)
			if img == nil || !fill(qc, img) {
				return false
			}
		}
		return true
	}
	for _, q := range spine {
		for _, qc := range q.Children() {
			if onSpine[qc] {
				continue
			}
			if img := findImage(qc, e[q]); img == nil || !fill(qc, img) {
				return nil
			}
		}
	}
	return e
}

// AllEmbeddings enumerates embeddings of p into t, invoking fn for each
// until fn returns false or the enumeration is exhausted. It is
// exponential in the worst case: the specification oracle.
func AllEmbeddings(p *pattern.Pattern, t *xmltree.Tree, fn func(Embedding) bool) {
	pnodes := p.Nodes()
	e := Embedding{}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(pnodes) {
			cp := Embedding{}
			for k, v := range e {
				cp[k] = v
			}
			return fn(cp)
		}
		q := pnodes[i]
		var candidates []*xmltree.Node
		if q.Parent() == nil {
			candidates = []*xmltree.Node{t.Root()}
		} else {
			u := e[q.Parent()]
			if q.Axis() == pattern.Child {
				candidates = u.Children()
			} else {
				var collect func(n *xmltree.Node)
				collect = func(n *xmltree.Node) {
					candidates = append(candidates, n)
					for _, c := range n.Children() {
						collect(c)
					}
				}
				for _, c := range u.Children() {
					collect(c)
				}
			}
		}
		for _, v := range candidates {
			if !labelOK(q, v) {
				continue
			}
			e[q] = v
			if !rec(i + 1) {
				return false
			}
		}
		delete(e, q)
		return true
	}
	rec(0)
}

// FindEmbedding returns an embedding of p into t that maps Ø(p) to target
// (or to any node if target is nil), or nil if none exists.
func FindEmbedding(p *pattern.Pattern, t *xmltree.Tree, target *xmltree.Node) Embedding {
	var found Embedding
	AllEmbeddings(p, t, func(e Embedding) bool {
		if target == nil || e[p.Output()] == target {
			found = e
			return false
		}
		return true
	})
	return found
}

// EvalNaive computes [[p]](t) by full embedding enumeration.
func EvalNaive(p *pattern.Pattern, t *xmltree.Tree) []*xmltree.Node {
	seen := map[*xmltree.Node]bool{}
	AllEmbeddings(p, t, func(e Embedding) bool {
		seen[e[p.Output()]] = true
		return true
	})
	var out []*xmltree.Node
	for n := range seen {
		out = append(out, n)
	}
	return xmltree.SortByID(out)
}
