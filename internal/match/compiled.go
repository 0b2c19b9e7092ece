package match

import (
	"sync"

	"xmlconflict/internal/pattern"
	"xmlconflict/internal/xmltree"
)

// Evaluator is a compiled form of a pattern for repeated evaluation: the
// pattern is flattened into preorder index arrays once, and each
// evaluation lays the tree out into flat arrays and runs the two-pass
// algorithm over bitset rows. Every entry point of the package runs on
// it; the package-level functions compile their pattern into pooled
// scratch per call, so holding an Evaluator only saves that step.
//
// An Evaluator is immutable after Compile and safe for concurrent use.
type Evaluator struct {
	// Flattened pattern, preorder. Index 0 is the root, and a
	// subpattern is the contiguous range [q, end[q]).
	pnodes   []*pattern.Node
	labels   []string
	wildcard []bool
	childAx  []bool  // edge from parent is a child edge
	parent   []int32 // -1 for the root
	end      []int32
	out      int32
	words    int // bitset words per row
}

// Compile flattens a pattern into an Evaluator.
func Compile(p *pattern.Pattern) *Evaluator {
	e := &Evaluator{}
	e.compile(p)
	return e
}

// compile fills e's tables from p, reusing their storage.
func (e *Evaluator) compile(p *pattern.Pattern) {
	e.pnodes, e.labels, e.wildcard = e.pnodes[:0], e.labels[:0], e.wildcard[:0]
	e.childAx, e.parent, e.end = e.childAx[:0], e.parent[:0], e.end[:0]
	e.add(p.Root(), -1, p.Output())
	e.words = (len(e.pnodes) + 63) / 64
}

func (e *Evaluator) add(q *pattern.Node, parent int32, out *pattern.Node) {
	i := int32(len(e.pnodes))
	if q == out {
		e.out = i
	}
	e.pnodes = append(e.pnodes, q)
	e.labels = append(e.labels, q.Label())
	e.wildcard = append(e.wildcard, q.IsWildcard())
	e.childAx = append(e.childAx, q.Axis() == pattern.Child)
	e.parent = append(e.parent, parent)
	e.end = append(e.end, 0)
	for _, c := range q.Children() {
		e.add(c, i, out)
	}
	e.end[i] = int32(len(e.pnodes))
}

// Eval computes [[p]](t), sorted by node identity.
func (e *Evaluator) Eval(t *xmltree.Tree) []*xmltree.Node {
	s := getScratch(nil)
	defer s.release()
	return s.eval(e, t)
}

// Embeds reports whether an embedding exists ([[p]](t) ≠ ∅): only the
// bottom-up pass runs, making it the cheapest filter primitive.
func (e *Evaluator) Embeds(t *xmltree.Tree) bool {
	s := getScratch(nil)
	defer s.release()
	s.bottomUp(e, t)
	return s.at(s.sat, 0, 0)
}

// EvalLayout computes [[p]](t) and hands fn the preorder layout of t
// together with the positions of the result in it, ascending. Both are
// valid only during the call. The path-copying updates of package ops
// run on it.
func (e *Evaluator) EvalLayout(t *xmltree.Tree, fn func(l *xmltree.Layout, at []int32)) {
	s := getScratch(nil)
	defer s.release()
	fn(&s.Layout, s.match(e, t))
}

// scratch is the working memory of one evaluation: the tree laid out in
// preorder (a subtree is the contiguous range [v, end[v])) and the
// n×words bit matrices of the two passes. It is recycled through
// scratchPool, so a warm evaluation allocates only its result.
type scratch struct {
	pat Evaluator // the per-call compilation of the package-level functions
	xmltree.Layout
	w int // words per row of the evaluation in progress
	// sat[v] holds q when the subpattern rooted at q embeds into the
	// subtree rooted at v with q ↦ v; sub[v] holds q when sat does at v
	// or at some descendant of v.
	sat, sub []uint64
	// feas[v] holds q when some embedding of the whole pattern maps q
	// to v; anc[v] is the union of feas over v's proper ancestors.
	feas, anc []uint64
	kids      []uint64 // OR of v's children's sat rows, then of their sub rows
	hits      []int32  // preorder positions of the output node's images
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch takes scratch from the pool, compiling p into it unless p
// is nil.
func getScratch(p *pattern.Pattern) *scratch {
	s := scratchPool.Get().(*scratch)
	if p != nil {
		s.pat.compile(p)
	}
	return s
}

// release drops every tree and pattern reference, so the pool retains
// only plain storage, and returns s to the pool.
func (s *scratch) release() {
	clear(s.Nodes)
	clear(s.pat.pnodes)
	clear(s.pat.labels)
	s.Nodes, s.hits = s.Nodes[:0], s.hits[:0]
	scratchPool.Put(s)
}

// zeroed returns buf resized to n zero words, reusing its storage when
// it is large enough.
func zeroed(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func (s *scratch) row(bits []uint64, v int) []uint64 { return bits[v*s.w : (v+1)*s.w] }

func (s *scratch) at(bits []uint64, v, q int) bool {
	return bits[v*s.w+q/64]&(1<<(q%64)) != 0
}

func has(row []uint64, q int) bool { return row[q/64]&(1<<(q%64)) != 0 }

// index returns v's preorder index in the flattened tree, or -1 when v
// is not in it.
func (s *scratch) index(v *xmltree.Node) int {
	for i, n := range s.Nodes {
		if n == v {
			return i
		}
	}
	return -1
}

// bottomUp flattens t and fills sat and sub. Children have larger
// preorder indexes than their parent, so one reverse sweep sees every
// child row before the parent's.
func (s *scratch) bottomUp(e *Evaluator, t *xmltree.Tree) {
	s.Reset(t)
	n, w := len(s.Nodes), e.words
	s.w = w
	s.sat, s.sub = zeroed(s.sat, n*w), zeroed(s.sub, n*w)
	s.kids = zeroed(s.kids, 2*w)
	kidSat, kidSub := s.kids[:w], s.kids[w:]
	for v := n - 1; v >= 0; v-- {
		clear(s.kids)
		for c := v + 1; c < int(s.End[v]); c = int(s.End[c]) {
			for k := 0; k < w; k++ {
				kidSat[k] |= s.sat[c*w+k]
				kidSub[k] |= s.sub[c*w+k]
			}
		}
		label := s.Nodes[v].Label()
		sat, sub := s.row(s.sat, v), s.row(s.sub, v)
		for q := range e.labels {
			if e.embedsHere(q, label, kidSat, kidSub) {
				sat[q/64] |= 1 << (q % 64)
			}
		}
		for k := range sub {
			sub[k] = sat[k] | kidSub[k]
		}
	}
}

// embedsHere reports whether the subpattern rooted at q maps q to a node
// labeled label whose children's sat and sub rows are ORed into kidSat
// and kidSub: the label matches, and every pattern child finds an image
// among the children (child edge) or their subtrees (descendant edge).
func (e *Evaluator) embedsHere(q int, label string, kidSat, kidSub []uint64) bool {
	if !e.wildcard[q] && e.labels[q] != label {
		return false
	}
	for qc := q + 1; qc < int(e.end[q]); qc = int(e.end[qc]) {
		kids := kidSub
		if e.childAx[qc] {
			kids = kidSat
		}
		if !has(kids, qc) {
			return false
		}
	}
	return true
}

// eval runs both passes and returns a fresh, identity-sorted copy of the
// output node's images (nil when there are none).
func (s *scratch) eval(e *Evaluator, t *xmltree.Tree) []*xmltree.Node {
	hits := s.match(e, t)
	if len(hits) == 0 {
		return nil
	}
	out := make([]*xmltree.Node, len(hits))
	for i, v := range hits {
		out[i] = s.Nodes[v]
	}
	return xmltree.SortByID(out)
}

// match runs both passes and returns the preorder positions of the
// output node's images, ascending, in s's own storage.
func (s *scratch) match(e *Evaluator, t *xmltree.Tree) []int32 {
	s.bottomUp(e, t)
	if !s.at(s.sat, 0, 0) {
		return nil
	}
	n, w, out := len(s.Nodes), s.w, int(e.out)
	s.feas, s.anc = zeroed(s.feas, n*w), zeroed(s.anc, n*w)
	s.hits = s.hits[:0]
	for v := 0; v < n; v++ {
		feas, anc := s.row(s.feas, v), s.row(s.anc, v)
		pv := int(s.Parent[v])
		if pv >= 0 {
			pfeas, panc := s.row(s.feas, pv), s.row(s.anc, pv)
			for k := range anc {
				anc[k] = panc[k] | pfeas[k]
			}
		}
		sat := s.row(s.sat, v)
		for q := range e.labels {
			if !has(sat, q) {
				continue
			}
			var ok bool
			switch pq := int(e.parent[q]); {
			case pq < 0:
				ok = v == 0
			case e.childAx[q]:
				ok = pv >= 0 && s.at(s.feas, pv, pq)
			default:
				ok = has(anc, pq)
			}
			if ok {
				feas[q/64] |= 1 << (q % 64)
			}
		}
		if has(feas, out) {
			s.hits = append(s.hits, int32(v))
		}
	}
	return s.hits
}
