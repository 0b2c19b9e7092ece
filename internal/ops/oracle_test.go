package ops

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"xmlconflict/internal/match"
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/xmltree"
)

// This file keeps the deep-clone-and-mutate update as a test oracle: the
// whole tree is copied, the builders graft and detach in place, and the
// Lemma 1 modified flags are the change points and their ancestors. The
// path-copying Apply must agree with it on points, resulting tree (node
// identities included), modified nodes and every witness verdict.

// oracleResult is the outcome of the oracle update.
type oracleResult struct {
	after    *xmltree.Tree
	points   []int        // point identities, ascending
	modified map[int]bool // the change points and their ancestors
}

func oracleApply(u Update, t *xmltree.Tree) (oracleResult, error) {
	if d, ok := u.(Delete); ok {
		if err := d.Validate(); err != nil {
			return oracleResult{}, err
		}
	}
	c := t.Clone()
	parent := c.Parents()
	res := oracleResult{after: c, modified: map[int]bool{}}
	mark := func(n *xmltree.Node) {
		for ; n != nil; n = parent[n] {
			res.modified[n.ID()] = true
		}
	}
	for _, n := range match.Eval(u.Pattern(), c) {
		res.points = append(res.points, n.ID())
		switch v := u.(type) {
		case Insert:
			c.Graft(n, v.X)
			mark(n)
		case Delete:
			if !c.Contains(n) {
				continue // removed with a deleted ancestor
			}
			if err := c.DeleteSubtree(n); err != nil {
				return oracleResult{}, err
			}
			mark(parent[n])
		}
	}
	return res, nil
}

// oracleWitness is ConflictWitness on the oracle update.
func oracleWitness(sem Semantics, r Read, u Update, t *xmltree.Tree) (bool, error) {
	o, err := oracleApply(u, t)
	if err != nil {
		return false, err
	}
	before, res := r.Eval(t), r.Eval(o.after)
	switch sem {
	case NodeSemantics:
		return !xmltree.SameNodeSet(before, res), nil
	case TreeSemantics:
		if !xmltree.SameNodeSet(before, res) {
			return true, nil
		}
		for _, n := range res {
			if o.modified[n.ID()] {
				return true, nil
			}
		}
		return false, nil
	default:
		return !xmltree.SameIsoClasses(before, res), nil
	}
}

// structure renders a tree with its node identities: each node's label
// and the sorted identities of its children, in identity order.
func structure(t *xmltree.Tree) string {
	var out []string
	t.Walk(func(n *xmltree.Node) bool {
		var kids []int
		for _, c := range n.Children() {
			kids = append(kids, c.ID())
		}
		slices.Sort(kids)
		out = append(out, fmt.Sprintf("%d:%s%v", n.ID(), n.Label(), kids))
		return true
	})
	slices.Sort(out)
	return fmt.Sprint(out)
}

// randomCase draws a document, a read and an update (insert or delete,
// root-selecting deletes included) over a small alphabet, so patterns
// match often and points nest.
func randomCase(rng *rand.Rand) (*xmltree.Tree, Read, Update) {
	labels := []string{"a", "b"}
	pat := func(size int) *pattern.Pattern {
		return pattern.Random(rng, pattern.RandomConfig{
			Size: size, Labels: labels, PWildcard: 0.3, PDescendant: 0.4, PBranch: 0.3,
		})
	}
	doc := xmltree.Random(rng, xmltree.RandomConfig{Size: rng.Intn(30) + 1, Labels: []string{"a", "b", "c"}})
	r := Read{P: pat(rng.Intn(3) + 1)}
	if rng.Intn(2) == 0 {
		x := xmltree.Random(rng, xmltree.RandomConfig{Size: rng.Intn(3) + 1, Labels: labels})
		return doc, r, Insert{P: pat(rng.Intn(3) + 1), X: x}
	}
	return doc, r, Delete{P: pat(rng.Intn(3) + 2)}
}

func ids(ns []*xmltree.Node) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = n.ID()
	}
	return out
}

func TestPathCopyMatchesDeepCloneOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc, r, u := randomCase(rng)
		doc.ClearModified()
		want, wantErr := oracleApply(u, doc)
		got := doc.Fork()
		points, err := u.Apply(got)
		if (err == nil) != (wantErr == nil) {
			t.Logf("seed %d: error mismatch: %v vs oracle %v", seed, err, wantErr)
			return false
		}
		if err != nil {
			return true
		}
		pre := map[int]bool{}
		doc.Walk(func(n *xmltree.Node) bool { pre[n.ID()] = true; return true })
		modified := map[int]bool{}
		freshOK := true
		got.Walk(func(n *xmltree.Node) bool {
			switch {
			case !pre[n.ID()]:
				freshOK = freshOK && got.Modified(n) // inserted nodes are new
			case got.Modified(n):
				modified[n.ID()] = true
			}
			return true
		})
		switch {
		case !slices.Equal(ids(points), want.points):
			t.Logf("seed %d: points %v, oracle %v", seed, ids(points), want.points)
		case structure(got) != structure(want.after):
			t.Logf("seed %d: tree %s, oracle %s", seed, structure(got), structure(want.after))
		case got.Digest() != want.after.Digest():
			t.Logf("seed %d: digest differs", seed)
		case fmt.Sprint(modified) != fmt.Sprint(want.modified) || !freshOK:
			t.Logf("seed %d: modified %v, oracle %v (fresh ok %v)", seed, modified, want.modified, freshOK)
		default:
			return verdictsAgree(t, seed, r, u, doc)
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// verdictsAgree compares the three witness verdicts of ConflictWitness,
// the Checker and FiredSemantics with the oracle's.
func verdictsAgree(t *testing.T, seed int64, r Read, u Update, doc *xmltree.Tree) bool {
	var wantFired []Semantics
	for _, sem := range []Semantics{NodeSemantics, TreeSemantics, ValueSemantics} {
		want, err := oracleWitness(sem, r, u, doc)
		if err != nil {
			t.Logf("seed %d: oracle witness: %v", seed, err)
			return false
		}
		got, err1 := ConflictWitness(sem, r, u, doc)
		chk, err2 := NewChecker(sem, r, u, nil, nil).Witness(doc)
		if err1 != nil || err2 != nil || got != want || chk != want {
			t.Logf("seed %d: %s verdict %v / checker %v, oracle %v (%v %v)", seed, sem, got, chk, want, err1, err2)
			return false
		}
		if want {
			wantFired = append(wantFired, sem)
		}
	}
	fired, err := FiredSemantics(r, u, doc)
	if err != nil || !slices.Equal(fired, wantFired) {
		t.Logf("seed %d: fired %v, oracle %v (%v)", seed, fired, wantFired, err)
		return false
	}
	return true
}
