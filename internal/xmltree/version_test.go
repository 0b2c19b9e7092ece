package xmltree

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// pointsAt returns the ascending layout positions of the nodes with the
// given labels.
func pointsAt(l *Layout, labels ...string) []int32 {
	var at []int32
	for i, n := range l.Nodes {
		if slices.Contains(labels, n.label) {
			at = append(at, int32(i))
		}
	}
	return at
}

func TestInsertAtSharesUntouchedSubtrees(t *testing.T) {
	pre := MustParse("<r><a><p/><q><s/></q></a><b><c/></b></r>")
	pre.ClearModified()
	preXML := pre.XML()
	a, b := pre.Root().Children()[0], pre.Root().Children()[1]
	q := a.Children()[1]

	v := pre.Fork()
	var l Layout
	l.Reset(v)
	points := v.InsertAt(&l, pointsAt(&l, "s"), MustParse("<x/>"))
	if pre.XML() != preXML {
		t.Fatalf("pre-state changed: %s", pre.XML())
	}
	if len(points) != 1 || points[0].ID() != q.Children()[0].ID() || points[0] == q.Children()[0] {
		t.Fatalf("insert point must be the new version's copy of s")
	}
	if got := v.XML(); got != "<r><a><p/><q><s><x/></s></q></a><b><c/></b></r>" {
		t.Fatalf("new version %s", got)
	}
	// The path r-a-q-s is copied and modified; p and b are shared.
	va, vb := v.Root().Children()[0], v.Root().Children()[1]
	if vb != b || va.Children()[0] != a.Children()[0] {
		t.Fatalf("untouched subtrees were copied")
	}
	for _, n := range []*Node{v.Root(), va, va.Children()[1], points[0], points[0].Children()[0]} {
		if n.ID() != points[0].Children()[0].ID() && pre.NodeByID(n.ID()) == nil {
			t.Fatalf("copy %d lost its identity", n.ID())
		}
		if !v.Modified(n) {
			t.Fatalf("node %s on the path is not modified", n.Label())
		}
	}
	if v.Modified(vb) || v.Modified(va.Children()[0]) {
		t.Fatalf("shared subtrees reported modified")
	}
}

func TestDeleteAtSharesSiblingsAndDropsNestedPoints(t *testing.T) {
	pre := MustParse("<r><a><a><b/></a></a><c><a/><d/></c><e/></r>")
	preXML := pre.XML()
	v := pre.Fork()
	v.ClearModified()
	var l Layout
	l.Reset(v)
	v.DeleteAt(&l, pointsAt(&l, "a"))
	if pre.XML() != preXML {
		t.Fatalf("pre-state changed")
	}
	if got := v.XML(); got != "<r><c><d/></c><e/></r>" {
		t.Fatalf("new version %s", got)
	}
	e := pre.Root().Children()[2]
	d := pre.Root().Children()[1].Children()[1]
	vc := v.Root().Children()[0]
	if v.Root().Children()[1] != e || vc.Children()[0] != d {
		t.Fatalf("untouched subtrees were copied")
	}
	if !v.Modified(v.Root()) || !v.Modified(vc) || v.Modified(e) || v.Modified(d) {
		t.Fatalf("modified must be exactly the deletion parents and their ancestors")
	}
}

// TestForkShareIsolation: updates on either of two forks never show in
// the other, over random trees and point sets.
func TestForkShareIsolation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pre := Random(rng, RandomConfig{Size: rng.Intn(40) + 2, Labels: []string{"a", "b", "c"}})
		want := pre.XML()
		a, b := pre.Fork(), pre.Fork()
		var la, lb Layout
		la.Reset(a)
		a.InsertAt(&la, pointsAt(&la, "a"), MustParse("<n><m/></n>"))
		lb.Reset(b)
		at := pointsAt(&lb, "b")
		if len(at) > 0 && at[0] == 0 {
			at = at[1:] // the root cannot be deleted
		}
		b.DeleteAt(&lb, at)
		return pre.XML() == want && b.XML() == deepDelete(pre, "b") && a.XML() == deepInsert(pre, "a")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// deepInsert and deepDelete are the same updates on a deep copy with the
// in-place builders.
func deepInsert(t *Tree, label string) string {
	c := t.Clone()
	x := MustParse("<n><m/></n>")
	for _, n := range SortByID(c.Nodes()) {
		if n.label == label {
			c.Graft(n, x)
		}
	}
	return c.XML()
}

func deepDelete(t *Tree, label string) string {
	c := t.Clone()
	for _, n := range c.Nodes() {
		if n.label == label && n != c.root && c.Contains(n) {
			c.DeleteSubtree(n)
		}
	}
	return c.XML()
}

func TestNodeXMLMatchesCloneSubtree(t *testing.T) {
	tr := MustParse("<r><a><c/><b/></a><b><d/></b></r>")
	for _, n := range tr.Nodes() {
		if got, want := n.XML(), tr.CloneSubtree(n).XML(); got != want {
			t.Fatalf("Node.XML = %s, CloneSubtree XML = %s", got, want)
		}
	}
}

func TestParents(t *testing.T) {
	tr := MustParse("<r><a><c/></a><b/></r>")
	par := tr.Parents()
	a, b := tr.Root().Children()[0], tr.Root().Children()[1]
	if len(par) != 3 || par[a] != tr.Root() || par[b] != tr.Root() || par[a.Children()[0]] != a {
		t.Fatalf("parents wrong")
	}
}

func TestSameNodeSetSortedAndUnsorted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := Random(rng, RandomConfig{Size: 12, Labels: []string{"a"}})
		nodes := tr.Nodes()
		pick := func() []*Node {
			var out []*Node
			for i := rng.Intn(8); i > 0; i-- {
				out = append(out, nodes[rng.Intn(len(nodes))])
			}
			return out
		}
		a, b := pick(), pick()
		if rng.Intn(2) == 0 {
			b = append(slices.Clone(a), a...) // same set with duplicates
		}
		want := sameNodeSetUnsorted(a, b)
		return SameNodeSet(a, b) == want &&
			SameNodeSet(SortByID(slices.Clone(a)), SortByID(slices.Clone(b))) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSameNodeSetSortedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime adds allocations")
	}
	tr := Random(rand.New(rand.NewSource(5)), RandomConfig{Size: 200, Labels: []string{"a"}})
	a := SortByID(tr.Nodes())
	b := slices.Clone(a)
	if n := testing.AllocsPerRun(100, func() { SameNodeSet(a, b) }); n != 0 {
		t.Fatalf("SameNodeSet on sorted inputs allocates %.0f times", n)
	}
}
