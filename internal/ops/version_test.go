package ops

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"testing/quick"

	"xmlconflict/internal/generate"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// preState records everything an update could disturb in a version: its
// serialization, digest, and every node's identity, label, modified
// status and children, pointer for pointer.
type preState struct {
	root     *xmltree.Node
	xml      string
	digest   string
	nodes    []*xmltree.Node
	ids      []int
	labels   []string
	modified []bool
	kids     [][]*xmltree.Node
}

func capture(t *xmltree.Tree) preState {
	s := preState{root: t.Root(), xml: t.XML(), digest: t.Digest()}
	t.Walk(func(n *xmltree.Node) bool {
		s.nodes = append(s.nodes, n)
		s.ids = append(s.ids, n.ID())
		s.labels = append(s.labels, n.Label())
		s.modified = append(s.modified, t.Modified(n))
		s.kids = append(s.kids, slices.Clone(n.Children()))
		return true
	})
	return s
}

func (s preState) same(o preState) bool {
	return s.root == o.root && s.xml == o.xml && s.digest == o.digest &&
		slices.Equal(s.nodes, o.nodes) && slices.Equal(s.ids, o.ids) &&
		slices.Equal(s.labels, o.labels) && slices.Equal(s.modified, o.modified) &&
		slices.EqualFunc(s.kids, o.kids, slices.Equal[[]*xmltree.Node])
}

// TestImmutabilityOfPreState: no update path writes the version it
// starts from — Apply on a fork, ApplyCopy, CommuteWitness,
// FiredSemantics and Checker.Witness all leave the pre-state's XML,
// digest, node identities and node pointers exactly as they were.
func TestImmutabilityOfPreState(t *testing.T) {
	f := func(seed int64, clear bool) bool {
		rng := rand.New(rand.NewSource(seed))
		doc, r, u := randomCase(rng)
		_, _, u2 := randomCase(rng)
		if clear {
			doc.ClearModified()
		}
		want := capture(doc)
		steps := []struct {
			name string
			run  func()
		}{
			{"Apply", func() { u.Apply(doc.Fork()) }},
			{"ApplyCopy", func() { ApplyCopy(u, doc) }},
			{"CommuteWitness", func() { CommuteWitness(u, u2, doc) }},
			{"FiredSemantics", func() { FiredSemantics(r, u, doc) }},
			{"Checker.Witness", func() {
				for _, sem := range []Semantics{NodeSemantics, TreeSemantics, ValueSemantics} {
					NewChecker(sem, r, u, nil, nil).Witness(doc)
				}
			}},
		}
		for _, st := range steps {
			st.run()
			if !capture(doc).same(want) {
				t.Logf("seed %d: %s wrote the pre-state (%s %s)", seed, st.name, u.Kind(), u.Pattern())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// bytesPerRun is the average heap allocation of fn, on one P with the
// collector off so the evaluator's pooled scratch is reused every run.
func bytesPerRun(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / float64(runs)
}

// TestApplyPathCopyAllocs: an insert under and a delete below the root of
// a 1000-book inventory cost the copied root (its children slice) plus
// the change, not the document, and every <book> subtree stays
// pointer-shared with the pre-state.
func TestApplyPathCopyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime adds allocations")
	}
	pre := generate.Inventory(rand.New(rand.NewSource(1)), 1000, 0.2)
	ins := Insert{P: xpath.MustParse("/inventory"), X: xmltree.MustParse("<nb><k/><title/></nb>")}
	del := Delete{P: xpath.MustParse("/inventory/nb")}
	mid := pre.Fork()
	if points, _ := ins.Apply(mid); len(points) != 1 {
		t.Fatalf("insert points = %d", len(points))
	}
	const budget = 16 << 10
	if b := bytesPerRun(50, func() { ins.Apply(pre.Fork()) }); b > budget {
		t.Errorf("insert at /inventory allocates %.0f B, budget %d", b, budget)
	}
	if b := bytesPerRun(50, func() { del.Apply(mid.Fork()) }); b > budget {
		t.Errorf("delete at /inventory/nb allocates %.0f B, budget %d", b, budget)
	}

	after := mid.Fork()
	if points, _ := del.Apply(after); len(points) != 1 {
		t.Fatalf("delete points = %d", len(points))
	}
	for name, v := range map[string]*xmltree.Tree{"insert": mid, "delete": after} {
		books := 0
		for _, b := range v.Root().Children() {
			if b.Label() == "book" {
				books++
				if !slices.Contains(pre.Root().Children(), b) {
					t.Fatalf("%s: book %d was copied", name, b.ID())
				}
			}
		}
		if books != 1000 || v.Root() == pre.Root() {
			t.Fatalf("%s: %d books, root copied %v", name, books, v.Root() != pre.Root())
		}
	}
}
