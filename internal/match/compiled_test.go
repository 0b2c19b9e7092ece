package match

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"xmlconflict/internal/pattern"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// randomPair draws a small random pattern and tree from the seeds.
func randomPair(pseed, tseed int64, psize, tsize uint8, maxP, maxT int) (*pattern.Pattern, *xmltree.Tree) {
	prng := rand.New(rand.NewSource(pseed))
	trng := rand.New(rand.NewSource(tseed))
	p := pattern.Random(prng, pattern.RandomConfig{
		Size: int(psize)%maxP + 1, Labels: []string{"a", "b", "c"},
		PWildcard: 0.3, PDescendant: 0.4, PBranch: 0.5,
	})
	tr := xmltree.Random(trng, xmltree.RandomConfig{
		Size: int(tsize)%maxT + 1, Labels: []string{"a", "b", "c"},
	})
	return p, tr
}

func TestCompiledEvalMatchesReference(t *testing.T) {
	// The production (compiled) engine against the test-only map engine,
	// on trees too large for the naive enumerator.
	f := func(pseed, tseed int64, psize, tsize uint8) bool {
		p, tr := randomPair(pseed, tseed, psize, tsize, 8, 40)
		want := refEval(p, tr)
		if !xmltree.SameNodeSet(Eval(p, tr), want) || !xmltree.SameNodeSet(Compile(p).Eval(tr), want) {
			t.Logf("p=%s t=%s", p, tr)
			return false
		}
		return Embeds(p, tr) == refEmbeds(p, tr) && Compile(p).Embeds(tr) == refEmbeds(p, tr) &&
			EmbedsAnywhere(p, tr) == refEmbedsAnywhere(p, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestEntryPointsMatchBothOracles(t *testing.T) {
	// Every production entry point against the map engine and the naive
	// enumerator. FindEmbeddingAt must return a valid embedding with the
	// right output image exactly for the result nodes, and pick the same
	// embedding as the reference tables would.
	f := func(pseed, tseed int64, psize, tsize uint8) bool {
		p, tr := randomPair(pseed, tseed, psize, tsize, 6, 12)
		got, naive := Eval(p, tr), EvalNaive(p, tr)
		if !xmltree.SameNodeSet(got, naive) || !xmltree.SameNodeSet(got, refEval(p, tr)) {
			t.Logf("Eval: p=%s t=%s", p, tr)
			return false
		}
		if Embeds(p, tr) != (len(naive) > 0) || Embeds(p, tr) != refEmbeds(p, tr) {
			t.Logf("Embeds: p=%s t=%s", p, tr)
			return false
		}
		inResult := map[*xmltree.Node]bool{}
		for _, n := range naive {
			inResult[n] = true
		}
		anywhere := false
		for _, n := range tr.Nodes() {
			// Naively, p embeds at n iff it embeds into n's subtree.
			at := len(EvalNaive(p, tr.CloneSubtree(n))) > 0
			anywhere = anywhere || at
			if EmbedsAt(p, tr, n) != at || at != refEmbedsAt(p, tr, n) {
				t.Logf("EmbedsAt: p=%s t=%s n=%d", p, tr, n.ID())
				return false
			}
			e := FindEmbeddingAt(p, tr, n)
			if inResult[n] != (e != nil) {
				t.Logf("FindEmbeddingAt existence: p=%s t=%s n=%d", p, tr, n.ID())
				return false
			}
			if e != nil && (!e.Valid(p, tr) || e[p.Output()] != n || !sameEmbedding(e, refFindEmbeddingAt(p, tr, n))) {
				t.Logf("FindEmbeddingAt embedding: p=%s t=%s n=%d", p, tr, n.ID())
				return false
			}
		}
		if EmbedsAnywhere(p, tr) != anywhere || anywhere != refEmbedsAnywhere(p, tr) {
			t.Logf("EmbedsAnywhere: p=%s t=%s", p, tr)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func sameEmbedding(a, b Embedding) bool {
	if len(a) != len(b) {
		return false
	}
	for q, v := range a {
		if b[q] != v {
			return false
		}
	}
	return true
}

func TestEvaluatorSharedAcrossGoroutines(t *testing.T) {
	// One Evaluator, eight goroutines, each on its own tree: pooled
	// scratch must never carry state from one call into another.
	ev := Compile(xpath.MustParse("//b[c]//*"))
	p := xpath.MustParse("//b[c]//*")
	const workers = 8
	trees := make([]*xmltree.Tree, workers)
	wants := make([][]*xmltree.Node, workers)
	for i := range trees {
		trees[i] = xmltree.Random(rand.New(rand.NewSource(int64(i))), xmltree.RandomConfig{
			Size: 20 + 30*i, Labels: []string{"a", "b", "c"},
		})
		wants[i] = refEval(p, trees[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				if !xmltree.SameNodeSet(ev.Eval(trees[i]), wants[i]) || ev.Embeds(trees[i]) != (len(wants[i]) > 0) {
					errs <- fmt.Sprintf("worker %d, round %d: wrong result", i, k)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// Whatever the pool holds now must reference no tree or pattern node.
	for k := 0; k < workers; k++ {
		s := scratchPool.Get().(*scratch)
		for _, n := range s.Nodes[:cap(s.Nodes)] {
			if n != nil {
				t.Fatalf("pooled scratch retains tree node %d", n.ID())
			}
		}
		for _, q := range s.pat.pnodes[:cap(s.pat.pnodes)] {
			if q != nil {
				t.Fatalf("pooled scratch retains pattern node %s", q.Label())
			}
		}
	}
}

// bookDoc is an inventory of n books, each with a title and author, and
// a quarter of them with a price.
func bookDoc(n int) *xmltree.Tree {
	tr := xmltree.New("inventory")
	for i := 0; i < n; i++ {
		b := tr.AddChild(tr.Root(), "book")
		tr.AddChild(b, "title")
		tr.AddChild(b, "author")
		if i%4 == 0 {
			tr.AddChild(b, "price")
		}
	}
	return tr
}

func TestEvalAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool entries")
	}
	tr := bookDoc(1000)
	p := xpath.MustParse("/inventory/book[price]/title")
	ev := Compile(p)
	if got := len(Eval(p, tr)); got != 250 {
		t.Fatalf("setup: %d results, want 250", got)
	}
	for name, fn := range map[string]func(){
		"Eval":           func() { Eval(p, tr) },
		"Evaluator.Eval": func() { ev.Eval(tr) },
	} {
		if a := testing.AllocsPerRun(50, fn); a > 1 {
			t.Errorf("%s: %.0f allocs per call on a 1000-book doc, want 1 (the result slice)", name, a)
		}
	}
	for name, fn := range map[string]func(){
		"Embeds":         func() { Embeds(p, tr) },
		"EmbedsAnywhere": func() { EmbedsAnywhere(p, tr) },
		"EmbedsAt":       func() { EmbedsAt(p, tr, tr.Root()) },
	} {
		if a := testing.AllocsPerRun(50, fn); a != 0 {
			t.Errorf("%s: %.0f allocs per call, want 0", name, a)
		}
	}
}

func TestCompiledEvalKnownCases(t *testing.T) {
	p := xpath.MustParse("a[.//c]/b[d][*//f]")
	ev := Compile(p)
	tr := xmltree.MustParse("<a><b><d/><e><f/></e></b><c/></a>")
	res := ev.Eval(tr)
	if len(res) != 1 || res[0].Label() != "b" {
		t.Fatalf("Figure 2 via compiled evaluator: %v", res)
	}
	if !ev.Embeds(tr) {
		t.Fatalf("Embeds false on a matching tree")
	}
	if Compile(xpath.MustParse("//zzz")).Embeds(tr) {
		t.Fatalf("Embeds true on a non-matching pattern")
	}
}

func TestCompiledReusableAcrossTrees(t *testing.T) {
	ev := Compile(xpath.MustParse("//b[c]"))
	t1 := xmltree.MustParse("<a><b><c/></b></a>")
	t2 := xmltree.MustParse("<a><b/></a>")
	if len(ev.Eval(t1)) != 1 {
		t.Fatalf("t1 wrong")
	}
	if len(ev.Eval(t2)) != 0 {
		t.Fatalf("t2 wrong")
	}
	// And again, to catch state leakage between evaluations.
	if len(ev.Eval(t1)) != 1 {
		t.Fatalf("t1 re-eval wrong")
	}
}

func TestCompiledLargePattern(t *testing.T) {
	// More than 64 pattern nodes exercises multi-word bitset rows.
	rng := rand.New(rand.NewSource(5))
	p := pattern.Random(rng, pattern.RandomConfig{
		Size: 100, Labels: []string{"a", "b"},
		PWildcard: 0.3, PDescendant: 0.4, PBranch: 0.4,
	})
	tr := xmltree.Random(rng, xmltree.RandomConfig{Size: 200, Labels: []string{"a", "b"}})
	ev := Compile(p)
	if !xmltree.SameNodeSet(ev.Eval(tr), refEval(p, tr)) {
		t.Fatalf("multi-word bitset mismatch")
	}
	// The pattern's own model must match, output included.
	m, out := p.Model("z")
	res := ev.Eval(m)
	found := false
	for _, n := range res {
		if n == out {
			found = true
		}
	}
	if !found {
		t.Fatalf("model output not selected")
	}
}

// BenchmarkReferenceVsCompiled ablates the test-only map engine against
// the production engine on a 1000-book doc.
func BenchmarkReferenceVsCompiled(b *testing.B) {
	tr := bookDoc(1000)
	p := xpath.MustParse("/inventory/book[price]/title")
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refEval(p, tr)
		}
	})
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Eval(p, tr)
		}
	})
}
