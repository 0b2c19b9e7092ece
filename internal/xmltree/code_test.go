package xmltree

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// refCode is the nested-string AHU encoding the one-buffer coder must
// reproduce byte for byte.
func refCode(n *Node) string {
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(strings.NewReplacer(`\`, `\\`, `(`, `\(`, `)`, `\)`).Replace(n.label))
	codes := make([]string, len(n.children))
	for i, c := range n.children {
		codes[i] = refCode(c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		b.WriteString(c)
	}
	b.WriteByte(')')
	return b.String()
}

// escapingTree has labels that need escaping inside the encoding.
func escapingTree() *Tree {
	t := New(`r(1)`)
	t.AddChild(t.Root(), `x\y`)
	t.AddChild(t.Root(), `(`)
	t.AddChild(t.Root(), `)`)
	b := t.AddChild(t.Root(), `b)`)
	t.AddChild(b, `c(`)
	t.AddChild(b, `\`)
	t.AddChild(t.Root(), `a`)
	return t
}

func TestDigestGolden(t *testing.T) {
	// Digests and serializations recorded from the nested-string
	// encoder; WAL records and snapshots written by it carry these, so
	// they must never change.
	cases := []struct {
		tree   *Tree
		digest string
		xml    string
	}{
		{MustParse(`<a/>`),
			"f89bf797c3b1dda4ee48380783e5e979067686a6a9540c5a40e8d75ae5f3d199",
			`<a/>`},
		{MustParse(`<inventory><book><title/><author/></book><magazine><title/></magazine><book><title/></book><book><author/><title/></book></inventory>`),
			"40856572933adebae1135aef4693ba8d77ddf38ba1d0ab859e178c7570e6c74e",
			`<inventory><book><author/><title/></book><book><author/><title/></book><book><title/></book><magazine><title/></magazine></inventory>`},
		{MustParse(`<r><c><d/><d><e/></d></c><b/><a><z/><y><x/></y></a><c><d><e/></d><d/></c></r>`),
			"0cef3bb65e81222f969ab6af940493ee29364ddb37dfca02a73487b3bf02a228",
			`<r><a><y><x/></y><z/></a><b/><c><d><e/></d><d/></c><c><d><e/></d><d/></c></r>`},
		{escapingTree(),
			"7d81e3be30f0148cf18925e3ffc6ccf39902ec866655baad8bfae8f8fc86279a",
			`<n-ru281u29><n-u28/><n-u29/><a/><n-bu29><n-u5c/><n-cu28/></n-bu29><n-xu5cy/></n-ru281u29>`},
	}
	for i, c := range cases {
		if got := c.tree.Digest(); got != c.digest {
			t.Errorf("case %d: Digest = %s, want %s", i, got, c.digest)
		}
		if got := c.tree.XML(); got != c.xml {
			t.Errorf("case %d: XML = %s, want %s", i, got, c.xml)
		}
	}
	if got, want := Code(escapingTree().Root()), `(r\(1\)(\()(\))(a)(b\)(\\)(c\())(x\\y))`; got != want {
		t.Errorf("escaped Code = %s, want %s", got, want)
	}
}

func TestCodeMatchesNestedEncoding(t *testing.T) {
	// Random trees over labels that escape, sort near each other, and
	// prefix one another, so span comparison and reordering get tested.
	labels := []string{"a", "ab", "b", `(`, `)`, `\`, `a)`, `a(`}
	f := func(seed int64, size uint8) bool {
		tr := Random(rand.New(rand.NewSource(seed)), RandomConfig{Size: int(size)%60 + 1, Labels: labels})
		for _, n := range tr.Nodes() {
			if Code(n) != refCode(n) {
				t.Logf("node %d of %s", n.ID(), refCode(tr.Root()))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSameIsoClassesMatchesCodeSets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := Random(rng, RandomConfig{Size: 30, Labels: []string{"a", "b"}, MaxFanout: 3})
		nodes := tr.Nodes()
		pick := func() []*Node {
			var out []*Node
			for _, n := range nodes {
				if rng.Intn(3) == 0 {
					out = append(out, n)
				}
			}
			return out
		}
		a, b := pick(), pick()
		set := func(ns []*Node) map[string]bool {
			m := map[string]bool{}
			for _, n := range ns {
				m[refCode(n)] = true
			}
			return m
		}
		as, bs := set(a), set(b)
		want := len(as) == len(bs)
		for c := range as {
			want = want && bs[c]
		}
		return SameIsoClasses(a, b) == want && SameIsoClasses(a, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCoderSharedAcrossGoroutines(t *testing.T) {
	// Eight goroutines encode their own trees through the one coder
	// pool: a buffer must never carry bytes from one call into another.
	const workers = 8
	trees := make([]*Tree, workers)
	want := make([]string, workers)
	for i := range trees {
		trees[i] = Random(rand.New(rand.NewSource(int64(i))), RandomConfig{
			Size: 10 + 40*i, Labels: []string{"a", "b", `(`},
		})
		want[i] = refCode(trees[i].Root())
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			digest := trees[i].Digest()
			for k := 0; k < 200; k++ {
				if Code(trees[i].Root()) != want[i] || trees[i].Digest() != digest || !Isomorphic(trees[i], trees[i]) {
					errs <- fmt.Sprintf("worker %d, round %d: wrong encoding", i, k)
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
}

// bookDoc is an inventory of n books, inserted in non-canonical child
// order so the coder has to reorder spans.
func bookDoc(n int) *Tree {
	tr := New("inventory")
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

func TestCodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool entries")
	}
	a, b := bookDoc(1000), bookDoc(1000)
	a.Digest() // warm the pool
	books := a.Root().Children()
	for name, c := range map[string]struct {
		fn   func()
		want float64
	}{
		"Digest":         {func() { a.Digest() }, 1}, // the hex string
		"Isomorphic":     {func() { Isomorphic(a, b) }, 0},
		"SameIsoClasses": {func() { SameIsoClasses(books, books[:10]) }, 0},
	} {
		if got := testing.AllocsPerRun(20, c.fn); got > c.want {
			t.Errorf("%s on a 1000-book doc: %.0f allocs, want at most %.0f", name, got, c.want)
		}
	}
}
