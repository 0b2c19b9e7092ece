package store

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"xmlconflict/internal/ops"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// TestConcurrentReadsSeeTheirVersion: reads evaluate and serialize off
// the store lock while base-0 updates commit new versions of the same
// document. Every read must equal evaluating its pattern on the version
// at the LSN it reports (run it under -race: versions share nodes).
func TestConcurrentReadsSeeTheirVersion(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Fsync: FsyncNever})
	const initial = "<r><a/></r>"
	mustCreate(t, s, "d", initial)

	type commit struct {
		lsn uint64
		op  Op
	}
	const writers, readers, perWriter = 2, 3, 40
	var (
		mu      sync.Mutex
		commits []commit
		reads   []Result
		wg      sync.WaitGroup
		done    = make(chan struct{})
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				op := Op{Kind: "insert", Pattern: "/r", X: fmt.Sprintf("<w%d><i%d/></w%d>", w, i, w)}
				if i%4 == 3 {
					op = Op{Kind: "delete", Pattern: fmt.Sprintf("/r/w%d", w)}
				}
				res, err := s.Submit("d", op)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				mu.Lock()
				commits = append(commits, commit{res.LSN, op})
				mu.Unlock()
			}
		}(w)
	}
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := s.Submit("d", Op{Kind: "read", Pattern: "/r/*"})
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				mu.Lock()
				reads = append(reads, res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(done)
	rwg.Wait()

	// Replay the commits in LSN order and record each version's answer.
	slices.SortFunc(commits, func(a, b commit) int { return int(a.lsn) - int(b.lsn) })
	read := ops.Read{P: xpath.MustParse("/r/*")}
	tree := xmltree.MustParse(initial)
	type answer struct {
		digest string
		nodes  []string
	}
	answerOf := func(t *xmltree.Tree) answer {
		a := answer{digest: t.Digest()}
		for _, n := range read.Eval(t) {
			a.nodes = append(a.nodes, n.XML())
		}
		return a
	}
	want := map[uint64]answer{1: answerOf(tree)}
	for _, c := range commits {
		u, _, err := s.parseUpdate(c.op)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := u.Apply(tree); err != nil {
			t.Fatal(err)
		}
		want[c.lsn] = answerOf(tree)
	}
	if len(reads) == 0 {
		t.Fatal("no reads ran")
	}
	for _, r := range reads {
		w, ok := want[r.LSN]
		if !ok {
			t.Fatalf("read reports lsn %d, which no commit produced", r.LSN)
		}
		if r.Digest != w.digest || !slices.Equal(r.Nodes, w.nodes) {
			t.Fatalf("read at lsn %d: got %v (%.12s), version has %v (%.12s)", r.LSN, r.Nodes, r.Digest, w.nodes, w.digest)
		}
	}
}
