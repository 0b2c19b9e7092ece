package core

import (
	"context"
	"testing"

	"xmlconflict/internal/ops"
	"xmlconflict/internal/telemetry/span"
	"xmlconflict/internal/xpath"
)

func TestDetectSpanTree(t *testing.T) {
	tr := span.New("test")
	opts := SearchOptions{
		MaxNodes:      5,
		MaxCandidates: 20_000,
		Ctx:           span.Context(context.Background(), tr.Root()),
	}
	// A branching read forces the NP search path, so the tree must show
	// detect -> search with bounds and budget spend.
	r := ops.Read{P: xpath.MustParse("a[c][d]/b")}
	u := ops.Delete{P: xpath.MustParse("a/b")}
	if _, err := Detect(r, u, ops.NodeSemantics, opts); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	v := tr.View()

	det := v.Root.Find("detect")
	if len(det) != 1 {
		t.Fatalf("detect spans = %d, want 1", len(det))
	}
	if det[0].Attrs["method"] != "search" || det[0].Open {
		t.Fatalf("detect span = %+v", det[0])
	}
	srch := v.Root.Find("search")
	if len(srch) != 1 {
		t.Fatalf("search spans = %d, want 1", len(srch))
	}
	s := srch[0]
	for _, key := range []string{"bound", "max_nodes", "max_candidates", "candidates", "complete"} {
		if _, ok := s.Attrs[key]; !ok {
			t.Fatalf("search span missing %q: %+v", key, s.Attrs)
		}
	}
	// And the search must be nested under the detect span.
	if got := det[0].Find("search"); len(got) != 1 {
		t.Fatal("search span is not a descendant of the detect span")
	}
}

func TestCacheSpanDispositions(t *testing.T) {
	c := NewDetectorCache(0)
	tr := span.New("test")
	opts := SearchOptions{
		MaxNodes:      5,
		MaxCandidates: 20_000,
		Ctx:           span.Context(context.Background(), tr.Root()),
	}
	p := cachePairs()[0]
	for round := 0; round < 2; round++ {
		if _, err := c.Detect(p.R, p.U, p.Sem, opts); err != nil {
			t.Fatal(err)
		}
	}
	tr.Finish()
	spans := tr.View().Root.Find("detect.cached")
	if len(spans) != 2 {
		t.Fatalf("detect.cached spans = %d, want 2", len(spans))
	}
	if d := spans[0].Attrs["disposition"]; d != "miss" {
		t.Fatalf("first disposition = %v, want miss", d)
	}
	if d := spans[1].Attrs["disposition"]; d != "hit" {
		t.Fatalf("second disposition = %v, want hit", d)
	}
	// The miss wraps the actual computation: detect nests under it.
	if got := spans[0].Find("detect"); len(got) != 1 {
		t.Fatal("leading computation's detect span not nested under the cache span")
	}
	if got := spans[1].Find("detect"); len(got) != 0 {
		t.Fatal("cache hit must not recompute")
	}
}

func TestBatchSpans(t *testing.T) {
	tr := span.New("test")
	opts := SearchOptions{
		MaxNodes:      5,
		MaxCandidates: 20_000,
		Ctx:           span.Context(context.Background(), tr.Root()),
	}
	items := cachePairs()
	if _, err := DetectBatchResults(items, opts, 2, nil); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	root := tr.View().Root
	b := root.Find("batch")
	if len(b) != 1 {
		t.Fatalf("batch spans = %d, want 1", len(b))
	}
	if b[0].Attrs["items"] != len(items) {
		t.Fatalf("batch items attr = %v", b[0].Attrs["items"])
	}
	if got := b[0].Find("batch.item"); len(got) != len(items) {
		t.Fatalf("batch.item spans = %d, want %d", len(got), len(items))
	}
}

func TestUntracedDetectMakesNoSpans(t *testing.T) {
	// The benchmark-relevant invariant: no span in the context (or no
	// context at all) must leave detection span-free and allocation-free
	// on the span side.
	p := cachePairs()[0]
	opts := SearchOptions{MaxNodes: 5, MaxCandidates: 20_000}
	if _, err := Detect(p.R, p.U, p.Sem, opts); err != nil {
		t.Fatal(err)
	}
	opts.Ctx = context.Background()
	if _, err := Detect(p.R, p.U, p.Sem, opts); err != nil {
		t.Fatal(err)
	}
}
