package core

import (
	"bytes"
	"context"
	"testing"

	"xmlconflict/internal/ops"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/telemetry/span"
	"xmlconflict/internal/xpath"
)

// traced returns opts carrying the root span of a fresh trace, and a
// function finishing the trace and returning its view.
func traced(opts SearchOptions) (SearchOptions, func() span.TraceView) {
	tr := span.New("test")
	return opts.WithContext(span.Context(context.Background(), tr.Root())), func() span.TraceView {
		tr.Finish()
		return tr.View()
	}
}

// onlySpan returns the single span named name in v.
func onlySpan(t *testing.T, v span.TraceView, name string) span.SpanView {
	t.Helper()
	got := v.Root.Find(name)
	if len(got) != 1 {
		var b bytes.Buffer
		v.WriteTree(&b)
		t.Fatalf("%d %q spans, want 1:\n%s", len(got), name, b.String())
	}
	return got[0]
}

func TestSearchConflictTelemetry(t *testing.T) {
	r := ops.Read{P: xpath.MustParse("a[q]/b")}
	ins := mustInsert("a", "<b/>")
	st := telemetry.New()
	var updates []telemetry.Update
	pr := telemetry.NewProgress(func(u telemetry.Update) { updates = append(updates, u) }, 0)
	opts, view := traced(SearchOptions{MaxNodes: 4}.WithStats(st).WithProgress(pr))
	v, err := SearchConflict(r, ins, ops.NodeSemantics, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Conflict {
		t.Fatalf("want conflict: %+v", v)
	}
	snap := st.Snapshot()
	if got := snap.Counter("search.candidates"); got != int64(v.Candidates) || got == 0 {
		t.Fatalf("search.candidates = %d, verdict says %d", got, v.Candidates)
	}
	if snap.Counter("witness.checks") == 0 {
		t.Fatalf("no witness checks counted: %s", snap)
	}
	if snap.Counter("match.cache_misses") != 2 {
		t.Fatalf("want 2 compiled-pattern cache misses (read + update), got %d", snap.Counter("match.cache_misses"))
	}
	if snap.Counter("minimize.calls") != 2 {
		t.Fatalf("want 2 minimize calls (read + update), got %d", snap.Counter("minimize.calls"))
	}
	if ts, ok := snap.Timers["search.time"]; !ok || ts.Count != 1 {
		t.Fatalf("search.time timer missing or wrong: %+v", snap.Timers)
	}

	search := onlySpan(t, view(), "search")
	if search.Attrs["bound"] == nil || search.Attrs["alphabet"] == nil {
		t.Fatalf("search span missing bounds: %+v", search.Attrs)
	}
	if search.Attrs["conflict"] != true || search.Attrs["complete"] != true {
		t.Fatalf("search span outcome: %+v", search.Attrs)
	}
	if search.Attrs["candidates"] != v.Candidates {
		t.Fatalf("search span candidates %v != verdict %d", search.Attrs["candidates"], v.Candidates)
	}

	if len(updates) == 0 {
		t.Fatalf("no progress updates delivered")
	}
	last := updates[len(updates)-1]
	if !last.Final || last.Done != int64(v.Candidates) {
		t.Fatalf("final progress update wrong: %+v (want done=%d)", last, v.Candidates)
	}
}

func TestDetectTelemetryLinear(t *testing.T) {
	r := ops.Read{P: xpath.MustParse("//C")}
	ins := mustInsert("/*/B", "<C/>")
	st := telemetry.New()
	opts, view := traced(SearchOptions{}.WithStats(st))
	v, err := Detect(r, ins, ops.NodeSemantics, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Conflict || v.Method != "linear" {
		t.Fatalf("quickstart pair: %+v", v)
	}
	if v.Candidates != 0 {
		t.Fatalf("linear verdicts examine no candidates, got %d", v.Candidates)
	}
	det := onlySpan(t, view(), "detect")
	if det.Attrs["method"] != "linear" || det.Attrs["read_linear"] != true {
		t.Fatalf("detect span method choice wrong: %+v", det.Attrs)
	}
	if det.Attrs["conflict"] != true || det.Attrs["candidates"] != 0 || det.Attrs["detail"] != v.Detail {
		t.Fatalf("detect span verdict wrong: %+v", det.Attrs)
	}
	cut := false
	for _, e := range det.Events {
		if e.Name == "linear.edge" && e.Attrs["cut"] == true && e.Attrs["word_len"] != nil {
			cut = true
		}
	}
	if !cut {
		t.Fatalf("no linear.edge cut decision on the detect span: %+v", det.Events)
	}
	snap := st.Snapshot()
	if snap.Counter("detect.calls") != 1 || snap.Counter("linear.edges_checked") == 0 {
		t.Fatalf("linear counters missing: %s", snap)
	}
	if snap.Counter("automata.products") == 0 || snap.Counter("automata.product_states") == 0 {
		t.Fatalf("automata product telemetry missing: %s", snap)
	}
	if snap.Counter("linear.cut_edges") == 0 {
		t.Fatalf("conflicting pair must record a cut edge: %s", snap)
	}
}

func TestShrinkWitnessTelemetry(t *testing.T) {
	r := ops.Read{P: xpath.MustParse("//C")}
	ins := mustInsert("/*/B", "<C/>")
	v, err := Detect(r, ins, ops.NodeSemantics, SearchOptions{})
	if err != nil || !v.Conflict {
		t.Fatalf("detect: %v %+v", err, v)
	}
	// Bloat the witness so shrinking has something to do.
	w := v.Witness.Clone()
	n := w.Root()
	for i := 0; i < 10; i++ {
		n = w.AddChild(n, "pad")
	}
	st := telemetry.New()
	opts, view := traced(SearchOptions{}.WithStats(st))
	shrunk, err := ShrinkWitnessObserved(w, r, ins, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if snap.Counter("shrink.calls") != 1 {
		t.Fatalf("shrink.calls: %s", snap)
	}
	if snap.Counter("shrink.nodes_before") != int64(w.Size()) ||
		snap.Counter("shrink.nodes_after") != int64(shrunk.Size()) {
		t.Fatalf("shrink size counters wrong: %s (before=%d after=%d)", snap, w.Size(), shrunk.Size())
	}
	sh := onlySpan(t, view(), "shrink")
	if sh.Attrs["marked"] == nil || sh.Attrs["nodes_before"] != w.Size() || sh.Attrs["nodes_after"] != shrunk.Size() {
		t.Fatalf("shrink span attrs wrong: %+v (before=%d after=%d)", sh.Attrs, w.Size(), shrunk.Size())
	}
}

// TestUntracedDetectAllocations guards the untraced hot path: with
// Stats attached and no span in the context, a linear detection builds
// no decision-event attributes (an attribute-building event site would
// add one allocation per boxed field).
func TestUntracedDetectAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	r := ops.Read{P: xpath.MustParse("//C")}
	ins := mustInsert("/*/B", "<C/>")
	opts := SearchOptions{}.WithStats(telemetry.New())
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Detect(r, ins, ops.NodeSemantics, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 78 {
		t.Fatalf("untraced quickstart Detect: %.0f allocs per call, want <= 78", allocs)
	}
}
