// Observe: watching the NP-case witness search work. A branching read
// pattern forces Detect into the bounded exhaustive search (Section 5 of
// the paper); attaching the telemetry channels of the observability
// facade shows the search's progress live, then prints the decision
// trace — the span tree with the method choice, the search's bounds and
// budget spend — and a counter snapshot: candidates examined,
// compiled-pattern cache traffic, minimization savings.
//
// Run with:
//
//	go run ./examples/observe
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"xmlconflict"
)

func main() {
	// A branching read (two predicates) against a delete that cannot
	// fire near it: no small witness exists, so the search has to grind
	// through its whole candidate budget — worth watching.
	read := xmlconflict.Read{P: xmlconflict.MustParseXPath("a[b][c]/d")}
	del := xmlconflict.Delete{P: xmlconflict.MustParseXPath("z/w")}

	st := xmlconflict.NewStats()
	ctx, trace := xmlconflict.StartTrace(context.Background(), "observe")
	progress := xmlconflict.NewProgressWriter(os.Stderr, 100*time.Millisecond)

	opts := xmlconflict.SearchOptions{MaxNodes: 7, MaxCandidates: 200_000}.
		WithStats(st).
		WithProgress(progress).
		WithContext(ctx)

	v, err := xmlconflict.Detect(read, del, xmlconflict.NodeSemantics, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nverdict: %s\n", v)
	fmt.Printf("candidates examined: %d\n\n", v.Candidates)
	trace.Finish()
	fmt.Println("decision trace:")
	trace.View().WriteTree(os.Stdout)
	fmt.Println()
	fmt.Println("final stats snapshot:")
	fmt.Print(st.Snapshot())
}
