package program

import (
	"fmt"
	"strings"
	"sync"

	"xmlconflict/internal/core"
	"xmlconflict/internal/faultinject"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/xmltree"
)

// Analysis holds the pairwise dependence relation of a program: Dep[i][j]
// (i < j) reports that statements i and j may not be reordered past one
// another.
type Analysis struct {
	Prog *Program
	// Dep[i][j] for i < j: a data dependence exists between statements i
	// and j.
	Dep [][]bool
	// Reason[i][j] explains the dependence verdict.
	Reason [][]string
	// Sem is the conflict semantics used for read/update pairs.
	Sem ops.Semantics
}

// Options configures the dependence analysis.
type Options struct {
	// Sem is the conflict semantics for read/update dependences. The
	// paper's default (and XQuery/XJ's) is node semantics; a compiler that
	// re-uses whole subtree values wants tree or value semantics.
	Sem ops.Semantics
	// Search bounds the fallback witness search used for branching read
	// patterns and update/update pairs. Search.Ctx, when set, cancels the
	// whole analysis.
	Search core.SearchOptions
	// Workers fans the pairwise dependence loop over a worker pool of this
	// size; 0 or 1 analyzes sequentially. The result is identical either
	// way — verdicts are gathered by pair index, and on failure the error
	// is the one the sequential sweep would have hit first.
	Workers int
	// Cache, when non-nil, memoizes detection verdicts (and compiled
	// patterns) across pairs — and across Analyze calls sharing the cache.
	// Programs repeat patterns, so the O(N²) loop hits it heavily. A
	// parallel analysis with a nil Cache gets a private one for the call.
	Cache *core.DetectorCache
}

// detect and independent return opt's detectors, memoized when a cache
// is configured.
func (opt Options) detect() core.DetectFunc {
	if opt.Cache != nil {
		return opt.Cache.Detect
	}
	return core.Detect
}

func (opt Options) independent() func(ops.Update, ops.Update, core.SearchOptions) (bool, string, error) {
	if opt.Cache != nil {
		return opt.Cache.UpdatesIndependent
	}
	return core.UpdatesIndependent
}

// Analyze computes the dependence relation. Read/read pairs never depend.
// Read/update pairs are decided by the conflict detector: exactly
// (Section 4) when the read is linear, and by bounded search otherwise —
// an inconclusive search is treated conservatively as a dependence.
// Update/update pairs are decided conservatively: they are independent
// only if neither update's pattern can observe the other's effect (both
// cross-checks conflict-free, each update's pattern read-checked against
// the other update).
func Analyze(p *Program, opt Options) (*Analysis, error) {
	n := len(p.Stmts)
	a := &Analysis{Prog: p, Sem: opt.Sem}
	a.Dep = make([][]bool, n)
	a.Reason = make([][]string, n)
	for i := range a.Dep {
		a.Dep[i] = make([]bool, n)
		a.Reason[i] = make([]string, n)
	}
	search := opt.Search
	if search.MaxNodes == 0 {
		search.MaxNodes = 6
	}
	if search.MaxCandidates == 0 {
		search.MaxCandidates = 200_000
	}
	if opt.Workers > 1 && opt.Cache == nil {
		// Workers sharing a cache is the whole point of the fan-out:
		// repeated patterns are decided once instead of once per worker.
		opt.Cache = core.NewDetectorCache(0)
	}

	type pair struct{ i, j int }
	pairs := make([]pair, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	type verdict struct {
		dep    bool
		reason string
		err    error
	}
	results := make([]verdict, len(pairs))

	workers := opt.Workers
	if workers > len(pairs) {
		workers = len(pairs)
	}
	if workers <= 1 {
		for k, pr := range pairs {
			if search.Ctx != nil && search.Ctx.Err() != nil {
				return nil, fmt.Errorf("program: analysis canceled: %w", search.Ctx.Err())
			}
			dep, reason, err := depends(p.Stmts[pr.i], p.Stmts[pr.j], opt, search)
			if err != nil {
				return nil, fmt.Errorf("statements %d and %d: %w", p.Stmts[pr.i].Line, p.Stmts[pr.j].Line, err)
			}
			results[k] = verdict{dep: dep, reason: reason}
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range jobs {
					pr := pairs[k]
					dep, reason, err := depends(p.Stmts[pr.i], p.Stmts[pr.j], opt, search)
					results[k] = verdict{dep: dep, reason: reason, err: err}
				}
			}()
		}
		for k := range pairs {
			if search.Ctx != nil && search.Ctx.Err() != nil {
				break
			}
			jobs <- k
		}
		close(jobs)
		wg.Wait()
		if search.Ctx != nil && search.Ctx.Err() != nil {
			return nil, fmt.Errorf("program: analysis canceled: %w", search.Ctx.Err())
		}
	}
	// Gather by pair index: the lowest-indexed failure is the one the
	// sequential loop would have returned, so errors are deterministic too.
	for k, res := range results {
		if res.err != nil {
			pr := pairs[k]
			return nil, fmt.Errorf("statements %d and %d: %w", p.Stmts[pr.i].Line, p.Stmts[pr.j].Line, res.err)
		}
		a.Dep[pairs[k].i][pairs[k].j] = res.dep
		a.Reason[pairs[k].i][pairs[k].j] = res.reason
	}
	return a, nil
}

// depends decides whether two statements (in program order) depend. A
// panic in the decision procedures is contained here, at the pair
// boundary, so one pathological pair fails the analysis with a typed
// error instead of crashing the worker pool (and, under Workers > 1,
// instead of leaking pool goroutines).
func depends(s1, s2 Stmt, opt Options, search core.SearchOptions) (dep bool, reason string, err error) {
	defer core.ContainPanic("analyze.pair", search.Stats, &err)
	if ferr := faultinject.Fire("program.analyze.pair"); ferr != nil {
		return false, "", fmt.Errorf("program: analyze pair: %w", ferr)
	}
	return dependsOn(s1, s2, opt, search)
}

// dependsOn is the uncontained decision body of depends.
func dependsOn(s1, s2 Stmt, opt Options, search core.SearchOptions) (bool, string, error) {
	sem := opt.Sem
	// Aliases touch no document: they depend only on their source read
	// (and on anything redefining their own variable, which the language
	// does not allow).
	if s1.Kind == KindAlias || s2.Kind == KindAlias {
		al, other := s1, s2
		if s2.Kind == KindAlias {
			al, other = s2, s1
		}
		if other.Var != "" && (other.Var == al.AliasOf || other.Var == al.Var) {
			return true, "definition of " + other.Var, nil
		}
		return false, "aliases do not touch documents", nil
	}
	// A doc binding is a definition every later use depends on.
	if s1.Kind == KindDoc {
		if s2.Doc == s1.Var {
			return true, "definition of $" + s1.Var, nil
		}
		return false, "different documents", nil
	}
	if s2.Kind == KindDoc {
		return false, "later definition", nil
	}
	if s1.Doc != s2.Doc {
		return false, "different documents", nil
	}
	isRead := func(s Stmt) bool { return s.Kind == KindRead }
	isUpd := func(s Stmt) bool { return s.Kind == KindInsert || s.Kind == KindDelete }
	switch {
	case isRead(s1) && isRead(s2):
		return false, "reads never conflict", nil
	case isRead(s1) && isUpd(s2), isUpd(s1) && isRead(s2):
		r, u := s1, s2
		if isUpd(s1) {
			r, u = s2, s1
		}
		v, err := opt.detect()(ops.Read{P: r.Pattern}, toUpdate(u), sem, search)
		if err != nil {
			return false, "", err
		}
		if v.Conflict {
			return true, v.Detail, nil
		}
		if !v.Complete {
			// NP-complete territory (branching read) with an inconclusive
			// search: stay conservative. The verdict's machine-readable
			// reason says which budget ended the search.
			if v.Reason != "" {
				return true, "assumed (incomplete search: " + v.Reason + ")", nil
			}
			return true, "assumed (incomplete search)", nil
		}
		return false, "proved conflict-free", nil
	default:
		return updatePairDepends(s1, s2, opt, search)
	}
}

// updatePairDepends decides update/update dependence via the Section 6
// machinery in core: the pair is independent when core.UpdatesIndependent
// proves the updates commute on every tree (a sound sufficient
// condition); anything unproven is a dependence.
func updatePairDepends(s1, s2 Stmt, opt Options, search core.SearchOptions) (bool, string, error) {
	ok, reason, err := opt.independent()(toUpdate(s1), toUpdate(s2), search)
	if err != nil {
		return false, "", err
	}
	return !ok, reason, nil
}

func toUpdate(s Stmt) ops.Update {
	if s.Kind == KindInsert {
		return ops.Insert{P: s.Pattern, X: s.XML}
	}
	return ops.Delete{P: s.Pattern}
}

// CanSwap reports whether adjacent-order statements i and j (indexes into
// the program, i < j) can be legally reordered: no dependence between them
// and none with any statement in between.
func (a *Analysis) CanSwap(i, j int) bool {
	if i > j {
		i, j = j, i
	}
	for k := i; k <= j; k++ {
		for l := k + 1; l <= j; l++ {
			if (k == i || l == j) && a.Dep[k][l] {
				return false
			}
		}
	}
	return true
}

// HoistableReads returns the indexes of read statements that can be moved
// before the nearest preceding update of the same document — the paper's
// code-motion opportunity (Section 1).
func (a *Analysis) HoistableReads() []int {
	var out []int
	for j, s := range a.Prog.Stmts {
		if s.Kind != KindRead {
			continue
		}
		for i := j - 1; i >= 0; i-- {
			prev := a.Prog.Stmts[i]
			if prev.Doc != s.Doc {
				continue
			}
			if prev.Kind == KindInsert || prev.Kind == KindDelete {
				if !a.Dep[i][j] {
					out = append(out, j)
				}
				break
			}
			if prev.Kind == KindDoc {
				break
			}
		}
	}
	return out
}

// RedundantReads returns pairs (i, j) of statement indexes where read j
// repeats read i (same document, equal pattern) with no conflicting update
// in between, so a compiler may replace j with i's result (common
// subexpression elimination, Section 1).
func (a *Analysis) RedundantReads() [][2]int {
	var out [][2]int
	for j, s := range a.Prog.Stmts {
		if s.Kind != KindRead {
			continue
		}
		for i := j - 1; i >= 0; i-- {
			prev := a.Prog.Stmts[i]
			if prev.Kind != KindRead || prev.Doc != s.Doc || !pattern.Equal(prev.Pattern, s.Pattern) {
				continue
			}
			clean := true
			for k := i + 1; k < j; k++ {
				mid := a.Prog.Stmts[k]
				if (mid.Kind == KindInsert || mid.Kind == KindDelete) && mid.Doc == s.Doc && a.Dep[k][j] {
					clean = false
					break
				}
			}
			if clean {
				out = append(out, [2]int{i, j})
				break
			}
		}
	}
	return out
}

// Report renders a human-readable dependence report.
func (a *Analysis) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dependence analysis (%s semantics)\n", a.Sem)
	for i, s := range a.Prog.Stmts {
		fmt.Fprintf(&b, "  [%d] %s\n", i, s.Src)
	}
	b.WriteString("dependences:\n")
	any := false
	for i := range a.Dep {
		for j := i + 1; j < len(a.Dep); j++ {
			if a.Dep[i][j] {
				any = true
				fmt.Fprintf(&b, "  [%d] ↔ [%d]: %s\n", i, j, a.Reason[i][j])
			}
		}
	}
	if !any {
		b.WriteString("  none\n")
	}
	if h := a.HoistableReads(); len(h) > 0 {
		fmt.Fprintf(&b, "hoistable reads: %v\n", h)
	}
	if r := a.RedundantReads(); len(r) > 0 {
		for _, pr := range r {
			fmt.Fprintf(&b, "redundant read: [%d] repeats [%d]\n", pr[1], pr[0])
		}
	}
	return b.String()
}

// Run executes the program: doc statements bind trees, updates mutate them
// in place, reads record their results. It returns the final documents and
// the read results by variable name.
func (p *Program) Run() (map[string]*xmltree.Tree, map[string][]*xmltree.Node, error) {
	docs := map[string]*xmltree.Tree{}
	reads := map[string][]*xmltree.Node{}
	for _, s := range p.Stmts {
		switch s.Kind {
		case KindDoc:
			docs[s.Var] = s.XML.Clone()
		case KindRead:
			reads[s.Var] = ops.Read{P: s.Pattern}.Eval(docs[s.Doc])
		case KindAlias:
			reads[s.Var] = reads[s.AliasOf]
		case KindInsert:
			if _, err := (ops.Insert{P: s.Pattern, X: s.XML}).Apply(docs[s.Doc]); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", s, err)
			}
		case KindDelete:
			if _, err := (ops.Delete{P: s.Pattern}).Apply(docs[s.Doc]); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", s, err)
			}
		}
	}
	return docs, reads, nil
}
