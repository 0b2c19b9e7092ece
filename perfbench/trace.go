package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"xmlconflict/internal/match"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/shard"
	"xmlconflict/internal/telemetry/span"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// replayResult is one in-process replay of a run's seeded sequence.
type replayResult struct {
	d      *runner
	perOp  map[string][]float64 // op kind -> µs per open-phase op
	traces []*span.Trace        // traced mode: one per open-phase op
	cache  [2]int64             // detector cache hits, misses (detect-mix)
	snapMs []float64            // timed Snapshot calls on the end state
}

// replayInProcess replays the run's set-up, warm-up and open-loop
// sequence against shard.Open (or a DetectorCache for detect-mix) with
// the options xserve derives from its flags. Operations run one at a
// time, connection by connection in turn, and batch/analyze fan out on
// one worker so a trace's spans never overlap. With traced set, every
// open-loop operation carries a span.Trace whose root wraps the public
// call.
func replayInProcess(w workload, seed int64, conns, warm int, open []int, dir string, traced bool) (*replayResult, error) {
	var ex executor
	var rt *shard.Router
	var dex *detectExec
	if w.fsync != "" {
		var err error
		if rt, err = shard.Open(dir, storeOptions(w)); err != nil {
			return nil, err
		}
		defer rt.Close()
		ex = &storeExec{rt: rt}
	} else {
		dex = newDetectExec(1)
		ex = dex
	}
	d := newRunner(w, seed, conns, ex)
	bg := context.Background()
	d.populate(bg)
	start := time.Now()
	for i := 0; i < warm; i++ {
		for c := 0; c < conns; c++ {
			d.exec(bg, c, phaseWarm, d.streams[c].next(), start, 0)
		}
	}
	res := &replayResult{d: d, perOp: map[string][]float64{}}
	most := 0
	for _, n := range open {
		most = max(most, n)
	}
	for i := 0; i < most; i++ {
		for c := 0; c < conns; c++ {
			if i >= open[c] {
				continue
			}
			ctx := bg
			var tr *span.Trace
			r := d.streams[c].next()
			if traced {
				tr = span.New("bench.op")
				tr.Root().Set("kind", r.kind)
				ctx = span.Context(bg, tr.Root())
			}
			e := d.exec(ctx, c, phaseOpen, r, start, 0)
			tr.Finish()
			if tr != nil {
				res.traces = append(res.traces, tr)
			}
			res.perOp[r.kind] = append(res.perOp[r.kind], us(e.done-e.sent))
		}
	}
	if dex != nil {
		h, m := dex.cache.Counts()
		res.cache = [2]int64{h, m}
	}
	if rt != nil && traced {
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := rt.SnapshotAll(); err != nil {
				return nil, err
			}
			res.snapMs = append(res.snapMs, ms(time.Since(t0)))
		}
	}
	return res, nil
}

// outcome is the part of an answer that must repeat exactly for a
// fixed seed: the status and, for detection, the verdicts.
func outcome(r *rec) string {
	s := fmt.Sprint(r.resp.status)
	for _, v := range r.resp.verdicts {
		s += fmt.Sprintf(" %v", v.conflict)
	}
	return s
}

// sameOutcomes compares the warm-up and open-loop outcome sequences of
// two runs connection by connection and returns how many differ.
func sameOutcomes(a, b *runner) int {
	diff := 0
	for c := range a.log {
		var x, y []string
		for _, r := range a.log[c] {
			if r.phase == phaseWarm || r.phase == phaseOpen {
				x = append(x, outcome(r))
			}
		}
		for _, r := range b.log[c] {
			if r.phase == phaseWarm || r.phase == phaseOpen {
				y = append(y, outcome(r))
			}
		}
		for i := 0; i < max(len(x), len(y)); i++ {
			if i >= len(x) || i >= len(y) || x[i] != y[i] {
				diff++
			}
		}
	}
	return diff
}

// selfTable attributes every traced operation's time to span names by
// self time: a span's duration minus its children's. The root's own
// remainder is the "bench.call" row and a store.update's is
// "store.update.unspanned", so the rows sum to the traced total.
type selfTable struct {
	ops   int
	total float64              // µs, summed root durations
	rows  map[string]float64   // µs, summed self times
	each  map[string][]float64 // µs, self time per span occurrence
	dur   map[string][]float64 // µs, duration per span occurrence
}

func buildSelfTable(traces []*span.Trace) *selfTable {
	t := &selfTable{rows: map[string]float64{}, each: map[string][]float64{}, dur: map[string][]float64{}}
	var walk func(v span.SpanView)
	walk = func(v span.SpanView) {
		self := v.DurationUs
		for _, k := range v.Children {
			self -= k.DurationUs
			walk(k)
		}
		name := rowName(v.Name)
		t.rows[name] += float64(self)
		t.each[name] = append(t.each[name], float64(self))
		t.dur[v.Name] = append(t.dur[v.Name], float64(v.DurationUs))
	}
	for _, tr := range traces {
		v := tr.View()
		t.ops++
		t.total += float64(v.Root.DurationUs)
		walk(v.Root)
	}
	return t
}

func rowName(span string) string {
	switch span {
	case "bench.op":
		return "bench.call"
	case "store.update":
		return "store.update.unspanned"
	}
	return span
}

// print writes the table: per-op self time by row, largest first, and
// the total the rows sum to.
func (t *selfTable) print(w io.Writer, workload string) {
	names := make([]string, 0, len(t.rows))
	for n := range t.rows {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return t.rows[names[i]] > t.rows[names[j]] })
	fmt.Fprintf(w, "# %s: traced self time per op (%d ops)\n", workload, t.ops)
	var sum float64
	for _, n := range names {
		sum += t.rows[n]
		fmt.Fprintf(w, "#   %-26s %10.2f us  %5.1f%%\n", n, t.rows[n]/float64(t.ops), 100*ratio(t.rows[n], t.total))
	}
	fmt.Fprintf(w, "#   %-26s %10.2f us  (rows sum to %.2f us)\n", "total", t.total/float64(t.ops), sum/float64(t.ops))
}

// writeTraces writes every trace as one JSON line.
func writeTraces(path string, traces []*span.Trace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, tr := range traces {
		if err := enc.Encode(tr.View()); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// timed measures f over a sample set: the median µs per call across
// the samples and the mean allocations per call. Each sample's call
// repeats until it has run for at least 200µs, and runs under a bench
// span so the layer timings appear in the written traces.
func timed(tr *span.Trace, name string, n int, f func(i int)) (usPerCall, allocs float64) {
	if n == 0 {
		return 0, 0
	}
	sp := tr.Root().Child(name)
	defer sp.End()
	var per []float64
	var ms0, ms1 runtime.MemStats
	calls := 0
	runtime.ReadMemStats(&ms0)
	for i := 0; i < n; i++ {
		reps := 0
		t0 := time.Now()
		for reps == 0 || time.Since(t0) < 200*time.Microsecond {
			f(i)
			reps++
		}
		per = append(per, us(time.Since(t0))/float64(reps))
		calls += reps
	}
	runtime.ReadMemStats(&ms1)
	sp.Set("samples", n)
	return median(per), float64(ms1.Mallocs-ms0.Mallocs) / float64(calls)
}

// layerTimings calls the ops, match, xmltree and xpath packages on the
// samples the oracle drew from its replay.
func layerTimings(s layerSamples, tr *span.Trace) map[string]float64 {
	out := map[string]float64{}
	put := func(name string, v, a float64) {
		out[name+"_us"] = v
		out[name+"_allocs"] = a
	}
	v, a := timed(tr, "ops.commute_witness", len(s.commute), func(i int) {
		c := s.commute[i]
		ops.CommuteWitness(c.u, c.with, c.pre)
	})
	put("ops.commute_witness", v, a)
	v, a = timed(tr, "ops.fired_semantics", len(s.fired), func(i int) {
		f := s.fired[i]
		ops.FiredSemantics(f.r, f.with, f.pre)
	})
	put("ops.fired_semantics", v, a)
	v, a = timed(tr, "ops.apply", len(s.commute), func(i int) {
		c := s.commute[i]
		ops.ApplyCopy(c.u, c.pre)
	})
	put("ops.apply", v, a)

	evals := s.evals
	pats := make([]*patternEval, 0, len(evals))
	for _, e := range evals {
		if p, err := xpath.Parse(e.expr); err == nil {
			pats = append(pats, &patternEval{p: p, ev: match.Compile(p), t: e.t})
		}
	}
	v, a = timed(tr, "match.eval", len(pats), func(i int) { match.Eval(pats[i].p, pats[i].t) })
	put("match.eval", v, a)
	v, a = timed(tr, "match.compiled_eval", len(pats), func(i int) { pats[i].ev.Eval(pats[i].t) })
	put("match.compiled_eval", v, a)

	xmls := make([]string, len(s.trees))
	for i, t := range s.trees {
		xmls[i] = t.XML()
	}
	out["xmltree.clone_us"], _ = timed(tr, "xmltree.clone", len(s.trees), func(i int) { s.trees[i].Clone() })
	out["xmltree.digest_us"], _ = timed(tr, "xmltree.digest", len(s.trees), func(i int) { s.trees[i].Digest() })
	out["xmltree.xml_us"], _ = timed(tr, "xmltree.xml", len(s.trees), func(i int) { s.trees[i].XML() })
	out["xmltree.parse_us"], _ = timed(tr, "xmltree.parse", len(xmls), func(i int) { xmltree.ParseString(xmls[i]) })
	out["xpath.parse_us"], _ = timed(tr, "xpath.parse", len(s.exprs), func(i int) { xpath.Parse(s.exprs[i]) })
	return out
}

type patternEval struct {
	p  *pattern.Pattern
	ev *match.Evaluator
	t  *xmltree.Tree
}
