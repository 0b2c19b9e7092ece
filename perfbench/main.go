// Command perfbench is the repository benchmark. It builds cmd/xserve,
// boots it as a child process per workload, drives it over HTTP with a
// seeded closed-loop and open-loop phase, checks every answer with an
// independent replay (the oracle), and prints the end-to-end metrics
// (-trace 0) or the per-layer ones from a separate in-process traced
// replay (-trace 1). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload big-doc --seed 1 --seconds 10 --trace 0
//
// -workload all runs every workload and prints both metric sets.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"xmlconflict/internal/telemetry/span"
)

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "repository root (holds cmd/xserve)")
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 16, "timed seconds per run: 2/5 open loop, 3/5 closed loop")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 adds the traced in-process replay and prints per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *seconds < 2 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds >= 2 and -trace 0 or 1")
		return 2
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := lookupWorkload(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	bin, err := buildServer(absRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	cfg := config{root: absRoot, bin: bin, seed: *seed, seconds: *seconds, setups: 11, conns: runtime.NumCPU(), trace: *trace == 1 || len(todo) > 1}
	out := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range todo {
		res, err := runWorkload(ctx, cfg, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 2
		}
		printAll(w.name, res)
		out.Correct = out.Correct && res.Correct
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		for _, m := range metricDefs {
			v, ok := res.values[m.name]
			if !ok || (len(todo) == 1 && m.e2e != (*trace == 0)) {
				continue
			}
			key := m.name
			if len(todo) > 1 {
				key = w.name + "/" + m.name
			}
			out.Metrics[key] = metricValue{Value: v, Unit: m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// config is one invocation's settings. setups is how many boots
// setup_s takes the median of; conns is nproc, one connection per CPU.
type config struct {
	root, bin       string
	seed            int64
	seconds, setups int
	conns           int
	trace           bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	values map[string]float64
	notes  []string
	table  *selfTable
	phases []string // wall time of each step of the run
}

// printAll writes every metric the run computed, the oracle's notes and
// the traced self-time table as comment lines.
func printAll(name string, r *result) {
	for _, n := range r.notes {
		fmt.Printf("# %s: %s\n", name, n)
	}
	fmt.Printf("# %s wall: %s\n", name, strings.Join(r.phases, ", "))
	if r.table != nil {
		r.table.print(os.Stdout, name)
	}
	for _, m := range metricDefs {
		if v, ok := r.values[m.name]; ok {
			kind := "layer"
			if m.e2e {
				kind = "e2e"
			}
			fmt.Printf("# %s %-5s %-34s %14.6g %s\n", name, kind, m.name, v, m.unit)
		}
	}
}

// runWorkload runs one workload: set-up, warm-up, the timed phases,
// the oracle and, with cfg.trace, the in-process replays.
func runWorkload(ctx context.Context, cfg config, w workload) (*result, error) {
	runDir := filepath.Join(cfg.root, ".bench_build", "runs", fmt.Sprintf("%s-s%d-%d", w.name, cfg.seed, os.Getpid()))
	defer os.RemoveAll(runDir)
	v := map[string]float64{}
	res := &result{Correct: true, values: v}
	mark := time.Now()
	step := func(name string) {
		res.phases = append(res.phases, fmt.Sprintf("%s %.1fs", name, time.Since(mark).Seconds()))
		mark = time.Now()
	}

	// Set-up: boot to /readyz plus population, cfg.setups times; the
	// last server is kept.
	var srv *server
	var d *runner
	var ex *httpExec
	defer func() { srv.stop() }()
	var setupS []float64
	for k := 0; k < cfg.setups; k++ {
		bootDir := filepath.Join(runDir, fmt.Sprintf("boot%d", k))
		if srv != nil {
			ex.close()
			srv.stop()
			if bad := failedSetup(d); bad != "" {
				return nil, fmt.Errorf("set-up: %s", bad)
			}
			os.RemoveAll(filepath.Join(runDir, fmt.Sprintf("boot%d", k-1)))
		}
		t0 := time.Now()
		s, err := startServer(ctx, cfg.bin, w, bootDir)
		if err != nil {
			return nil, err
		}
		srv = s
		ex = newHTTPExec(srv.base, cfg.conns)
		d = newRunner(w, cfg.seed, cfg.conns, ex)
		d.populate(ctx)
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer ex.close()
	v["setup_s"] = median(setupS)
	step("setup")

	d.warm(ctx, w.warm)
	// Write back what set-up left dirty, so the timed phases do not
	// share the disk with it.
	syscall.Sync()
	step("warm-up")
	s0, err := srv.sample()
	if err != nil {
		return nil, err
	}
	total := time.Duration(cfg.seconds) * time.Second
	if err := d.openLoop(ctx, w.rate, total*2/5, cfg.seed); err != nil {
		return nil, err
	}
	start := time.Now()
	windows := watchWindows(srv, start, total*3/5)
	closedFor := d.closedLoop(ctx, start, total*3/5)
	s1, err := srv.sample()
	if err != nil {
		return nil, err
	}
	if v["server_peak_rss_mb"], err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	var walEnd, snapEnd int64
	if srv.storeDir != "" {
		walEnd, snapEnd = storeFiles(srv.storeDir)
	}
	var finals []*rec
	var live []string
	if w.fsync != "" {
		if finals, live, err = finalState(ctx, d, ex, srv.base); err != nil {
			return nil, err
		}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	ex.close()
	srv.stop()
	step("timed")

	// Oracle.
	workers := runtime.GOMAXPROCS(0)
	var rep *verdictReport
	if w.fsync != "" {
		rep = checkDocs(d.log, finals, live, workers)
	} else {
		rep = checkDetect(d.records(phaseWarm, phaseOpen, phaseClosed), workers)
	}
	res.notes = append(res.notes, rep.notes...)
	step("oracle")

	timedRecs := d.records(phaseOpen, phaseClosed)
	res.Attempted = len(timedRecs)
	for _, r := range d.records(phaseSetup, phaseWarm, phaseOpen, phaseClosed) {
		if r.failed() {
			res.Failed++
		}
	}
	for _, r := range finals {
		if r.bad {
			res.Failed++
		}
	}
	res.Failed += rep.extra

	openMetrics(v, d.records(phaseOpen))
	closed := d.records(phaseClosed)
	closedMetrics(v, closed, windows())
	stationarity(v, closed, closedFor)
	serverMetrics(v, s0, s1, len(timedRecs))
	storeMetrics(v, s0, s1, walEnd, snapEnd, len(timedRecs))
	v["store.admit.entries_per_check"] = ratio(float64(rep.entries), float64(rep.checks))
	v["store.admit.reject_share"] = ratio(float64(rep.rejects), float64(rep.staleAttempts))

	if cfg.trace {
		if err := traceMetrics(cfg, w, d, rep, res, filepath.Join(runDir, "inproc")); err != nil {
			return nil, err
		}
		step("traced replay")
	}
	v["failed_share"] = ratio(float64(res.Failed), float64(res.Attempted))
	if drift := v["closed.half_ratio"] - 1; drift > stationBound || drift < -stationBound {
		res.notes = append(res.notes, fmt.Sprintf("stationarity: closed-loop second/first half throughput %.3f", v["closed.half_ratio"]))
	}
	if drift := v["docs.size_drift"]; drift > stationBound || drift < -stationBound {
		res.notes = append(res.notes, fmt.Sprintf("stationarity: doc size drift %.3f between closed-loop halves", drift))
		res.Correct = false
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

// stationBound is how far the closed loop's halves may drift apart
// before the run is flagged: the largest bound of BENCHMARK.json.
// A document-size drift beyond it fails the run, since the workloads
// keep their documents bounded by construction; a throughput drift is
// reported only, since interference from outside the benchmark can
// move one half of a run that much.
const stationBound = 0.25

// failedSetup reports a failed population request of an earlier boot.
func failedSetup(d *runner) string {
	for _, r := range d.records(phaseSetup) {
		if r.failed() {
			return fmt.Sprintf("%s %s answered %d %s", r.req.kind, r.req.doc, r.resp.status, r.resp.err)
		}
	}
	return ""
}

// finalState reads back every document the streams left alive, and
// xserve's document list, after the timed phases.
func finalState(ctx context.Context, d *runner, ex *httpExec, base string) ([]*rec, []string, error) {
	alive := map[string]int{}
	for c, l := range d.log {
		for _, r := range l {
			switch {
			case r.req.kind == "create" && r.resp.status == 201:
				alive[r.req.doc] = c
			case r.req.kind == "drop" && r.resp.status == 200:
				delete(alive, r.req.doc)
			}
		}
	}
	names := make([]string, 0, len(alive))
	for n := range alive {
		names = append(names, n)
	}
	sort.Strings(names)
	var finals []*rec
	for _, n := range names {
		r := &request{kind: "get", doc: n}
		finals = append(finals, &rec{conn: alive[n], phase: phaseFinal, req: r, resp: ex.do(ctx, alive[n], r)})
	}
	var list struct {
		Docs []struct {
			Doc string `json:"doc"`
		} `json:"docs"`
	}
	if err := getJSON(base+"/v1/docs", &list); err != nil {
		return nil, nil, err
	}
	live := []string{}
	for _, e := range list.Docs {
		live = append(live, e.Doc)
	}
	return finals, live, nil
}

// openMetrics computes the open-loop latency metrics, each from the
// request's due time.
func openMetrics(v map[string]float64, recs []*rec) {
	var all, commit, reject, read, cold, late, service []float64
	for _, r := range recs {
		l := ms(r.latency())
		all = append(all, l)
		late = append(late, ms(r.sent-r.due))
		service = append(service, ms(r.done-r.sent))
		switch {
		case r.resp.status == 409:
			reject = append(reject, l)
		case r.failed():
		case r.req.kind == "read":
			read = append(read, l)
		case r.req.kind == "create" || r.req.kind == "insert" || r.req.kind == "delete" || r.req.kind == "drop":
			commit = append(commit, l)
		case r.req.cold:
			cold = append(cold, l)
		}
	}
	v["p50_ms"] = windowP50(recs)
	v["p99_ms"] = quantile(all, 0.99)
	v["commit_p50_ms"] = quantile(commit, 0.5)
	v["commit_p99_ms"] = quantile(commit, 0.99)
	v["reject_p50_ms"] = quantile(reject, 0.5)
	v["read_p50_ms"] = quantile(read, 0.5)
	v["cold_p50_ms"] = quantile(cold, 0.5)
	v["gen.lateness_p50_ms"] = quantile(late, 0.5)
	v["gen.lateness_p99_ms"] = quantile(late, 0.99)
	v["open.service_p50_ms"] = quantile(service, 0.5)
	v["open.ops"] = float64(len(recs))
}

// tick is one reading taken at a closed-loop window boundary.
type tick struct{ steal, cpu int64 }

// watchWindows reads the host's stolen CPU ticks and xserve's CPU ticks
// at start and at every whole second after it within dur. The returned
// function waits for the last reading.
func watchWindows(srv *server, start time.Time, dur time.Duration) func() []tick {
	n := int(dur / time.Second)
	read := func() tick {
		cpu, _ := srv.cpuTicks()
		return tick{steal: stealTicks(), cpu: cpu}
	}
	out := []tick{read()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= n; i++ {
			sleep(time.Until(start.Add(time.Duration(i) * time.Second)))
			out = append(out, read())
		}
	}()
	return func() []tick {
		<-done
		return out
	}
}

// closedMetrics derives throughput and server CPU per op from the
// closed loop's one-second windows. Only the half of the windows (rounded
// up) in which the hypervisor stole the least CPU count: on a shared
// host, other guests' load slows every request while it lasts, and
// choosing windows by steal, never by their own speed, keeps that out
// of the result. throughput_ops_s is the median completion count of
// those windows; server_cpu_ms_per_op is their CPU over their
// completions.
func closedMetrics(v map[string]float64, recs []*rec, ticks []tick) {
	n := len(ticks) - 1
	if n < 1 {
		return
	}
	ops := make([]float64, n)
	for _, r := range recs {
		if i := int(r.done / time.Second); i < n {
			ops[i]++
		}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	steal := func(i int) int64 { return ticks[i+1].steal - ticks[i].steal }
	sort.SliceStable(idx, func(a, b int) bool { return steal(idx[a]) < steal(idx[b]) })
	quiet := idx[:(n+1)/2]
	var counts []float64
	var cpu, done float64
	for _, i := range quiet {
		counts = append(counts, ops[i])
		cpu += float64(ticks[i+1].cpu - ticks[i].cpu)
		done += ops[i]
	}
	v["throughput_ops_s"] = median(counts)
	v["server_cpu_ms_per_op"] = ratio(cpu*1000/clockTicks, done)
	v["host.steal_share"] = float64(ticks[n].steal-ticks[0].steal) / float64(clockTicks*n*runtime.NumCPU())
}

// windowP50 is the median over the open loop's one-second windows
// (by due time) of each window's median latency.
func windowP50(recs []*rec) float64 {
	byWin := map[int][]float64{}
	for _, r := range recs {
		w := int(r.due / time.Second)
		byWin[w] = append(byWin[w], ms(r.latency()))
	}
	var p50s []float64
	for _, xs := range byWin {
		p50s = append(p50s, median(xs))
	}
	return median(p50s)
}

// stationarity compares the closed loop's two halves: completions per
// half, and the mean size of the documents the updates left behind.
func stationarity(v map[string]float64, recs []*rec, dur time.Duration) {
	var n [2]float64
	var size [2][]float64
	for _, r := range recs {
		h := 0
		if r.done >= dur/2 {
			h = 1
		}
		n[h]++
		if r.size > 0 {
			size[h] = append(size[h], float64(r.size))
		}
	}
	v["closed.half_ratio"] = ratio(n[1], n[0])
	if len(size[0]) > 0 && len(size[1]) > 0 {
		v["docs.size_drift"] = mean(size[1])/mean(size[0]) - 1
	} else {
		v["docs.size_drift"] = 0
	}
}

// serverMetrics turns two resource samples of xserve into per-op costs.
func serverMetrics(v map[string]float64, s0, s1 sample, ops int) {
	n := float64(ops)
	v["server.cpu_ms_per_op_all"] = float64(s1.cpuTicks-s0.cpuTicks) * 1000 / clockTicks / n
	v["server_alloc_kb_per_op"] = float64(s1.mem.TotalAlloc-s0.mem.TotalAlloc) / 1024 / n
	v["server.mallocs_per_op"] = float64(s1.mem.Mallocs-s0.mem.Mallocs) / n
	v["server.gc_per_kop"] = float64(s1.mem.NumGC-s0.mem.NumGC) * 1000 / n
	v["server.gc_pause_us_per_op"] = float64(s1.mem.PauseTotalNs-s0.mem.PauseTotalNs) / 1000 / n
	v["server.heap_inuse_mb"] = float64(s1.mem.HeapInuse) / (1 << 20)
}

// storeMetrics derives the snapshot cadence and the bytes written per
// committed record, both 0 without a store. Bytes per record are the
// WAL's mean frame size (its bytes over the records appended since the
// last truncation) plus each snapshot's size spread over the records
// of the phases.
func storeMetrics(v map[string]float64, s0, s1 sample, walEnd, snapEnd int64, ops int) {
	const appends, snaps = "xmlconflict_store_appends", "xmlconflict_store_snapshots"
	dApp := s1.metrics[appends] - s0.metrics[appends]
	dSnap := s1.metrics[snaps] - s0.metrics[snaps]
	v["store.snapshots_per_kop"] = dSnap * 1000 / float64(ops)
	since := int64(s1.metrics[appends]) % snapshotEvery
	frame := ratio(float64(walEnd), float64(since))
	v["store.bytes_per_commit"] = frame + ratio(dSnap*float64(snapEnd), dApp)
}

// traceMetrics replays the run in process twice, untraced and traced,
// checks that both reproduce the HTTP run's outcomes, and derives the
// per-layer metrics.
func traceMetrics(cfg config, w workload, d *runner, rep *verdictReport, res *result, dir string) error {
	v := res.values
	open := d.counts(phaseOpen)
	plain, err := replayInProcess(w, cfg.seed, cfg.conns, w.warm, open, filepath.Join(dir, "plain"), false)
	if err != nil {
		return err
	}
	traced, err := replayInProcess(w, cfg.seed, cfg.conns, w.warm, open, filepath.Join(dir, "traced"), true)
	if err != nil {
		return err
	}
	for _, r := range []*replayResult{plain, traced} {
		if diff := sameOutcomes(d, r.d); diff > 0 {
			res.Failed += diff
			res.notes = append(res.notes, fmt.Sprintf("in-process replay: %d outcomes differ from the HTTP run", diff))
		}
	}

	// xserve overhead: client-observed p50 service time minus the
	// in-process p50 call time, per op kind, weighted by count. Batch
	// and analyze fan out wider in xserve than in the replay, so they
	// are left out.
	byKind := map[string][]float64{}
	for _, r := range d.records(phaseOpen) {
		byKind[r.req.kind] = append(byKind[r.req.kind], us(r.done-r.sent))
	}
	var over, weight float64
	for k, xs := range byKind {
		if k == "batch" || k == "analyze" || len(plain.perOp[k]) == 0 {
			continue
		}
		over += (median(xs) - median(plain.perOp[k])) * float64(len(xs))
		weight += float64(len(xs))
	}
	v["xserve.overhead_us"] = ratio(over, weight)

	t := buildSelfTable(traced.traces)
	res.table = t
	for _, n := range storeRows {
		v["store."+n+".p50_us"] = quantile(t.each["store."+n], 0.5)
		v["store."+n+".p99_us"] = quantile(t.each["store."+n], 0.99)
	}
	var plainAll, tracedAll []float64
	for _, xs := range plain.perOp {
		plainAll = append(plainAll, xs...)
	}
	for _, xs := range traced.perOp {
		tracedAll = append(tracedAll, xs...)
	}
	v["trace.per_op_us"] = ratio(t.total, float64(t.ops))
	v["trace.unspanned_share"] = ratio(t.rows["bench.call"]+t.rows["store.update.unspanned"], t.total)
	v["trace.overhead_pct"] = 100 * (mean(tracedAll)/mean(plainAll) - 1)
	v["store.snapshot_ms"] = median(traced.snapMs)

	// Core and program rows: only detection workloads produce them.
	h, m := plain.cache[0], plain.cache[1]
	v["core.cache_hit_share"] = ratio(float64(h), float64(h+m))
	var linear []float64
	for _, tr := range traced.traces {
		collectLinear(tr.View().Root, &linear)
	}
	v["core.detect_linear_us"] = mean(linear)
	v["core.search_us"] = mean(t.dur["search"])
	v["core.batch_us"] = mean(traced.perOp["batch"])
	v["program.analyze_us"] = mean(traced.perOp["analyze"])

	lt := span.New("bench.layers")
	for k, x := range layerTimings(rep.samples, lt) {
		v[k] = x
	}
	lt.Finish()
	path := filepath.Join(cfg.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	return writeTraces(path, append(traced.traces, lt))
}

// storeRows are the store spans (and the unspanned remainder of
// store.update) whose self-time quantiles are per-layer metrics.
var storeRows = []string{"admit", "apply", "wal.append", "fsync", "read", "create", "drop", "update.unspanned"}

// collectLinear gathers the durations of detect spans that decided a
// linear read (no bounded search beneath them).
func collectLinear(v span.SpanView, out *[]float64) {
	if v.Name == "detect" {
		searched := false
		for _, k := range v.Children {
			searched = searched || strings.HasPrefix(k.Name, "search")
		}
		if !searched {
			*out = append(*out, float64(v.DurationUs))
		}
	}
	for _, k := range v.Children {
		collectLinear(k, out)
	}
}
