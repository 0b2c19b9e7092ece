package main

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"xmlconflict/internal/core"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/program"
	"xmlconflict/internal/shard"
	"xmlconflict/internal/store"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// snapshotEvery is xserve's default -store-snapshot-every.
const snapshotEvery = 1024

// storeOptions are the shard options xserve derives from its flags for
// a workload: one shard, the default snapshot cadence, and the
// workload's fsync policy.
func storeOptions(w workload) shard.Options {
	policy := store.FsyncAlways
	if w.fsync == "never" {
		policy = store.FsyncNever
	}
	return shard.Options{
		Shards: 1,
		Store: store.Options{
			Fsync:         policy,
			SnapshotEvery: snapshotEvery,
			Metrics:       telemetry.New(),
		},
	}
}

// storeExec runs document operations on an in-process shard router,
// mapping errors onto the statuses xserve answers with.
type storeExec struct{ rt *shard.Router }

func (e *storeExec) do(ctx context.Context, _ int, r *request) *response {
	var res store.Result
	var err error
	status := 200
	switch r.kind {
	case "create":
		status = 201
		res, err = e.rt.CreateCtx(ctx, r.doc, r.xml)
	case "drop":
		res, err = e.rt.DropCtx(ctx, r.doc)
	case "get":
		info, gerr := e.rt.Get(r.doc)
		res, err = store.Result{Doc: info.Doc, LSN: info.LSN, Digest: info.Digest}, gerr
	default:
		sem, serr := parseSem(r.sem)
		if serr != nil {
			return &response{status: 400, err: serr.Error()}
		}
		res, err = e.rt.SubmitCtx(ctx, r.doc, store.Op{Kind: r.kind, Pattern: r.pattern, X: r.x, Sem: sem, BaseLSN: r.base})
	}
	if err != nil {
		out := &response{status: 400, err: err.Error()}
		var ce *store.ConflictError
		switch {
		case errors.As(err, &ce):
			out.status, out.reason, out.withLSN = 409, "conflict", ce.WithLSN
		case errors.Is(err, store.ErrNotFound):
			out.status = 404
		case errors.Is(err, store.ErrExists), errors.Is(err, store.ErrStaleBase), errors.Is(err, store.ErrFutureBase):
			out.status = 409
		}
		return out
	}
	return &response{status: status, lsn: res.LSN, digest: res.Digest, nodes: res.Nodes}
}

func parseSem(name string) (ops.Semantics, error) {
	switch name {
	case "", "node":
		return ops.NodeSemantics, nil
	case "tree":
		return ops.TreeSemantics, nil
	case "value":
		return ops.ValueSemantics, nil
	}
	return 0, fmt.Errorf("unknown semantics %q", name)
}

// Search bounds xserve applies to a detect request that names none.
const (
	serveMaxNodes      = 8
	serveMaxCandidates = 100_000
)

// parsePair builds the read, update and semantics of a pair the way
// xserve's request parser does.
func parsePair(p pair) (core.BatchItem, error) {
	rp, err := xpath.Parse(p.read)
	if err != nil {
		return core.BatchItem{}, err
	}
	up, err := xpath.Parse(p.pattern)
	if err != nil {
		return core.BatchItem{}, err
	}
	sem, err := parseSem(p.sem)
	if err != nil {
		return core.BatchItem{}, err
	}
	item := core.BatchItem{R: ops.Read{P: rp}, Sem: sem}
	if p.kind == "insert" {
		xs := p.x
		if xs == "" {
			xs = "<new/>"
		}
		x, err := xmltree.ParseString(xs)
		if err != nil {
			return core.BatchItem{}, err
		}
		item.U = ops.Insert{P: up, X: x}
	} else {
		item.U = ops.Delete{P: up}
	}
	return item, nil
}

// detectExec answers detection requests from an in-process verdict
// cache with xserve's default bounds, pool width and statistics sink.
type detectExec struct {
	cache   *core.DetectorCache
	stats   *telemetry.Metrics
	workers int
}

func newDetectExec(workers int) *detectExec {
	return &detectExec{cache: core.NewDetectorCache(0), stats: telemetry.New(), workers: workers}
}

func (e *detectExec) opts(ctx context.Context) core.SearchOptions {
	return core.SearchOptions{MaxNodes: serveMaxNodes, MaxCandidates: serveMaxCandidates, Stats: e.stats, Ctx: ctx}
}

func (e *detectExec) do(ctx context.Context, _ int, r *request) *response {
	switch r.kind {
	case "detect":
		item, err := parsePair(r.pairs[0])
		if err != nil {
			return &response{status: 400, err: err.Error()}
		}
		v, err := e.cache.Detect(item.R, item.U, item.Sem, e.opts(ctx))
		if err != nil {
			return &response{status: 422, err: err.Error()}
		}
		return &response{status: 200, verdicts: []verdict{{conflict: v.Conflict, complete: v.Complete}}}
	case "batch":
		items := make([]core.BatchItem, len(r.pairs))
		for i, p := range r.pairs {
			item, err := parsePair(p)
			if err != nil {
				return &response{status: 400, err: err.Error()}
			}
			items[i] = item
		}
		res, err := core.DetectBatchResults(items, e.opts(ctx), e.workers, e.cache)
		if err != nil {
			return &response{status: 422, err: err.Error()}
		}
		out := &response{status: 200}
		for _, b := range res {
			v := verdict{conflict: b.Verdict.Conflict, complete: b.Verdict.Complete}
			if b.Err != nil {
				v.err = b.Err.Error()
			}
			out.verdicts = append(out.verdicts, v)
		}
		return out
	case "analyze":
		// /v1/analyze passes the request's bounds, which name none.
		search := core.SearchOptions{Stats: e.stats, Ctx: ctx}
		deps, err := analyze(r.program, program.Options{Search: search, Workers: e.workers, Cache: e.cache})
		if err != nil {
			return &response{status: 422, err: err.Error()}
		}
		return &response{status: 200, deps: deps}
	}
	return &response{status: 400, err: "unknown request kind " + r.kind}
}

// analyze runs the dependence analysis and lists the dependent
// statement pairs (i < j), as /v1/analyze reports them.
func analyze(src string, opt program.Options) ([][2]int, error) {
	prog, err := program.Parse(src)
	if err != nil {
		return nil, err
	}
	a, err := program.Analyze(prog, opt)
	if err != nil {
		return nil, err
	}
	var deps [][2]int
	for i := range a.Dep {
		for j := i + 1; j < len(a.Dep); j++ {
			if a.Dep[i][j] {
				deps = append(deps, [2]int{i, j})
			}
		}
	}
	return deps, nil
}

func pairKey(p pair) string {
	return strings.Join([]string{p.read, p.kind, p.pattern, p.x, p.sem}, "\x00")
}
