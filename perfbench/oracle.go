package main

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"xmlconflict/internal/core"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/program"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// historyWindow mirrors the store's default admission window.
const historyWindow = 32

// verdictReport is what the oracle found.
type verdictReport struct {
	bad   int      // records whose answer the oracle rejected
	extra int      // failures not tied to one record
	notes []string // the first few reasons

	staleAttempts int // stale-base updates and reads sent
	rejects       int // of those, answered 409
	checks        int // admission checks (stale-base ops answered)
	entries       int // window entries after base, summed over checks

	samples layerSamples // inputs for the per-layer timings
}

func (v *verdictReport) reject(r *rec, format string, args ...any) {
	if r.bad {
		return
	}
	r.bad = true
	r.note = fmt.Sprintf(format, args...)
	v.bad++
	if len(v.notes) < 8 {
		v.notes = append(v.notes, fmt.Sprintf("%s %s %q: %s", r.req.kind, r.req.doc, r.req.pattern, r.note))
	}
}

func (v *verdictReport) merge(o *verdictReport) {
	v.bad += o.bad
	v.extra += o.extra
	for _, n := range o.notes {
		if len(v.notes) < 8 {
			v.notes = append(v.notes, n)
		}
	}
	v.staleAttempts += o.staleAttempts
	v.rejects += o.rejects
	v.checks += o.checks
	v.entries += o.entries
	v.samples.merge(o.samples)
}

// layerSamples are (operation, state) pairs drawn from the replay, on
// which the per-layer timings call the ops, match and xmltree packages.
type layerSamples struct {
	commute []commuteSample // update vs a committed update on its pre-state
	fired   []firedSample   // read vs a committed update on its pre-state
	evals   []evalSample    // a pattern on the state it was evaluated on
	trees   []*xmltree.Tree // document states
	exprs   []string        // XPath sources
}

type commuteSample struct {
	u, with ops.Update
	pre     *xmltree.Tree
}

type firedSample struct {
	r    ops.Read
	with ops.Update
	pre  *xmltree.Tree
}

type evalSample struct {
	expr string
	t    *xmltree.Tree
}

const maxSamples = 48

func (s *layerSamples) merge(o layerSamples) {
	s.commute = appendCapped(s.commute, o.commute)
	s.fired = appendCapped(s.fired, o.fired)
	s.evals = appendCapped(s.evals, o.evals)
	s.trees = appendCapped(s.trees, o.trees)
	s.exprs = appendCapped(s.exprs, o.exprs)
}

func appendCapped[T any](dst, src []T) []T {
	for _, x := range src {
		if len(dst) >= maxSamples {
			break
		}
		dst = append(dst, x)
	}
	return dst
}

// histEntry is one replayed committed update with the state it applied to.
type histEntry struct {
	lsn uint64
	upd ops.Update
	pre *xmltree.Tree
}

// replayState is the oracle's copy of one document.
type replayState struct {
	tree   *xmltree.Tree
	digest string
	lsn    uint64
	hist   []histEntry
	alive  bool
}

func buildUpdate(kind, pattern, x string) (ops.Update, error) {
	p, err := xpath.Parse(pattern)
	if err != nil {
		return nil, err
	}
	if kind == "delete" {
		return ops.Delete{P: p}, nil
	}
	if x == "" {
		x = "<new/>"
	}
	xt, err := xmltree.ParseString(x)
	if err != nil {
		return nil, err
	}
	return ops.Insert{P: p, X: xt}, nil
}

// window returns the committed entries after base, oldest first.
func (st *replayState) window(base uint64) []histEntry {
	i := sort.Search(len(st.hist), func(i int) bool { return st.hist[i].lsn > base })
	return st.hist[i:]
}

// conflicts re-runs the admission test of one operation against one
// committed entry: non-commutation for updates, the requested semantics
// firing for reads.
func conflicts(r *request, u ops.Update, rd ops.Read, e histEntry) (bool, error) {
	if r.kind == "read" {
		sem, err := parseSem(r.sem)
		if err != nil {
			return false, err
		}
		fired, err := ops.FiredSemantics(rd, e.upd, e.pre)
		if err != nil {
			return false, err
		}
		for _, f := range fired {
			if f == sem {
				return true, nil
			}
		}
		return false, nil
	}
	return ops.CommuteWitness(u, e.upd, e.pre)
}

// checkDocs replays every acknowledged document operation in LSN order
// with the public xpath/ops/xmltree functions: each 201/200 digest and
// each read's nodes must match the replay, each 409 must name an entry
// that really conflicts (with every earlier entry after its base
// commuting), and each admitted stale-base op must commute with every
// entry after its base. final holds the GET answers taken after the
// timed phases; live lists the documents xserve reported then.
func checkDocs(log [][]*rec, final []*rec, live []string, workers int) *verdictReport {
	byDoc := map[string][]*rec{}
	var order []string
	for _, l := range append(log, final) {
		for _, r := range l {
			if _, ok := byDoc[r.req.doc]; !ok {
				order = append(order, r.req.doc)
			}
			byDoc[r.req.doc] = append(byDoc[r.req.doc], r)
		}
	}
	reports := make([]*verdictReport, len(order))
	alive := make([]bool, len(order))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				reports[i], alive[i] = replayDoc(byDoc[order[i]])
			}
		}()
	}
	for i := range order {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	out := &verdictReport{}
	var want []string
	for i, rep := range reports {
		out.merge(rep)
		if alive[i] {
			want = append(want, order[i])
		}
	}
	sort.Strings(want)
	if live != nil && !slices.Equal(want, live) {
		out.extra++
		out.notes = append(out.notes, fmt.Sprintf("document list: xserve has %d docs, the replay %d", len(live), len(want)))
	}
	return out
}

// replayDoc replays one document's records (all from one connection, so
// in commit order) and reports whether the document ends alive.
func replayDoc(recs []*rec) (*verdictReport, bool) {
	rep := &verdictReport{}
	st := &replayState{}
	for _, r := range recs {
		replayOne(rep, st, r)
		if st.alive && r.phase == phaseClosed && r.req.kind != "read" {
			r.size = st.tree.Size()
		}
	}
	return rep, st.alive
}

func replayOne(rep *verdictReport, st *replayState, r *rec) {
	q, a := r.req, r.resp
	if a.status == 0 {
		return // a transport error; counted as failed already
	}
	switch q.kind {
	case "create":
		if a.status != 201 {
			rep.reject(r, "create answered %d", a.status)
			return
		}
		t, err := xmltree.ParseString(q.xml)
		if err != nil {
			rep.reject(r, "create xml: %v", err)
			return
		}
		*st = replayState{tree: t, digest: t.Digest(), lsn: a.lsn, alive: true}
		if a.digest != st.digest {
			rep.reject(r, "create digest %.12s, replay %.12s", a.digest, st.digest)
		}
		rep.samples.trees = append(rep.samples.trees, t)
		return
	case "drop":
		if a.status != 200 || !st.alive {
			rep.reject(r, "drop answered %d (alive %v)", a.status, st.alive)
		}
		st.alive = false
		return
	case "get":
		if a.status != 200 || a.digest != st.digest || a.lsn != st.lsn {
			rep.reject(r, "final state lsn %d digest %.12s, replay lsn %d digest %.12s", a.lsn, a.digest, st.lsn, st.digest)
		}
		return
	}
	if !st.alive {
		rep.reject(r, "%s on a document the replay does not hold", q.kind)
		return
	}

	var u ops.Update
	var rd ops.Read
	var err error
	if q.kind == "read" {
		p, perr := xpath.Parse(q.pattern)
		if perr != nil {
			rep.reject(r, "bad pattern: %v", perr)
			return
		}
		rd = ops.Read{P: p}
	} else if u, err = buildUpdate(q.kind, q.pattern, q.x); err != nil {
		rep.reject(r, "bad update: %v", err)
		return
	}
	if len(rep.samples.exprs) < maxSamples {
		rep.samples.exprs = append(rep.samples.exprs, q.pattern)
		rep.samples.evals = append(rep.samples.evals, evalSample{q.pattern, st.tree})
	}

	// Admission, re-checked on the replayed pre-states.
	stale := q.base > 0 && q.base < st.lsn
	var win []histEntry
	if stale {
		rep.staleAttempts++
		win = st.window(q.base)
	}
	switch a.status {
	case 409:
		rep.rejects++
		if !stale {
			rep.reject(r, "409 without a stale base (base %d, lsn %d)", q.base, st.lsn)
			return
		}
		rep.checks++
		sampleCheck(rep, q, u, rd, win)
		for i, e := range win {
			c, err := conflicts(q, u, rd, e)
			if err != nil {
				rep.reject(r, "admission replay: %v", err)
				return
			}
			if e.lsn == a.withLSN {
				rep.entries += i + 1
				if !c {
					rep.reject(r, "409 names lsn %d, which the replay finds commuting", e.lsn)
				}
				return
			}
			if c {
				rep.reject(r, "409 names lsn %d, but lsn %d after base %d already conflicts", a.withLSN, e.lsn, q.base)
				return
			}
		}
		rep.reject(r, "409 names lsn %d, not in the window after base %d", a.withLSN, q.base)
		return
	case 200:
	default:
		rep.reject(r, "answered %d: %s", a.status, a.err)
		return
	}
	if stale {
		rep.checks++
		rep.entries += len(win)
		for _, e := range win {
			c, err := conflicts(q, u, rd, e)
			if err != nil {
				rep.reject(r, "admission replay: %v", err)
				return
			}
			if c {
				rep.reject(r, "admitted, but conflicts with lsn %d after base %d", e.lsn, q.base)
				break
			}
		}
		sampleCheck(rep, q, u, rd, win)
	} else if len(st.hist) > 0 {
		sampleCheck(rep, q, u, rd, st.hist[len(st.hist)-1:])
	}

	if q.kind == "read" {
		nodes := xmltree.SortByID(rd.Eval(st.tree))
		ok := len(nodes) == len(a.nodes) && a.digest == st.digest
		for i := 0; ok && i < len(nodes); i++ {
			ok = st.tree.CloneSubtree(nodes[i]).XML() == a.nodes[i]
		}
		if !ok {
			rep.reject(r, "read answer differs from the replayed state")
		}
		return
	}
	next := st.tree.Clone()
	next.ClearModified()
	if _, err := u.Apply(next); err != nil {
		rep.reject(r, "apply: %v", err)
		return
	}
	digest := next.Digest()
	if a.digest != digest || a.lsn <= st.lsn {
		rep.reject(r, "commit lsn %d digest %.12s, replay lsn >%d digest %.12s", a.lsn, a.digest, st.lsn, digest)
	}
	st.hist = append(st.hist, histEntry{lsn: a.lsn, upd: u, pre: st.tree})
	if len(st.hist) > historyWindow {
		st.hist = st.hist[1:]
	}
	st.tree, st.digest, st.lsn = next, digest, a.lsn
	if len(rep.samples.trees) < maxSamples && len(st.hist)%16 == 0 {
		rep.samples.trees = append(rep.samples.trees, next)
	}
}

// sampleCheck keeps the first entry of an admission check as a layer
// timing input.
func sampleCheck(rep *verdictReport, q *request, u ops.Update, rd ops.Read, win []histEntry) {
	if len(win) == 0 {
		return
	}
	e := win[0]
	if q.kind == "read" {
		if len(rep.samples.fired) < maxSamples {
			rep.samples.fired = append(rep.samples.fired, firedSample{rd, e.upd, e.pre})
		}
	} else if len(rep.samples.commute) < maxSamples {
		rep.samples.commute = append(rep.samples.commute, commuteSample{u, e.upd, e.pre})
	}
}

// checkDetect compares every distinct pair's served verdicts with each
// other and with a fresh in-process core.Detect under xserve's bounds,
// which must be complete; every distinct program's served dependences
// must equal an in-process program.Analyze.
func checkDetect(recs []*rec, workers int) *verdictReport {
	type served struct {
		p    pair
		v    verdict
		recs []*rec
	}
	pairs := map[string]*served{}
	var keys []string
	progs := map[string][]*rec{}
	var srcs []string
	rep := &verdictReport{}
	for _, r := range recs {
		if r.resp.status != 200 {
			continue
		}
		if r.req.kind == "analyze" {
			if _, ok := progs[r.req.program]; !ok {
				srcs = append(srcs, r.req.program)
			}
			progs[r.req.program] = append(progs[r.req.program], r)
			continue
		}
		if len(r.resp.verdicts) != len(r.req.pairs) {
			rep.reject(r, "%d verdicts for %d pairs", len(r.resp.verdicts), len(r.req.pairs))
			continue
		}
		for i, p := range r.req.pairs {
			v := r.resp.verdicts[i]
			if v.err != "" || !v.complete {
				rep.reject(r, "pair %d: complete=%v error %q", i, v.complete, v.err)
				continue
			}
			k := pairKey(p)
			s, ok := pairs[k]
			if !ok {
				s = &served{p: p, v: v}
				pairs[k] = s
				keys = append(keys, k)
			} else if s.v.conflict != v.conflict {
				rep.reject(r, "pair %q answered both ways", p.read)
			}
			s.recs = append(s.recs, r)
		}
	}

	type finding struct {
		recs []*rec
		msg  string
	}
	found := make([]*finding, len(keys)+len(srcs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if i < len(keys) {
					s := pairs[keys[i]]
					item, err := parsePair(s.p)
					if err != nil {
						found[i] = &finding{s.recs, err.Error()}
						continue
					}
					v, err := core.Detect(item.R, item.U, item.Sem, core.SearchOptions{MaxNodes: serveMaxNodes, MaxCandidates: serveMaxCandidates})
					switch {
					case err != nil:
						found[i] = &finding{s.recs, err.Error()}
					case !v.Complete || v.Conflict != s.v.conflict:
						found[i] = &finding{s.recs, fmt.Sprintf("served conflict=%v, core conflict=%v complete=%v", s.v.conflict, v.Conflict, v.Complete)}
					}
					continue
				}
				src := srcs[i-len(keys)]
				want, err := analyze(src, program.Options{})
				if err != nil {
					found[i] = &finding{progs[src], err.Error()}
					continue
				}
				for _, r := range progs[src] {
					if !slices.Equal(r.resp.deps, want) {
						found[i] = &finding{progs[src], fmt.Sprintf("served dependences %v, analysis %v", r.resp.deps, want)}
						break
					}
				}
			}
		}()
	}
	for i := range found {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, f := range found {
		if f == nil {
			continue
		}
		for _, r := range f.recs {
			rep.reject(r, "%s", f.msg)
		}
	}
	for _, k := range keys {
		if len(rep.samples.exprs) >= maxSamples {
			break
		}
		rep.samples.exprs = append(rep.samples.exprs, pairs[k].p.read, pairs[k].p.pattern)
	}
	return rep
}
