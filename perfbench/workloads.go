package main

import (
	"fmt"
	"math/rand"
	"strings"

	"xmlconflict/internal/generate"
)

// request is one generated operation. Document operations resolve their
// base LSN when they are sent (see stream.next), from the outcomes of
// the same connection's earlier operations, so the whole sequence is a
// function of the seed.
type request struct {
	kind    string // create, insert, delete, read, drop, detect, batch, analyze
	doc     string
	xml     string // create
	pattern string
	x       string
	sem     string
	slot    int    // admit-window: the slot an operation targets
	lag     int    // >0: the base lags this many of the document's own commits
	base    uint64 // resolved base_lsn (0 = no admission check)
	pairs   []pair // detect (one) and batch (several)
	program string // analyze
	cold    bool   // detect: first ask of a pair from the cold population
}

// pair is one read/update detection question.
type pair struct {
	read, kind, pattern, x, sem string
}

// response is what an operation answered, from the HTTP server or from
// the in-process replay.
type response struct {
	status   int
	lsn      uint64
	digest   string
	nodes    []string
	reason   string
	withLSN  uint64
	verdicts []verdict
	deps     [][2]int
	err      string
}

type verdict struct {
	conflict, complete bool
	err                string
}

// stream generates one connection's operations. Every document belongs
// to exactly one stream, so a stream's view of its documents' LSNs is
// exact and each 200/409 outcome depends only on the seed.
type stream interface {
	// populate returns the set-up requests (document creation).
	populate() []*request
	// next returns the next operation with its base resolved.
	next() *request
	// observe feeds back the answer to a request from populate or next.
	observe(*request, *response)
}

// workload is one traffic mix with its server configuration.
type workload struct {
	name  string
	fsync string  // -store-fsync value; "" runs xserve without a store
	rate  float64 // open-loop arrivals per second, fixed once
	warm  int     // untimed warm-up operations per connection
	// newStream builds connection conn's generator.
	newStream func(seed int64, conn int) stream
}

var workloads = []workload{
	{
		name:      "admit-window",
		fsync:     "never",
		rate:      80,
		warm:      admitFill + 100,
		newStream: newAdmitStream,
	},
	{
		name:      "big-doc",
		fsync:     "never",
		rate:      100,
		warm:      60,
		newStream: newBigStream,
	},
	{
		name:      "durable-churn",
		fsync:     "always",
		rate:      1300,
		warm:      50,
		newStream: newChurnStream,
	},
	{
		name:      "detect-mix",
		rate:      1250,
		warm:      600,
		newStream: newDetectStream,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// streamSeed derives a connection's generator seed.
func streamSeed(seed int64, conn int) int64 { return seed*1_000_003 + int64(conn)*7919 + 1 }

// docState is a stream's exact view of one of its documents.
type docState struct {
	name  string
	lsns  []uint64 // LSN after creation and after every committed update
	slots []int    // <e> subtrees each slot holds
}

// baseFor resolves a lag into the LSN that many of the document's own
// commits ago (0 when the document has no older commit).
func (d *docState) baseFor(lag int) uint64 {
	if lag <= 0 {
		return 0
	}
	if lag > len(d.lsns)-1 {
		lag = len(d.lsns) - 1
	}
	return d.lsns[len(d.lsns)-1-lag]
}

// commit records an acknowledged update's outcome.
func (d *docState) commit(r *request, resp *response) {
	if resp.status != 200 || (r.kind != "insert" && r.kind != "delete") {
		return
	}
	d.lsns = append(d.lsns, resp.lsn)
	if len(d.lsns) > 64 {
		d.lsns = append(d.lsns[:0:0], d.lsns[len(d.lsns)-64:]...)
	}
}

// ---- admit-window ---------------------------------------------------

const (
	admitDocs  = 32 // documents per connection
	admitSlots = 16 // slots per document
	admitBooks = 4  // fixed <b><t/><q/></b> children per slot
	admitMaxE  = 3  // a slot never holds more <e> subtrees than this
	admitLag   = 16 // stale bases lag 1..admitLag of the doc's commits
)

type admitStream struct {
	rng    *rand.Rand
	docs   []*docState
	byDoc  map[string]*docState
	filled int // base-0 edits sent to fill the documents' histories
}

func newAdmitStream(seed int64, conn int) stream {
	s := &admitStream{rng: rand.New(rand.NewSource(streamSeed(seed, conn))), byDoc: map[string]*docState{}}
	for i := 0; i < admitDocs; i++ {
		d := &docState{name: fmt.Sprintf("a%d-%d", conn, i), slots: make([]int, admitSlots)}
		s.docs = append(s.docs, d)
		s.byDoc[d.name] = d
	}
	return s
}

// admitXML is a medium document: admitSlots slots of admitBooks small
// subtrees each, about two hundred nodes.
func admitXML() string {
	var b strings.Builder
	b.WriteString("<r>")
	for j := 0; j < admitSlots; j++ {
		fmt.Fprintf(&b, "<s%d>", j)
		for k := 0; k < admitBooks; k++ {
			b.WriteString("<b><t/><q/></b>")
		}
		fmt.Fprintf(&b, "</s%d>", j)
	}
	b.WriteString("</r>")
	return b.String()
}

func (s *admitStream) populate() []*request {
	xml := admitXML()
	out := make([]*request, len(s.docs))
	for i, d := range s.docs {
		out[i] = &request{kind: "create", doc: d.name, xml: xml}
	}
	return out
}

// admitFill is how many base-0 edits a stream sends first, round robin
// over its documents, so every document has admitLag commits to lag
// behind before the first stale-base operation: the admission window a
// check scans is then the same size from the first timed request on.
const admitFill = admitDocs * admitLag

func (s *admitStream) next() *request {
	d := s.docs[s.rng.Intn(len(s.docs))]
	if s.filled < admitFill {
		d = s.docs[s.filled%len(s.docs)]
		s.filled++
	}
	j := s.rng.Intn(admitSlots)
	r := &request{doc: d.name, slot: j}
	if len(d.lsns) <= admitLag || s.rng.Intn(4) == 0 {
		// Base-0 edit: commits unconditionally, keeps the slot bounded.
		if d.slots[j] >= admitMaxE || (d.slots[j] > 0 && s.rng.Intn(3) == 0) {
			r.kind, r.pattern = "delete", fmt.Sprintf("/r/s%d/e", j)
		} else {
			r.kind, r.pattern, r.x = "insert", fmt.Sprintf("/r/s%d", j), "<e><f/></e>"
		}
		return r
	}
	r.lag = 1 + s.rng.Intn(admitLag)
	r.base = d.baseFor(r.lag)
	switch s.rng.Intn(3) {
	case 0:
		if d.slots[j] >= admitMaxE {
			r.kind, r.pattern = "delete", fmt.Sprintf("/r/s%d/e", j)
		} else {
			r.kind, r.pattern, r.x = "insert", fmt.Sprintf("//s%d[b]", j), "<e><f/></e>"
		}
	case 1:
		r.kind, r.pattern = "delete", fmt.Sprintf("/r/s%d/e", j)
	default:
		r.kind, r.sem = "read", "node"
		if s.rng.Intn(2) == 0 {
			r.pattern = fmt.Sprintf("/r/s%d/e", j)
		} else {
			r.pattern = fmt.Sprintf("//s%d[e]/b/t", j)
		}
	}
	return r
}

func (s *admitStream) observe(r *request, resp *response) {
	d := s.byDoc[r.doc]
	if r.kind == "create" {
		if resp.status == 201 {
			d.lsns = []uint64{resp.lsn}
		}
		return
	}
	if resp.status == 200 {
		switch r.kind {
		case "insert":
			d.slots[r.slot]++
		case "delete":
			d.slots[r.slot] = 0
		}
	}
	d.commit(r, resp)
}

// ---- big-doc --------------------------------------------------------

const (
	bigBooks = 1000 // books per document: about four thousand nodes
	bigMaxNB = 3    // small <nb> subtrees the root holds at most
)

type bigStream struct {
	rng  *rand.Rand
	seed int64
	doc  string
	nb   int // <nb> subtrees the document holds
}

func newBigStream(seed int64, conn int) stream {
	return &bigStream{
		rng:  rand.New(rand.NewSource(streamSeed(seed, conn))),
		seed: streamSeed(seed, conn),
		doc:  fmt.Sprintf("b%d", conn),
	}
}

func (s *bigStream) populate() []*request {
	t := generate.Inventory(rand.New(rand.NewSource(s.seed^0x5eed)), bigBooks, 0.2)
	return []*request{{kind: "create", doc: s.doc, xml: t.XML()}}
}

func (s *bigStream) next() *request {
	r := &request{doc: s.doc}
	switch {
	case s.rng.Float64() < 0.3:
		r.kind, r.pattern = "read", "/inventory/nb"
	case s.nb >= bigMaxNB || (s.nb > 0 && s.rng.Intn(3) == 0):
		r.kind, r.pattern = "delete", "/inventory/nb"
	default:
		r.kind, r.pattern, r.x = "insert", "/inventory", fmt.Sprintf("<nb><k%d/><title/></nb>", s.rng.Intn(8))
	}
	return r
}

func (s *bigStream) observe(r *request, resp *response) {
	if resp.status != 200 {
		return
	}
	switch r.kind {
	case "insert":
		s.nb++
	case "delete":
		s.nb = 0
	}
}

// ---- durable-churn --------------------------------------------------

// churnSteps is one document lifecycle: create, three inserts chained
// on the LSN each previous step returned, drop.
var churnSteps = []struct{ kind, pattern, x string }{
	{"create", "", ""},
	{"insert", "/r/a", "<i/>"},
	{"insert", "/r/b", "<j><k/></j>"},
	{"insert", "/r/a/i", "<m/>"},
	{"drop", "", ""},
}

type churnStream struct {
	conn, n, step int
	last          uint64
}

func newChurnStream(_ int64, conn int) stream { return &churnStream{conn: conn} }

func (s *churnStream) populate() []*request { return nil }

func (s *churnStream) next() *request {
	st := churnSteps[s.step]
	r := &request{kind: st.kind, doc: fmt.Sprintf("c%d-%d", s.conn, s.n), pattern: st.pattern, x: st.x}
	switch st.kind {
	case "create":
		r.xml = "<r><a/><b/></r>"
	case "insert":
		r.base = s.last
	}
	return r
}

func (s *churnStream) observe(r *request, resp *response) {
	if resp.status != 200 && resp.status != 201 {
		return // the oracle counts it; the lifecycle retries the step
	}
	s.last = resp.lsn
	s.step++
	if s.step == len(churnSteps) {
		s.step = 0
		s.n++
	}
}

// ---- detect-mix -----------------------------------------------------

const (
	detectHot      = 512     // hot pairs: well inside the 4096-entry verdict cache
	detectCold     = 1 << 22 // cold population: far larger than the cache
	detectPrograms = 16      // distinct analyze programs
	detectBatch    = 8       // pairs per batch
)

// pairTemplates are the detection questions, parameterised by a label
// prefix. Linear reads take the §4 PTIME path; branching reads take the
// bounded witness search, and every branching template conflicts, so
// the search stops at a witness after a few hundred candidates and the
// verdict is complete.
var pairTemplates = []pair{
	// Linear reads.
	{"//%[1]sa/%[1]sb", "insert", "/%[1]sr/%[1]sa", "<%[1]sb/>", "node"},
	{"/%[1]sr//%[1]sc", "delete", "//%[1]sa/%[1]sb", "", "node"},
	{"//%[1]sa//%[1]sb", "insert", "//%[1]sc", "<%[1]sd/>", "tree"},
	{"/%[1]sr/*/%[1]sb", "delete", "/%[1]sr/%[1]sa", "", "value"},
	{"/%[1]sr//%[1]sa/%[1]sb", "insert", "/%[1]sr/%[1]sa", "<%[1]sb><%[1]sc/></%[1]sb>", "node"},
	// Branching reads, each conflicting.
	{"%[1]sa[%[1]sq]/%[1]sb", "insert", "%[1]sa", "<%[1]sb/>", "node"},
	{"//%[1]sa[%[1]sb]/%[1]sc", "insert", "//%[1]sa", "<%[1]sc/>", "node"},
	{"//%[1]sa[%[1]sb]/%[1]sc", "delete", "//%[1]sa/%[1]sb", "", "node"},
}

func makePair(prefix string, t int) pair {
	tp := pairTemplates[t%len(pairTemplates)]
	p := pair{
		read: fmt.Sprintf(tp.read, prefix), kind: tp.kind,
		pattern: fmt.Sprintf(tp.pattern, prefix), sem: tp.sem,
	}
	if tp.x != "" {
		p.x = fmt.Sprintf(tp.x, prefix)
	}
	return p
}

func hotPair(i int) pair  { return makePair(fmt.Sprintf("h%d", i), i) }
func coldPair(i int) pair { return makePair(fmt.Sprintf("c%d", i), i) }

// programSrc builds the i-th analyze program: two documents, linear reads
// and updates whose dependences the analysis decides pairwise.
func programSrc(i int) string {
	p := fmt.Sprintf("p%d", i)
	return fmt.Sprintf("x = doc <%[1]sr><%[1]sa/><%[1]sb/></%[1]sr>\n"+
		"y = read $x//%[1]sa\n"+
		"insert $x/%[1]sr/%[1]sb, <%[1]sa/>\n"+
		"z = read $x/%[1]sr/%[1]sb\n"+
		"delete $x//%[1]sc\n"+
		"w = read $x/*/%[1]sa\n"+
		"insert $x//%[1]sa, <%[1]sd/>\n", p)
}

type detectStream struct {
	rng  *rand.Rand
	seen map[int]bool // cold pairs this stream already asked
}

func newDetectStream(seed int64, conn int) stream {
	return &detectStream{rng: rand.New(rand.NewSource(streamSeed(seed, conn))), seen: map[int]bool{}}
}

func (s *detectStream) populate() []*request { return nil }

// draw picks one pair: 70% from the hot set, 30% from the cold one.
func (s *detectStream) draw() (pair, bool) {
	if s.rng.Intn(10) < 7 {
		return hotPair(s.rng.Intn(detectHot)), false
	}
	i := s.rng.Intn(detectCold)
	first := !s.seen[i]
	s.seen[i] = true
	return coldPair(i), first
}

func (s *detectStream) next() *request {
	switch x := s.rng.Intn(100); {
	case x < 4:
		return &request{kind: "analyze", program: programSrc(s.rng.Intn(detectPrograms))}
	case x < 12:
		r := &request{kind: "batch"}
		for i := 0; i < detectBatch; i++ {
			p, _ := s.draw()
			r.pairs = append(r.pairs, p)
		}
		return r
	default:
		p, first := s.draw()
		return &request{kind: "detect", pairs: []pair{p}, cold: first}
	}
}

func (s *detectStream) observe(*request, *response) {}
