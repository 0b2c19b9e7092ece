package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"
)

// Outcome classes a completed operation lands in; these are the
// report's count buckets.
const (
	ClassOK       = "ok"       // 2xx
	ClassConflict = "conflict" // 409 (detector admission rejection, stale base, exists)
	ClassShed     = "shed"     // 503 (pool saturated, draining, store closed) or 429 (tenant quota)
	ClassTimeout  = "timeout"  // per-request budget exhausted client-side
	ClassError    = "error"    // transport failure or any other status
)

// Client is the harness's HTTP side: preflight probes, request
// execution, and post-run trace resolution. With more than one target
// (a replicated cluster) it fans out: all traffic goes to the current
// preferred node, and a transport failure or a replication refusal
// (no-primary, stale-replica, fenced) rotates the preference to the
// next node — the same retry a production client of the cluster runs.
type Client struct {
	bases []string
	cur   atomic.Int32
	hc    *http.Client
}

// NewFanoutClient builds a client over a cluster of targets.
func NewFanoutClient(targets []string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	bases := make([]string, 0, len(targets))
	for _, t := range targets {
		bases = append(bases, strings.TrimRight(t, "/"))
	}
	return &Client{
		bases: bases,
		hc: &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				// The open-loop harness holds up to Concurrency sockets to
				// one host; the default per-host idle cap (2) would force a
				// fresh TCP handshake onto most requests and measure the
				// dialer instead of the server.
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 256,
				IdleConnTimeout:     30 * time.Second,
			},
		},
	}
}

// Target returns the base URL the client currently prefers.
func (c *Client) Target() string { return c.bases[c.cur.Load()] }

// Targets returns every base URL the client fans out over.
func (c *Client) Targets() []string { return append([]string(nil), c.bases...) }

// pick returns the preferred base and its index (for rotate).
func (c *Client) pick() (string, int32) {
	i := c.cur.Load()
	return c.bases[i], i
}

// rotate moves the preference past the target at index i. The CAS means
// concurrent workers failing against the same node rotate it once, not
// once each — otherwise a burst of failures would spin the preference
// all the way around and back onto the dead node.
func (c *Client) rotate(i int32) {
	if len(c.bases) > 1 {
		c.cur.CompareAndSwap(i, (i+1)%int32(len(c.bases)))
	}
}

// RotateTarget advances the fan-out preference to the next node. The
// failover audit uses it when a read SUCCEEDS but serves a view that is
// missing acknowledged writes — a backup inside its staleness bound yet
// behind the primary's log — to walk the preference onto a node holding
// the authoritative state.
func (c *Client) RotateTarget() {
	c.rotate(c.cur.Load())
}

// replRefusal reports whether a shed note names a replication-topology
// condition another node of the cluster might not be in.
func replRefusal(note string) bool {
	switch note {
	case "no-primary", "not-primary", "stale-replica", "fenced", "repl-ack":
		return true
	}
	return false
}

// Ready probes GET /readyz; any non-200 (or transport failure) is a
// preflight error, carrying the body so a draining 503's envelope shows
// up in the error message. With a fan-out, an unreachable node rotates
// the preference — a cluster run may legitimately start with one node
// already down.
func (c *Client) Ready(ctx context.Context) error {
	var lastErr error
	for attempt := 0; attempt < len(c.bases); attempt++ {
		base, idx := c.pick()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("loadgen: preflight /readyz: %w", err)
			c.rotate(idx)
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("loadgen: preflight /readyz: %d %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		return nil
	}
	return lastErr
}

// Identity probes GET /healthz and returns the server's build/config
// identity when it serves one (xserve answers JSON
// {"status":"ok","identity":{...}}). A plain "ok" body — an older or
// minimal server — yields an empty map, not an error: identity is
// evidence for the report, not a gate.
func (c *Client) Identity(ctx context.Context) (map[string]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Target()+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("loadgen: preflight /healthz: %w", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: preflight /healthz: %d %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var h struct {
		Identity map[string]string `json:"identity"`
	}
	if err := json.Unmarshal(body, &h); err != nil || h.Identity == nil {
		return map[string]string{}, nil
	}
	return h.Identity, nil
}

// CreateDoc registers a document (scenario setup) and returns the
// acknowledged LSN.
func (c *Client) CreateDoc(doc, xml string) (uint64, error) {
	body := jsonBody(map[string]any{"doc": doc, "xml": xml})
	resp, err := c.hc.Post(c.Target()+"/v1/docs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	// 409 "exists" means a previous run (same seed) left the document
	// behind; reuse it.
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
		return 0, fmt.Errorf("create %s: %d %s", doc, resp.StatusCode, bytes.TrimSpace(data))
	}
	var ack struct {
		LSN uint64 `json:"lsn"`
	}
	_ = json.Unmarshal(data, &ack)
	return ack.LSN, nil
}

// GetDocXML fetches a document's current XML — the failover scenario's
// post-run verification reads the surviving cluster's state through it.
func (c *Client) GetDocXML(ctx context.Context, doc string) (string, error) {
	base, idx := c.pick()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/docs/"+doc, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.rotate(idx)
		return "", err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if resp.StatusCode != http.StatusOK {
		if replRefusal(envelopeNote(data)) {
			c.rotate(idx)
		}
		return "", fmt.Errorf("get %s: %d %s", doc, resp.StatusCode, bytes.TrimSpace(data[:min(len(data), 200)]))
	}
	var v struct {
		XML string `json:"xml"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return "", fmt.Errorf("get %s: %w", doc, err)
	}
	return v.XML, nil
}

// result is one executed operation, classified.
type result struct {
	op      string
	class   string
	status  int
	service time.Duration // send-to-done, excluding harness queueing
	traceID string
	lsn     uint64 // newest LSN the response reported (0 = none)
	note    string // short failure detail for tail samples
}

// Do executes a generated request (and its chained follow-ups) and
// classifies the outcome. A chain is measured as one composite
// operation: its service time spans every link, its class is the first
// non-OK link's (the remaining links are skipped — a failed create
// makes the follow-up updates meaningless), and its trace ID is the
// failing link's, or the last link's when all succeed.
func (c *Client) Do(ctx context.Context, g genRequest) result {
	begin := time.Now()
	res := c.doOne(ctx, g)
	for _, next := range g.chain {
		if res.class != ClassOK {
			break
		}
		link := c.doOne(ctx, next)
		link.op = g.op
		if link.lsn == 0 {
			link.lsn = res.lsn
		}
		res = link
	}
	res.service = time.Since(begin)
	return res
}

func (c *Client) doOne(ctx context.Context, g genRequest) result {
	res := result{op: g.op}
	var rd io.Reader
	if len(g.body) > 0 {
		rd = bytes.NewReader(g.body)
	}
	base, idx := c.pick()
	req, err := http.NewRequestWithContext(ctx, g.method, base+g.path, rd)
	if err != nil {
		res.class, res.note = ClassError, err.Error()
		return res
	}
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if g.tenant != "" {
		req.Header.Set("X-Tenant", g.tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// A dead node: move the fan-out preference along before the next
		// arrival lands on the same socket error.
		c.rotate(idx)
		res.note = err.Error()
		res.class = ClassError
		if errors.Is(err, context.DeadlineExceeded) || os.IsTimeout(err) {
			res.class = ClassTimeout
		}
		return res
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	res.traceID = resp.Header.Get("X-Trace-Id")
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 256<<10))
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		res.class = ClassOK
	case resp.StatusCode == http.StatusConflict:
		res.class = ClassConflict
	case resp.StatusCode == http.StatusServiceUnavailable,
		resp.StatusCode == http.StatusTooManyRequests:
		// Both are the server shedding load it cannot take right now —
		// 503 for pool/drain/store pressure, 429 for a tenant past its
		// inflight quota. Either way the request was refused, not failed.
		res.class = ClassShed
	default:
		res.class = ClassError
	}
	if res.class != ClassOK {
		res.note = envelopeNote(data)
		// A replication refusal is about THIS node's place in the
		// topology (fenced, stale, not primary) — another target may be
		// fine, so rotate. Plain shedding (saturated pool, tenant quota)
		// stays put: it is cluster-wide load, not topology.
		if replRefusal(res.note) {
			c.rotate(idx)
		}
	}
	if g.wantLSN && (res.class == ClassOK || res.class == ClassConflict) {
		var ack struct {
			LSN uint64 `json:"lsn"`
			// A 409 envelope names the committed LSN it collided with:
			// also a sighting of the store head.
			Conflict struct {
				WithLSN uint64 `json:"with_lsn"`
			} `json:"conflict"`
		}
		if json.Unmarshal(data, &ack) == nil {
			res.lsn = ack.LSN
			if ack.Conflict.WithLSN > res.lsn {
				res.lsn = ack.Conflict.WithLSN
			}
		}
	}
	return res
}

// envelopeNote extracts the machine-readable reason from a non-2xx
// envelope for tail samples ("saturated", "conflict", ...).
func envelopeNote(data []byte) string {
	var e struct {
		Reason string `json:"reason"`
		Error  string `json:"error"`
	}
	if json.Unmarshal(data, &e) != nil {
		return ""
	}
	if e.Reason != "" {
		return e.Reason
	}
	if len(e.Error) > 80 {
		return e.Error[:80]
	}
	return e.Error
}

// ResolvedTrace is what trace resolution learned about one tail
// sample's server-side span tree.
type ResolvedTrace struct {
	Name       string
	DurationUs int64
	Flags      []string
	Spans      int
}

// ResolveTrace fetches GET /v1/trace/{id}: whether the server's flight
// recorder still holds the trace, and its summary if so.
func (c *Client) ResolveTrace(ctx context.Context, id string) (ResolvedTrace, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Target()+"/v1/trace/"+id, nil)
	if err != nil {
		return ResolvedTrace{}, false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return ResolvedTrace{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ResolvedTrace{}, false
	}
	var v struct {
		Name       string   `json:"name"`
		DurationUs int64    `json:"duration_us"`
		Flags      []string `json:"flags"`
		Root       struct {
			Children []json.RawMessage `json:"children"`
		} `json:"root"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&v); err != nil {
		return ResolvedTrace{}, false
	}
	return ResolvedTrace{Name: v.Name, DurationUs: v.DurationUs, Flags: v.Flags, Spans: 1 + len(v.Root.Children)}, true
}
