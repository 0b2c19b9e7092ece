package main

// Replication surface: with -repl-node/-repl-peers the document store
// becomes one node of a primary/backup cluster (internal/replica). The
// /v1/docs API stays identical for clients; underneath it:
//
//   - Writes commit through the replica node, which ships the WAL
//     frames and blocks for the -repl-ack level. A write landing on a
//     backup is transparently proxied to the primary (one hop,
//     X-Repl-Forwarded guards the loop). If the primary is unreachable
//     and -repl-tentative is on, an insert/delete update is queued
//     optimistically and answered 202 with its queue sequence; its
//     fate is decided by the conflict detector at merge (see
//     GET /v1/repl/merges).
//   - Reads are served locally on every node. A backup stamps
//     X-Replica-Staleness-Ms (time since last primary contact) and
//     refuses with 503 "stale-replica" once that exceeds
//     -repl-staleness.
//   - The replication protocol itself (append/heartbeat/since/state/
//     merge/status) mounts under /v1/repl/.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"xmlconflict/internal/faultinject"
	"xmlconflict/internal/replica"
	"xmlconflict/internal/store"
	"xmlconflict/internal/telemetry/span"
)

// replForwardHeader marks a proxied write so a misdirected hop answers
// instead of bouncing forever.
const replForwardHeader = "X-Repl-Forwarded"

// parsePeers parses the -repl-peers value: "id=url,id=url,...".
func parsePeers(spec string) ([]replica.Peer, error) {
	var peers []replica.Peer
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad peer %q (want id=url)", part)
		}
		peers = append(peers, replica.Peer{ID: strings.TrimSpace(id), URL: strings.TrimRight(strings.TrimSpace(url), "/")})
	}
	if len(peers) == 0 {
		return nil, errors.New("no peers in spec")
	}
	return peers, nil
}

// replSpan stamps the node's replication coordinates on the request
// span, so a trace shows which role/epoch served it.
func (s *server) replSpan(ctx context.Context) {
	if s.node == nil {
		return
	}
	sp := span.FromContext(ctx)
	sp.Set("repl.node", s.node.Self().ID)
	sp.Set("repl.role", s.node.Role().String())
	sp.Set("repl.epoch", s.node.Epoch())
}

// createDoc / dropDoc / submitDoc route a mutation through the replica
// node when replication is on, and straight at the sharded store when
// it is off.
func (s *server) createDoc(ctx context.Context, id, xml string) (store.Result, error) {
	if s.node != nil {
		s.replSpan(ctx)
		return s.node.CreateCtx(ctx, id, xml)
	}
	return s.store.CreateCtx(ctx, id, xml)
}

func (s *server) dropDoc(ctx context.Context, id string) (store.Result, error) {
	if s.node != nil {
		s.replSpan(ctx)
		return s.node.DropCtx(ctx, id)
	}
	return s.store.DropCtx(ctx, id)
}

func (s *server) submitDoc(ctx context.Context, id string, op store.Op) (store.Result, error) {
	if s.node != nil {
		s.replSpan(ctx)
		return s.node.SubmitCtx(ctx, id, op)
	}
	return s.store.SubmitCtx(ctx, id, op)
}

// replRedirect handles a write that the local node cannot commit
// because it is a backup: proxy it to the primary (one hop), or — when
// the primary is unreachable and tentative mode allows — queue it
// optimistically. Returns true when it wrote a response.
func (s *server) replRedirect(w http.ResponseWriter, r *http.Request, err error, doc string, op *store.Op, body any) bool {
	var np *replica.NotPrimaryError
	if s.node == nil || !errors.As(err, &np) {
		return false
	}
	s.metrics.Add("repl.redirects", 1)
	span.FromContext(r.Context()).Flag("repl-redirect")
	if r.Header.Get(replForwardHeader) != "" {
		// Already proxied once and still not at the primary: the
		// topology is mid-failover. Tell the client to retry rather
		// than hop in circles.
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{
			Error:   "replica topology is settling; retry",
			Reason:  "no-primary",
			TraceID: traceID(r),
		})
		return true
	}
	if np.Primary.URL != "" {
		if s.proxyToPrimary(w, r, np.Primary, body) {
			return true
		}
	}
	// The primary is unknown or unreachable. Optimistic fallback for
	// plain updates when the operator enabled it; everything else is an
	// honest 503.
	if op != nil && (op.Kind == "insert" || op.Kind == "delete") {
		if seq, qerr := s.node.QueueTentative(doc, *op); qerr == nil {
			s.metrics.Add("repl.tentative_accepted", 1)
			span.FromContext(r.Context()).Flag("repl-tentative")
			writeJSON(w, http.StatusAccepted, map[string]any{
				"doc":       doc,
				"tentative": true,
				"seq":       seq,
				"node":      s.node.Self().ID,
				"detail":    "queued for detector-arbitrated merge; outcome at GET /v1/repl/merges",
				"trace_id":  traceID(r),
			})
			return true
		}
	}
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{
		Error:   np.Error(),
		Reason:  "not-primary",
		TraceID: traceID(r),
	})
	return true
}

// proxyToPrimary replays the request body against the primary and
// streams its answer back. Returns false when the primary could not be
// reached (the caller falls back to tentative/503).
func (s *server) proxyToPrimary(w http.ResponseWriter, r *http.Request, primary replica.Peer, body any) bool {
	b, err := encodeJSON(body)
	if err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.replProxyTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, r.Method, primary.URL+r.URL.Path, bytes.NewReader(b))
	if err != nil {
		return false
	}
	if len(b) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(replForwardHeader, s.node.Self().ID)
	if tenant := r.Header.Get("X-Tenant"); tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	if tp := w.Header().Get("traceparent"); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := s.replHC.Do(req)
	if err != nil {
		s.metrics.Add("repl.proxy_errors", 1)
		return false
	}
	defer resp.Body.Close()
	s.metrics.Add("repl.proxied_writes", 1)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("X-Repl-Proxied-To", primary.ID)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, io.LimitReader(resp.Body, s.maxBody)) //nolint:errcheck // client gone is fine
	return true
}

// encodeJSON marshals a proxy body (nil means an empty body, for
// DELETE).
func encodeJSON(body any) ([]byte, error) {
	if body == nil {
		return nil, nil
	}
	return json.Marshal(body)
}

// replReadGate serves the bounded-staleness contract on reads: a
// backup within -repl-staleness answers with X-Replica-Staleness-Ms;
// one beyond it refuses with 503 "stale-replica" so a client never
// mistakes a partitioned node's state for fresh data. Returns true
// when it wrote the refusal.
func (s *server) replReadGate(w http.ResponseWriter, r *http.Request) bool {
	if s.node == nil {
		return false
	}
	s.replSpan(r.Context())
	lag, ok := s.node.Staleness()
	w.Header().Set("X-Replica-Staleness-Ms", strconv.FormatInt(lag.Milliseconds(), 10))
	if ok {
		return false
	}
	s.metrics.Add("repl.stale_reads_refused", 1)
	span.FromContext(r.Context()).Flag("stale-replica")
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{
		Error: fmt.Sprintf("replica is %s behind the primary (bound %s); retry against the primary",
			lag.Round(time.Millisecond), s.node.StalenessBound()),
		Reason:  "stale-replica",
		TraceID: traceID(r),
	})
	return true
}

// replMinLSNHeadroom is how far past the highest LSN this node knows
// exists (own position, or the primary's announced one) an X-Min-LSN
// may point before the gate refuses immediately instead of waiting.
// A legitimate client stamps an LSN a write reply gave it, so it is at
// most a replication lag behind reality; a value beyond every known
// position plus this slack cannot be satisfied by waiting and would
// only pin a handler for the full budget per request.
const replMinLSNHeadroom = 4096

// replMinLSNGate serves read-your-writes on top of the staleness bound:
// a client that stamps X-Min-LSN with the shard LSN its last write was
// acknowledged at (the "lsn" field of every write reply) waits briefly
// for this replica to reach that position. A replica that cannot within
// the wait budget refuses with 503 "stale-replica" and a Retry-After
// instead of silently serving state from before the client's own write.
// The wait parks on the store's LSN notification rather than polling,
// and a min beyond anything known to exist fails fast. Returns true
// when it wrote a response.
func (s *server) replMinLSNGate(w http.ResponseWriter, r *http.Request, doc string) bool {
	if s.node == nil {
		return false
	}
	h := r.Header.Get("X-Min-LSN")
	if h == "" {
		return false
	}
	min, err := strconv.ParseUint(strings.TrimSpace(h), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad-request", "X-Min-LSN: "+err.Error())
		return true
	}
	shardIdx := s.store.ShardFor(doc)
	st := s.store.Store(shardIdx)
	if st.LSN() >= min {
		return false
	}
	refuse := func() bool {
		s.metrics.Add("repl.min_lsn_refused", 1)
		span.FromContext(r.Context()).Flag("stale-replica")
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{
			Error: fmt.Sprintf("replica shard holds lsn %d; the read requires %d (read-your-writes); retry or read the primary",
				st.LSN(), min),
			Reason:  "stale-replica",
			TraceID: traceID(r),
		})
		return true
	}
	if known := s.node.KnownShardLSN(shardIdx); min > known+replMinLSNHeadroom {
		return refuse()
	}
	span.FromContext(r.Context()).Flag("repl-min-lsn-wait")
	if !st.WaitLSN(r.Context(), min, s.replMinLSNWait) {
		if r.Context().Err() != nil {
			s.metrics.Add("serve.canceled", 1)
			return true
		}
		return refuse()
	}
	s.metrics.Add("repl.min_lsn_waits", 1)
	return false
}

// replStoreErr maps replication-layer write failures onto the uniform
// envelope. Returns true when it handled the error.
func (s *server) replStoreErr(w http.ResponseWriter, r *http.Request, err error) bool {
	var fe *replica.FencedError
	var ae *replica.AckError
	switch {
	case errors.As(err, &fe):
		// This node was deposed mid-write: the commit may not survive
		// resync, so the only honest answer is an error.
		s.metrics.Add("serve.errors", 1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{
			Error: err.Error(), Reason: "fenced", TraceID: traceID(r),
		})
		return true
	case errors.As(err, &ae):
		// Committed locally, but the replication level was not reached:
		// the client must treat the write as unacknowledged.
		s.metrics.Add("serve.errors", 1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{
			Error: err.Error(), Reason: "repl-ack", TraceID: traceID(r),
		})
		return true
	}
	return false
}

// Cluster lifecycle admin surface (behind -repl-admin): joins a node as
// a learner, drains/removes a node, and arms/disarms fault-injection
// sites at runtime — the hooks a partition-soak harness flaps. The
// routes mount on the main mux with patterns more specific than the
// /v1/repl/ protocol subtree, so they win Go's mux precedence.

// replJoinRequest is the POST /v1/repl/join body.
type replJoinRequest struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// replLeaveRequest is the POST /v1/repl/leave body.
type replLeaveRequest struct {
	ID string `json:"id"`
}

// replFaultsRequest is the POST /v1/repl/faults body: arm a spec (the
// same grammar as -faults), disarm one site, or reset everything.
type replFaultsRequest struct {
	Spec   string `json:"spec,omitempty"`
	Disarm string `json:"disarm,omitempty"`
	Reset  bool   `json:"reset,omitempty"`
}

// replAdminErr maps membership-change failures onto the envelope: a
// change submitted to a backup answers 409 "not-primary" naming the
// primary to retry against; anything else is a 503 the operator retries.
func (s *server) replAdminErr(w http.ResponseWriter, r *http.Request, err error) {
	s.metrics.Add("serve.errors", 1)
	var np *replica.NotPrimaryError
	if errors.As(err, &np) {
		writeJSON(w, http.StatusConflict, errorResponse{
			Error: err.Error(), Reason: "not-primary", TraceID: traceID(r),
		})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{
		Error: err.Error(), Reason: "repl-admin", TraceID: traceID(r),
	})
}

func (s *server) handleReplJoin(w http.ResponseWriter, r *http.Request) {
	s.metrics.Add("serve.requests", 1)
	var req replJoinRequest
	if !s.decode(w, r, &req) {
		return
	}
	if _, err := s.node.Join(r.Context(), req.ID, strings.TrimRight(req.URL, "/")); err != nil {
		s.replAdminErr(w, r, err)
		return
	}
	s.metrics.Add("repl.admin_joins", 1)
	writeJSON(w, http.StatusOK, map[string]any{
		"joined": req.ID, "members": s.node.ClusterSize(), "trace_id": traceID(r),
	})
}

func (s *server) handleReplLeave(w http.ResponseWriter, r *http.Request) {
	s.metrics.Add("serve.requests", 1)
	var req replLeaveRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := s.node.Leave(r.Context(), req.ID); err != nil {
		s.replAdminErr(w, r, err)
		return
	}
	s.metrics.Add("repl.admin_leaves", 1)
	writeJSON(w, http.StatusOK, map[string]any{
		"left": req.ID, "members": s.node.ClusterSize(), "trace_id": traceID(r),
	})
}

func (s *server) handleReplFaults(w http.ResponseWriter, r *http.Request) {
	s.metrics.Add("serve.requests", 1)
	var req replFaultsRequest
	if !s.decode(w, r, &req) {
		return
	}
	switch {
	case req.Reset:
		faultinject.Reset()
	case req.Disarm != "":
		faultinject.Disarm(req.Disarm)
	case req.Spec != "":
		if err := faultinject.ArmSpec(req.Spec); err != nil {
			writeErr(w, http.StatusBadRequest, "bad-request", "spec: "+err.Error())
			return
		}
	default:
		writeErr(w, http.StatusBadRequest, "bad-request", `need one of "spec", "disarm", "reset"`)
		return
	}
	s.metrics.Add("repl.admin_faults", 1)
	writeJSON(w, http.StatusOK, map[string]any{"sites": faultinject.Sites(), "trace_id": traceID(r)})
}
