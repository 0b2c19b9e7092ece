package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// executor runs one request for a connection. The HTTP executor talks
// to xserve; the in-process one calls the same packages directly.
type executor interface {
	do(ctx context.Context, conn int, r *request) *response
}

// httpExec gives each connection its own single-socket client, so a
// document's operations always travel on one TCP connection.
type httpExec struct {
	base    string
	clients []*http.Client
}

func newHTTPExec(base string, conns int) *httpExec {
	e := &httpExec{base: base}
	for i := 0; i < conns; i++ {
		e.clients = append(e.clients, &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return e
}

func (e *httpExec) close() {
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
}

type wirePair struct {
	Read      string `json:"read"`
	Insert    string `json:"insert,omitempty"`
	Delete    string `json:"delete,omitempty"`
	X         string `json:"x,omitempty"`
	Semantics string `json:"semantics,omitempty"`
}

func toWire(p pair) wirePair {
	w := wirePair{Read: p.read, X: p.x, Semantics: p.sem}
	if p.kind == "insert" {
		w.Insert = p.pattern
	} else {
		w.Delete = p.pattern
	}
	return w
}

type wireVerdict struct {
	Conflict bool   `json:"conflict"`
	Complete bool   `json:"complete"`
	Error    string `json:"error"`
}

// wireReply is the union of every reply shape the benchmark reads.
type wireReply struct {
	LSN      uint64          `json:"lsn"`
	Digest   string          `json:"digest"`
	Nodes    []string        `json:"nodes"`
	Reason   string          `json:"reason"`
	Error    string          `json:"error"`
	Conflict json.RawMessage `json:"conflict"` // a bool from /v1/detect, an object on a 409
	Complete bool            `json:"complete"`
	Results  []wireVerdict   `json:"results"`
	Deps     []struct {
		I int `json:"i"`
		J int `json:"j"`
	} `json:"dependences"`
}

func (e *httpExec) do(ctx context.Context, conn int, r *request) *response {
	var method, path string
	var body any
	switch r.kind {
	case "create":
		method, path = http.MethodPost, "/v1/docs"
		body = map[string]string{"doc": r.doc, "xml": r.xml}
	case "insert", "delete", "read":
		method, path = http.MethodPost, "/v1/docs/"+url.PathEscape(r.doc)+"/update"
		body = struct {
			Op        string `json:"op"`
			Pattern   string `json:"pattern"`
			X         string `json:"x,omitempty"`
			Semantics string `json:"semantics,omitempty"`
			BaseLSN   uint64 `json:"base_lsn,omitempty"`
		}{r.kind, r.pattern, r.x, r.sem, r.base}
	case "drop":
		method, path = http.MethodDelete, "/v1/docs/"+url.PathEscape(r.doc)
	case "get":
		method, path = http.MethodGet, "/v1/docs/"+url.PathEscape(r.doc)
	case "detect":
		method, path, body = http.MethodPost, "/v1/detect", toWire(r.pairs[0])
	case "batch":
		ps := make([]wirePair, len(r.pairs))
		for i, p := range r.pairs {
			ps[i] = toWire(p)
		}
		method, path, body = http.MethodPost, "/v1/detect/batch", map[string]any{"pairs": ps}
	case "analyze":
		method, path, body = http.MethodPost, "/v1/analyze", map[string]string{"program": r.program}
	default:
		return &response{err: "unknown request kind " + r.kind}
	}
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return &response{err: err.Error()}
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, e.base+path, rd)
	if err != nil {
		return &response{err: err.Error()}
	}
	hr, err := e.clients[conn].Do(req)
	if err != nil {
		return &response{err: err.Error()}
	}
	raw, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	if err != nil {
		return &response{status: hr.StatusCode, err: err.Error()}
	}
	var w wireReply
	if err := json.Unmarshal(raw, &w); err != nil {
		return &response{status: hr.StatusCode, err: fmt.Sprintf("decode reply: %v", err)}
	}
	out := &response{status: hr.StatusCode, lsn: w.LSN, digest: w.Digest, nodes: w.Nodes, reason: w.Reason, err: w.Error}
	switch r.kind {
	case "insert", "delete", "read":
		if hr.StatusCode == http.StatusConflict && len(w.Conflict) > 0 {
			var c struct {
				WithLSN uint64 `json:"with_lsn"`
			}
			if json.Unmarshal(w.Conflict, &c) == nil {
				out.withLSN = c.WithLSN
			}
		}
	case "detect":
		var c bool
		json.Unmarshal(w.Conflict, &c)
		out.verdicts = []verdict{{conflict: c, complete: w.Complete}}
	case "batch":
		for _, v := range w.Results {
			out.verdicts = append(out.verdicts, verdict{conflict: v.Conflict, complete: v.Complete, err: v.Error})
		}
	case "analyze":
		for _, d := range w.Deps {
			out.deps = append(out.deps, [2]int{d.I, d.J})
		}
	}
	return out
}
