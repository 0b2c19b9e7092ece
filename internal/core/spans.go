package core

import (
	"xmlconflict/internal/ops"
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/telemetry/span"
)

// Span integration of the decision procedures. Spans ride
// SearchOptions.Ctx (span.FromContext) and are the engine's one
// observation channel for decisions: the detect span carries the method
// choice, the per-edge cut decisions of the linear detectors (as
// linear.edge events) and the verdict; the search span carries the
// bounds and budget spend of the witness search; shrink carries the
// witness minimization. With no span in the context every hook is one
// nil check and builds no attributes, so untraced library calls (and
// the benchmarks) pay nothing.

// StartDetectSpan opens the "detect" child of the span in opts.Ctx,
// recording the chosen decision procedure and the instance's shape, and
// returns opts re-rooted under it so a search nests inside. Returns a
// nil span and opts unchanged when tracing is off.
func StartDetectSpan(opts SearchOptions, method string, r ops.Read, u ops.Update, sem ops.Semantics) (*span.Span, SearchOptions) {
	sp := span.FromContext(opts.Ctx).Child("detect")
	if sp == nil {
		return nil, opts
	}
	sp.Set("method", method)
	sp.Set("kind", u.Kind())
	sp.Set("semantics", sem.String())
	sp.Set("read_linear", r.P.IsLinear())
	sp.Set("read_size", r.P.Size())
	sp.Set("update_size", u.Pattern().Size())
	opts.Ctx = span.Context(opts.Ctx, sp)
	return sp, opts
}

// EndDetectSpan closes a detect span with the verdict. The verdict's
// method overrides the one chosen up front where they differ (a schema
// detection settles as schema-static or schema-search).
func EndDetectSpan(sp *span.Span, v Verdict, err error) {
	if sp == nil {
		return
	}
	if err != nil {
		sp.Fail(err)
		sp.End()
		return
	}
	sp.Set("conflict", v.Conflict)
	sp.Set("method", v.Method)
	sp.Set("complete", v.Complete)
	sp.Set("candidates", v.Candidates)
	if v.Reason != "" {
		sp.Set("reason", v.Reason)
	}
	if v.Detail != "" {
		sp.Set("detail", v.Detail)
	}
	if v.Witness != nil {
		sp.Set("witness_nodes", v.Witness.Size())
	}
	sp.End()
}

// startSpan opens the "search" child carrying the bounds the sweep will
// run under. Returns nil (inert) when tracing is off.
func (s *sweep) startSpan(workers int) *span.Span {
	sp := span.FromContext(s.opts.Ctx).Child("search")
	if sp == nil {
		return nil
	}
	sp.Set("bound", s.bound)
	sp.Set("max_nodes", s.maxNodes)
	sp.Set("max_candidates", s.maxCand)
	sp.Set("alphabet", len(s.labels))
	if workers > 1 {
		sp.Set("workers", workers)
	}
	return sp
}

// EndSearchSpan closes a search span with the sweep's outcome: budget
// spend (candidates examined), the verdict, and — for incomplete
// sweeps — the degradation reason.
func EndSearchSpan(sp *span.Span, v Verdict, err error) {
	if sp == nil {
		return
	}
	sp.Set("candidates", v.Candidates)
	sp.Set("conflict", v.Conflict)
	sp.Set("complete", v.Complete)
	if v.Reason != "" {
		sp.Set("reason", v.Reason)
	}
	if v.Witness != nil {
		sp.Set("witness_nodes", v.Witness.Size())
	}
	sp.Fail(err)
	sp.End()
}

// edgeEvent records one per-edge decision of the linear detectors as a
// linear.edge event on the detect span: a cut edge with the length of
// the label word its witness is built from, or a rejected edge with why
// (why != "" marks the rejection).
func edgeEvent(sp *span.Span, edge int, axis pattern.Axis, why string, wordLen int) {
	if sp == nil {
		return
	}
	if why != "" {
		sp.Event("linear.edge", span.A("edge", edge), span.A("axis", axis.String()), span.A("cut", false), span.A("why", why))
		return
	}
	sp.Event("linear.edge", span.A("edge", edge), span.A("axis", axis.String()), span.A("cut", true), span.A("word_len", wordLen))
}
