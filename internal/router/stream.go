package router

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/api"
	"repro/internal/obs"
)

// Streaming pass-through. A solve streamed as SSE is the one routed
// request that is explicitly NOT idempotent at the relay layer: frames
// reach the client as the solver produces them, so once the stream has
// started there is nothing left to buffer, retry or hedge. The router
// therefore forwards it on a dedicated fast path — single attempt at
// one shard, chunks relayed and flushed as they arrive — and if the shard
// dies mid-stream the failure surfaces as a typed terminal error frame
// inside the stream instead of a silent truncation.

// streamSolve relays one streaming solve unbuffered to target. Without
// hedging that is the key's home: its first routable ring candidate, or the
// ring owner when nothing is routable. A stream is placed as if the ring
// were idle — it cannot move once started, and its right-hand side counts
// toward target's load, so the buffered requests spill around it instead.
// With hedging on, the router reads latency, and a stream goes where a
// hedged round's primary would: the EWMA-best candidate. Failures before
// the upstream answers are still plain JSON envelopes (the client has seen
// nothing yet); failures after the first relayed byte become a typed error
// frame in the stream.
func (r *Router) streamSolve(w http.ResponseWriter, req *http.Request, sreq *api.SolveRequest, key string, body []byte, target *shardState, tr *obs.Active) {
	streamStart := tr.Now()

	ctx, cancel := context.WithTimeout(req.Context(), r.deadlineFor(sreq))
	defer cancel()

	hreq, err := shardRequest(ctx, target, "/v1/solve", body, tr.ID())
	if err != nil {
		r.unroutable.Add(1)
		tr.SetError(api.CodeUnroutable)
		api.WriteError(w, http.StatusBadGateway, api.CodeUnroutable, err, 0)
		return
	}
	hreq.Header.Set("Accept", "text/event-stream")

	target.inflight.Add(1)
	defer target.inflight.Add(-1)
	r.carry(target, 1)
	defer r.carry(target, -1)
	resp, err := r.client.Do(hreq)
	if err != nil {
		// Nothing was relayed: answer a plain envelope. (No retry — the
		// client asked for a stream, and a silent replay could interleave
		// a second solver's progress with the first's admission effects.)
		if ctx.Err() == nil {
			target.notePassive(false, err.Error(), r.cfg.failThreshold)
		}
		r.unroutable.Add(1)
		tr.SetError(api.CodeUnroutable)
		api.WriteError(w, http.StatusBadGateway, api.CodeUnroutable,
			fmt.Errorf("streaming to shard %s: %w", target.name, err), 0)
		return
	}
	defer resp.Body.Close()
	target.routed.Add(1)
	// No observeLatency here on purpose: a stream's wall time is solver
	// time, not relay latency, and would poison the P99 window that
	// derives the hedge arm delay.

	ctype := resp.Header.Get("Content-Type")
	sse := strings.Contains(ctype, "text/event-stream")
	h := w.Header()
	if ctype != "" {
		h.Set("Content-Type", ctype)
	}
	h.Set("X-Resilient-Shard", target.name)
	if sse {
		// Declare the digest trailer before headers go out; the shard
		// stamps the terminal frame's digest there and we relay it after
		// the body below.
		h.Set("Trailer", api.DigestHeader)
		if cc := resp.Header.Get("Cache-Control"); cc != "" {
			h.Set("Cache-Control", cc)
		}
	} else if d := resp.Header.Get(api.DigestHeader); d != "" {
		// A buffered answer (error envelope, or a shard that cannot
		// flush): relay its digest as the usual header.
		h.Set(api.DigestHeader, d)
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)

	buf := make([]byte, 32<<10)
	var copyErr error
	clientGone := false
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 && !clientGone {
			if _, werr := w.Write(buf[:n]); werr != nil {
				// The client went away; keep draining upstream so the
				// shard-side solve finishes cleanly, but stop writing.
				clientGone = true
			} else if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			copyErr = rerr
			break
		}
	}

	if copyErr != nil {
		// The upstream connection died mid-stream — the shard was killed
		// or the deadline hit while frames were flowing. Headers are long
		// gone, so the failure is reported in-band: one terminal typed
		// error frame, exactly what a client-side SSE decoder expects.
		if ctx.Err() == nil {
			target.notePassive(false, copyErr.Error(), r.cfg.failThreshold)
		}
		tr.AddSpan(obs.SpanStream, target.name, "died mid-stream", streamStart, tr.Now()-streamStart)
		tr.SetError(api.CodeUnroutable)
		if sse && !clientGone {
			frame, merr := api.MarshalSSE(&api.SolveEvent{Kind: api.EventError, Error: &api.Error{
				Schema:  api.SchemaVersion,
				Code:    api.CodeUnroutable,
				Message: fmt.Sprintf("shard %s died mid-stream: %v", target.name, copyErr),
			}})
			if merr == nil {
				w.Write(frame)
				if flusher != nil {
					flusher.Flush()
				}
			}
		}
		return
	}

	if sse {
		// Clean end of stream: relay the shard's terminal-frame digest as
		// our own trailer (set after the body writes, per net/http).
		if d := resp.Trailer.Get(api.DigestHeader); d != "" {
			h.Set(api.DigestHeader, d)
		}
	}
	target.notePassive(resp.StatusCode < 500, "shard answered "+resp.Status, r.cfg.failThreshold)
	tr.AddSpan(obs.SpanStream, target.name, "", streamStart, tr.Now()-streamStart)
	r.streamedPassthrough.Add(1)
	r.routed.Add(1)
	r.trackKey(key, target.name)
}
