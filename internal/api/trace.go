package api

import (
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// TraceHeader carries the request's trace identifier between tiers and
// back to the client. The router mints one per request when the client
// does not supply a valid ID (see obs.ValidTraceID), forwards it to the
// shard it routes to — including every failover attempt — and
// echoes it on the response. Shards accept an inbound ID the same way,
// so direct shard calls are traceable too.
const TraceHeader = "X-Resilient-Trace"

// TraceResponse is the body of GET /v1/tracez on both tiers: the most
// recently completed traces, newest first. Query parameters: ?n= caps
// the number returned, ?id= looks up one trace ID exactly (a request
// that crossed the tier more than once may return several records).
type TraceResponse struct {
	Schema int               `json:"schema"`
	Tier   string            `json:"tier"`
	Count  int               `json:"count"`
	Total  uint64            `json:"total"`
	Traces []obs.TraceRecord `json:"traces"`
}

// TracezSnapshot answers one GET /v1/tracez request from a tier's
// tracer: both tiers serve the identical contract, so the query parsing
// and envelope shaping live here. ?n= caps the records (invalid or
// absent = all retained), ?id= filters to one trace ID.
func TracezSnapshot(t *obs.Tracer, tier string, r *http.Request) TraceResponse {
	q := r.URL.Query()
	n := 0
	if v := q.Get("n"); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 {
			n = parsed
		}
	}
	traces := t.Snapshot(n, q.Get("id"))
	return TraceResponse{
		Schema: SchemaVersion,
		Tier:   tier,
		Count:  len(traces),
		Total:  t.Total(),
		Traces: traces,
	}
}

// BuildInfo identifies the process behind a statusz scrape: module
// version, Go toolchain, GOMAXPROCS, uptime, and the shard label where
// one applies. Served by both tiers inside StatuszResponse so fleets of
// scraped processes can be told apart.
type BuildInfo struct {
	Version       string  `json:"version"`
	GoVersion     string  `json:"go_version"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Label         string  `json:"label,omitempty"`
}
