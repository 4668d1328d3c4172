package router

import (
	"errors"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// Observability wiring for the routing tier: every statusz counter is
// exported as a Prometheus series, so a scrape and a /v1/statusz snapshot
// are two views of the same atomics — TestRouterMetricsReconcileWithRouterz
// reconciles them. All mapped series are scrape-time closures over the
// existing counters (nothing is counted twice); the request-latency
// histogram is the only metric the registry owns.
func (r *Router) registerMetrics() {
	m := obs.NewRegistry()
	m.GaugeFunc("resilient_schema_version", "Wire schema version stamped into every response.",
		func() float64 { return float64(api.SchemaVersion) })
	m.GaugeFunc("resilient_router_uptime_seconds", "Seconds since the router started.",
		func() float64 { return time.Since(r.started).Seconds() })
	m.GaugeFunc("resilient_router_draining", "1 while the router refuses new solves for shutdown.",
		func() float64 {
			if r.draining.Load() {
				return 1
			}
			return 0
		})
	m.CounterFunc("resilient_router_routed_total", "Solves relayed to a shard (including streamed pass-throughs).",
		func() float64 { return float64(r.routed.Load()) })
	m.CounterFunc("resilient_router_failovers_total", "Attempts re-sent to another replica after a failure.",
		func() float64 { return float64(r.failovers.Load()) })
	m.CounterFunc("resilient_router_spilled_total", "Buffered requests first sent to the key's ring successor because the owner was over its bounded load.",
		func() float64 { return float64(r.spilled.Load()) })
	m.CounterFunc("resilient_router_unroutable_total", "Requests answered with an error after every candidate failed.",
		func() float64 { return float64(r.unroutable.Load()) })
	m.CounterFunc("resilient_router_digest_verified_total", "Shard responses whose content digest verified before relay.",
		func() float64 { return float64(r.digestVerified.Load()) })
	m.CounterFunc("resilient_router_corrupt_responses_total", "Shard responses discarded for digest or schema violations.",
		func() float64 { return float64(r.corruptResponses.Load()) })
	m.CounterFunc("resilient_router_retries_spent_total", "Retry-budget units consumed across all requests.",
		func() float64 { return float64(r.retriesSpent.Load()) })
	m.CounterFunc("resilient_router_budget_exhausted_total", "Requests that spent their whole retry budget without an answer.",
		func() float64 { return float64(r.budgetExhausted.Load()) })
	m.CounterFunc("resilient_router_hedge_armed_total", "Hedged secondary requests actually launched.",
		func() float64 { return float64(r.hedgeArmed.Load()) })
	m.CounterFunc("resilient_router_hedge_wins_total", "Hedged races won by the secondary.",
		func() float64 { return float64(r.hedgeWins.Load()) })
	m.CounterFunc("resilient_router_hedge_primary_wins_total", "Hedged races won by the primary after the hedge armed.",
		func() float64 { return float64(r.hedgePrimaryWins.Load()) })
	m.CounterFunc("resilient_router_hedge_losers_canceled_total", "Hedge losers canceled while still in flight.",
		func() float64 { return float64(r.hedgeCanceled.Load()) })
	m.CounterFunc("resilient_router_streamed_passthrough_total", "Streaming solves relayed unbuffered.",
		func() float64 { return float64(r.streamedPassthrough.Load()) })
	m.GaugeFunc("resilient_router_healthy_shards", "Shards currently admitting routed traffic.",
		func() float64 { healthy, _ := r.healthyShards(); return float64(healthy) })
	m.GaugeFunc("resilient_router_shards", "Shards in the topology (healthy or not).",
		func() float64 { _, total := r.healthyShards(); return float64(total) })
	m.CounterFunc("resilient_router_traces_total", "Requests traced since start.",
		func() float64 { return float64(r.tracer.Total()) })
	r.reqHist = m.Histogram("resilient_router_request_seconds",
		"End-to-end routed request latency (receipt to relay), successful requests.", nil)
	if r.cfg.ChaosStats != nil {
		m.CounterFunc("resilient_router_chaos_requests_total", "Requests seen by the fault-injection transport.",
			func() float64 { return float64(r.cfg.ChaosStats().Requests) })
		m.CounterFunc("resilient_router_chaos_faults_total", "Faults injected by the chaos transport (all kinds).",
			func() float64 {
				c := r.cfg.ChaosStats()
				return float64(c.Resets + c.Storms503 + c.Kills + c.Truncations + c.BitFlips + c.LatencySpikes)
			})
	}
	r.metrics = m
}

func (r *Router) handleTracez(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		api.WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, errors.New("GET only"), 0)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.TracezSnapshot(r.tracer, api.TierRouter, req))
}

// buildInfo snapshots the running binary for /v1/statusz.
func (r *Router) buildInfo() *api.BuildInfo {
	version, goVersion, maxProcs := obs.Runtime()
	return &api.BuildInfo{
		Version:       version,
		GoVersion:     goVersion,
		GOMAXPROCS:    maxProcs,
		UptimeSeconds: time.Since(r.started).Seconds(),
	}
}
