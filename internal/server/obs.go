package server

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// registerMetrics maps every typed shard stat onto the Prometheus
// surface. All series except the two latency histograms are closures
// over counters the server already maintains, so /metrics and
// /v1/statusz can never disagree.
func (s *Server) registerMetrics() {
	m := obs.NewRegistry()
	m.GaugeFunc("resilient_schema_version", "Wire schema version of the typed API.",
		func() float64 { return float64(api.SchemaVersion) })
	m.GaugeFunc("resilient_shard_uptime_seconds", "Seconds since the shard started.",
		func() float64 { return time.Since(s.started).Seconds() })
	m.GaugeFunc("resilient_shard_draining", "1 while the shard refuses new work.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	m.CounterFunc("resilient_shard_completed_total", "Solve requests answered 200 (including solve errors reported in-band).",
		func() float64 { return float64(s.completed.Load()) })
	m.CounterFunc("resilient_shard_failed_total", "Right-hand sides whose solve returned an error.",
		func() float64 { return float64(s.failed.Load()) })
	m.CounterFunc("resilient_shard_rejected_total", "Requests refused 429 at a full queue.",
		func() float64 { return float64(s.rejected.Load()) })
	m.CounterFunc("resilient_shard_expired_total", "Requests abandoned 504 while still queued.",
		func() float64 { return float64(s.expired.Load()) })
	m.GaugeFunc("resilient_shard_queue_depth", "Tasks queued but not yet solving.",
		func() float64 { return float64(s.sched.depth()) })
	m.GaugeFunc("resilient_shard_queue_capacity", "Bound of the solve queue.",
		func() float64 { return float64(s.cfg.QueueDepth) })
	m.CounterFunc("resilient_shard_cache_hits_total", "Matrix cache hits.",
		func() float64 { return float64(s.cache.stats().Hits) })
	m.CounterFunc("resilient_shard_cache_misses_total", "Matrix cache misses.",
		func() float64 { return float64(s.cache.stats().Misses) })
	m.CounterFunc("resilient_shard_cache_evictions_total", "Matrix cache evictions (capacity and TTL).",
		func() float64 { return float64(s.cache.stats().Evictions) })
	m.CounterFunc("resilient_shard_cache_ttl_evictions_total", "Matrix cache entries aged out idle.",
		func() float64 { return float64(s.cache.stats().TTLEvictions) })
	m.CounterFunc("resilient_shard_inline_parsed_total", "Inline operands parsed: one per cache fill, plus requests that raced a fill.",
		func() float64 { return float64(s.parsed.Load()) })
	m.GaugeFunc("resilient_shard_cache_entries", "Resident matrix cache entries.",
		func() float64 { return float64(s.cache.stats().Entries) })
	m.GaugeFunc("resilient_shard_cache_bytes", "Estimated resident footprint of the cached matrices.",
		func() float64 { return float64(s.cache.stats().Bytes) })
	m.CounterFunc("resilient_shard_traces_total", "Completed request traces.",
		func() float64 { return float64(s.tracer.Total()) })
	s.queueHist = m.Histogram("resilient_shard_queue_wait_seconds", "Time solved requests spent queued.", nil)
	s.solveHist = m.Histogram("resilient_shard_solve_seconds", "Solve execution time (per task; a coalesced block counts once per member).", nil)
	s.metrics = m
}

// settle accounts for a completed task on every surface at once: the
// queue-wait/solve/coalesce spans and latency observations, the trace's
// solver tallies from the authoritative per-lane statistics (summed across
// a batch), and the completed/failed counters. A task with a failed lane
// marks its trace with the first lane error, whichever edge it came in by.
func (s *Server) settle(tr *obs.Active, t *task, submitAt int64, solverName string) {
	solveNanos := t.outs[0].solveNanos // one blocked solve: shared by every lane
	tr.AddSpan(obs.SpanQueueWait, "", "", submitAt, t.queueNanos)
	solveStart := submitAt + t.queueNanos
	tr.AddSpan(obs.SpanSolve, s.cfg.ShardLabel, solverName, solveStart, solveNanos)
	if t.coalesced > len(t.specs) {
		tr.AddSpan(obs.SpanCoalesce, "", "width="+strconv.Itoa(t.coalesced), solveStart, solveNanos)
	}
	var tally obs.SolverTallies
	var firstErr error
	for i := range t.outs {
		st := &t.outs[i].stats
		tally.Iterations += int64(st.UsefulIterations)
		tally.TotalIterations += st.TotalIterations
		tally.Detections += st.Detections
		tally.Corrections += st.Corrections
		tally.Rollbacks += st.Rollbacks
		tally.Checkpoints += st.Checkpoints
		tally.FaultsInjected += st.FaultsInjected
		if err := t.outs[i].err; err != nil {
			s.failed.Add(1)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	tr.FillSolver(tally)
	if firstErr != nil {
		tr.SetError(firstErr.Error())
	}
	s.queueHist.Observe(float64(t.queueNanos) / 1e9)
	s.solveHist.Observe(float64(solveNanos) / 1e9)
	s.completed.Add(1)
}

// buildInfo identifies this process for statusz scrapes.
func (s *Server) buildInfo() *api.BuildInfo {
	version, goVersion, procs := obs.Runtime()
	return &api.BuildInfo{
		Version:       version,
		GoVersion:     goVersion,
		GOMAXPROCS:    procs,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Label:         s.cfg.ShardLabel,
	}
}

// handleTracez serves the completed-trace ring: last-N newest first, or
// an exact by-ID lookup.
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, http.StatusMethodNotAllowed, "", errors.New("GET only"), 0)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.TracezSnapshot(s.tracer, api.TierShard, r))
}
