package router

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
)

// ewmaAlpha weights the latest latency sample in the per-shard EWMA:
// heavy enough to track load shifts within a few probes, light enough
// that one slow probe does not whipsaw the estimate.
const ewmaAlpha = 0.3

// shardState is everything the router knows about one shard: its place
// in the topology plus the live health picture built from active probes
// and passive per-request observations.
type shardState struct {
	name string
	// managed marks a shard whose process the router's ShardRuntime
	// started (topology entry or admin add with no addr): removal stops
	// the process too. Immutable after creation.
	managed bool

	mu sync.Mutex
	// placement is the shard's entry in the desired state. reconcile alone
	// writes it (place); everything else reads.
	placement placement
	// healthy gates routing: an unhealthy shard is skipped at candidate
	// selection (still probed, and re-admitted on the next good probe).
	// Shards start healthy — a router in front of a live shard set must
	// route before the first probe round completes.
	healthy bool
	// probeFails counts consecutive active-probe failures; at
	// failThreshold the shard is ejected.
	probeFails int
	// passiveFails counts consecutive forwarded requests that died on
	// transport or answered 5xx; at failThreshold the circuit opens
	// (healthy = false) until an active probe succeeds — the probe loop
	// is the half-open path.
	passiveFails int
	ewmaMs       float64
	lastErr      string
	lastProbe    time.Time

	inflight atomic.Int64
	// load is the right-hand sides in flight here (a batch counts its
	// width): what the bounded-load rule of candidates compares.
	load   atomic.Int64
	routed atomic.Int64 // requests answered by this shard (any status)
	errors atomic.Int64 // transport failures + 5xx answers
}

// placement is what the control plane decided about a shard, as opposed to
// what the probes observe.
type placement struct {
	// addr is the shard's base URL, e.g. http://127.0.0.1:8723.
	addr string
	// weight is the relative ring weight (0 = the router default).
	weight float64
	// drained is the admin drain latch: a drained shard is off the ring
	// (new keys route past it) and stays out no matter what the probes
	// say — only an admin add or a topology reload clears the latch.
	// Probes keep running so the health picture stays current while the
	// shard coasts to idle.
	drained bool
}

func (s *shardState) placed() placement {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.placement
}

func (s *shardState) place(p placement) {
	s.mu.Lock()
	s.placement = p
	s.mu.Unlock()
}

func (s *shardState) isHealthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.healthy
}

// isRoutable reports whether new keys may be sent here: healthy and not
// latched out by an admin drain.
func (s *shardState) isRoutable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.healthy && !s.placement.drained
}

// stateLocked names the lifecycle state. Callers hold s.mu.
func (s *shardState) stateLocked() string {
	switch {
	case s.placement.drained:
		return api.ShardDraining
	case !s.healthy:
		return api.ShardEjected
	default:
		return api.ShardActive
	}
}

func (s *shardState) observeLatency(d time.Duration) {
	s.mu.Lock()
	s.updateEWMALocked(d)
	s.mu.Unlock()
}

// updateEWMALocked folds one latency sample in; the first sample seeds
// the estimate. Callers hold s.mu.
func (s *shardState) updateEWMALocked(d time.Duration) {
	ms := float64(d) / 1e6
	if s.ewmaMs == 0 {
		s.ewmaMs = ms
	} else {
		s.ewmaMs = ewmaAlpha*ms + (1-ewmaAlpha)*s.ewmaMs
	}
}

// probeResult is the outcome of one active health check.
type probeResult struct {
	ok      bool
	errText string
	latency time.Duration
}

// noteProbe folds one active health-probe outcome in. A success
// re-admits the shard immediately (and closes a passively-opened
// circuit); failures eject it after threshold consecutive misses.
func (s *shardState) noteProbe(p probeResult, threshold int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastProbe = time.Now()
	if p.ok {
		s.probeFails = 0
		s.passiveFails = 0
		s.healthy = true
		s.lastErr = ""
		s.updateEWMALocked(p.latency)
		return
	}
	s.probeFails++
	s.lastErr = p.errText
	if s.probeFails >= threshold {
		s.healthy = false
	}
}

// notePassive folds one forwarded-request outcome in: ok is "the shard
// answered below 500". Consecutive failures open the circuit.
func (s *shardState) notePassive(ok bool, errText string, threshold int) {
	if ok {
		s.mu.Lock()
		s.passiveFails = 0
		s.mu.Unlock()
		return
	}
	s.errors.Add(1)
	s.mu.Lock()
	s.passiveFails++
	s.lastErr = errText
	if s.passiveFails >= threshold {
		s.healthy = false
	}
	s.mu.Unlock()
}

// status snapshots the shard for statusz. A drained shard owns no ring
// points, so its VNodes report as zero.
func (s *shardState) status(vnodes int) api.ShardStatus {
	s.mu.Lock()
	if s.placement.drained {
		vnodes = 0
	}
	st := api.ShardStatus{
		Name:                s.name,
		Addr:                s.placement.addr,
		State:               s.stateLocked(),
		Healthy:             s.healthy,
		ConsecutiveFailures: max(s.probeFails, s.passiveFails),
		EWMALatencyMs:       s.ewmaMs,
		LastError:           s.lastErr,
		VNodes:              vnodes,
		VnodeWeight:         s.placement.weight,
	}
	if !s.lastProbe.IsZero() {
		st.LastProbeAgeSeconds = time.Since(s.lastProbe).Seconds()
	}
	s.mu.Unlock()
	st.Inflight = s.inflight.Load()
	st.Load = s.load.Load()
	st.Routed = s.routed.Load()
	st.Errors = s.errors.Load()
	return st
}

// healthyShards counts the shards the probes currently hold healthy, and
// all of them.
func (r *Router) healthyShards() (healthy, total int) {
	r.ringMu.RLock()
	defer r.ringMu.RUnlock()
	for _, s := range r.shards {
		if s.isHealthy() {
			healthy++
		}
	}
	return healthy, len(r.shards)
}

// probeLoop actively probes every shard each interval until stop closes.
// Probes run concurrently so one hung shard cannot starve the others'
// re-admission, and each round is awaited so loops never pile up.
func (r *Router) probeLoop(t *time.Ticker) {
	defer r.probing.Done()
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.probeAll()
		}
	}
}

func (r *Router) probeAll() {
	var wg sync.WaitGroup
	r.ringMu.RLock() // held while the probes are launched, not while they run
	for _, s := range r.shards {
		wg.Add(1)
		go func(s *shardState) {
			defer wg.Done()
			s.noteProbe(r.healthCheck(s.placed().addr), r.cfg.failThreshold)
		}(s)
	}
	r.ringMu.RUnlock()
	wg.Wait()
}

// healthCheck issues one active health check: a shard is up when
// /v1/healthz answers 200 with status "ok" inside the probe timeout. A
// draining shard reports itself unhealthy here on purpose — it refuses new
// solves with 503, so routing must move its keys to the next replica now.
func (r *Router) healthCheck(addr string) probeResult {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/healthz", nil)
	if err != nil {
		return probeResult{errText: err.Error()}
	}
	start := time.Now()
	resp, err := r.client.Do(req)
	res := probeResult{latency: time.Since(start)}
	if err != nil {
		res.errText = err.Error()
		return res
	}
	defer resp.Body.Close()
	var h api.HealthResponse
	switch {
	case resp.StatusCode != http.StatusOK:
		res.errText = "healthz status " + resp.Status
	case json.NewDecoder(resp.Body).Decode(&h) != nil:
		res.errText = "healthz: undecodable body"
	case h.Status != "ok":
		res.errText = "healthz status " + h.Status
	default:
		res.ok = true
	}
	return res
}
