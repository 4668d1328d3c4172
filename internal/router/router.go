package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/server"
)

// maxBodyBytes mirrors the shard-side request bound.
const maxBodyBytes = 64 << 20

// maxTrackedKeys bounds the distinct-key distribution kept for statusz;
// once full, unseen keys are no longer tracked — statusz then reports
// the distribution as saturated and its distinct count as a floor.
const maxTrackedKeys = 4096

// Retry-After hints relayed with refusals, mirroring the shard side.
const (
	retryAfterSaturatedMillis = 250
	retryAfterDrainingMillis  = 1000
)

// The router's fixed parameters; the ring's vnode count is defaultVnodes.
const (
	// replicas is how many distinct ring successors a request may try: the
	// key's owner plus replicas−1 failover candidates.
	replicas = 2
	// probeTimeout bounds each active health probe.
	probeTimeout = time.Second
	// failThreshold ejects a shard after this many consecutive probe
	// failures, and opens the passive circuit after this many consecutive
	// forwarded-request failures.
	failThreshold = 3
	// requestTimeout bounds a forwarded solve when the request names no
	// deadline of its own. Requests carrying timeout_ms get that deadline
	// plus scheduling slack instead.
	requestTimeout = 2 * time.Minute
	// retryBodyBytes caps the request bodies eligible for replica failover.
	// Failover needs the whole body buffered for a bit-identical resend, so
	// bodies above the cap — huge inline matrices — are forwarded to the
	// key's owner only, in a single attempt, instead of pinning the buffer
	// across retries.
	retryBodyBytes = 8 << 20
	// retryBackoff is the base delay before the second attempt, doubling
	// per attempt with ±50% jitter (see retrySleep).
	retryBackoff = 25 * time.Millisecond
	// loadSlack bounds a shard's share of the router's in-flight right-hand
	// sides: a request leaves its key's owner for the ring successor only
	// while the owner would hold more than loadSlack times an even share
	// (see candidates).
	loadSlack = 1.25
	// maxIdlePerShard is how many idle connections the router keeps to each
	// shard — a shard's default queue depth — so a burst of concurrent
	// forwards reuses its connections instead of dialing again.
	maxIdlePerShard = 64
)

// DrainTimeout bounds the graceful drain of the http.Server the router is
// mounted on: the deadline of a forwarded solve that names none, so every
// in-flight forward can still deliver.
const DrainTimeout = requestTimeout

// Config parameterises the router. Zero values select the defaults.
type Config struct {
	// ProbeInterval paces the active health checks (default 2s).
	ProbeInterval time.Duration
	// RetryBudget is the per-request attempt ceiling (first try included,
	// default 4): attempts cycle the ring candidates until one answer is
	// relayable or the budget is spent. The budget is what keeps an
	// injected fault storm from amplifying into a retry storm — corrupt
	// responses, resets and 5xxs all draw from the same pool.
	RetryBudget int
	// AdminToken gates /debug/pprof: requests must carry it as a bearer
	// token. Empty disables profiling entirely (403).
	AdminToken string
	// Runtime materialises shards declared without an address — topology
	// entries whose addr is empty ask it to start the process and report
	// where it listens. Nil means address-less shards are rejected.
	Runtime ShardRuntime
	// Transport, when set, replaces the default shard-facing transport —
	// the seam the chaos injector wires into (-chaos-plan).
	Transport http.RoundTripper
	// ChaosStats, when set, contributes a fault-injection snapshot to
	// statusz (the chaos section is omitted otherwise).
	ChaosStats func() *api.ChaosStats
	// Logger receives request-scoped structured log lines (failovers,
	// budget exhaustion), each carrying the request's trace_id. Nil
	// discards them.
	Logger *slog.Logger
	// Observe, when set, is called once with the router's metrics
	// registry so the embedding process can contribute series of its own
	// (the resrouter daemon registers supervisor restart counts here).
	Observe func(*obs.Registry)

	// Tests override the fixed parameters of the same names here (vnodes:
	// defaultVnodes); zero keeps the constant.
	vnodes         int
	failThreshold  int
	retryBodyBytes int64
	retryBackoff   time.Duration
}

func (c Config) withDefaults() Config {
	if c.vnodes <= 0 {
		c.vnodes = defaultVnodes
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.failThreshold <= 0 {
		c.failThreshold = failThreshold
	}
	if c.retryBodyBytes <= 0 {
		c.retryBodyBytes = retryBodyBytes
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 4
	}
	if c.retryBackoff <= 0 {
		c.retryBackoff = retryBackoff
	}
	return c
}

// Shard names one routing target: a unique label and the base URL of a
// resilientd process. An empty Addr asks the configured ShardRuntime to
// materialise the process. VnodeWeight scales the shard's share of the
// ring relative to the router's default vnode count (0 = 1.0). Drained
// latches the shard off the ring: new keys route past it, in-flight
// requests finish, and the probes keep watching it.
type Shard struct {
	Name        string  `json:"name"`
	Addr        string  `json:"addr"`
	VnodeWeight float64 `json:"vnode_weight,omitempty"`
	Drained     bool    `json:"drained,omitempty"`
}

// maxVnodeWeight bounds a shard's relative ring weight: high enough for
// any sane capacity skew, low enough that one entry cannot blow the
// point list up.
const maxVnodeWeight = 16.0

// vnodesFor maps a relative weight to a concrete vnode count on this
// router's ring (weight 0 = the default count; always at least 1).
func (r *Router) vnodesFor(weight float64) int {
	if weight == 0 {
		return r.cfg.vnodes
	}
	n := int(weight*float64(r.cfg.vnodes) + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// Router is the consistent-hash routing tier. Construct with New, mount
// Handler, Shutdown to drain. Membership is live (see the package doc).
type Router struct {
	cfg     Config
	client  *http.Client
	runtime ShardRuntime

	// applyMu serialises reconcile's callers; readers of ring/shards take
	// ringMu only.
	applyMu sync.Mutex

	ringMu sync.RWMutex
	ring   *Ring
	shards map[string]*shardState

	keysMu sync.Mutex
	keys   map[uint64]string // key hash -> the shard that last answered it (a spill names the owner)

	mux     *http.ServeMux
	started time.Time
	// drainMu orders solve admission against StartDraining: an admission
	// holds the read side while it checks draining and registers with
	// inflight, so once StartDraining returns, no new inflight.Add can
	// race Shutdown's inflight.Wait at zero.
	drainMu  sync.RWMutex
	draining atomic.Bool
	inflight sync.WaitGroup
	stopOnce sync.Once
	stop     chan struct{}
	probing  sync.WaitGroup

	// load is the right-hand sides in flight over every shard: the sum of
	// the shards' load, the T of the bound candidates applies.
	load atomic.Int64

	routed     atomic.Int64
	failovers  atomic.Int64
	spilled    atomic.Int64
	unroutable atomic.Int64

	// Integrity counters: every forwarded response is digest- and
	// schema-verified before relay (see fetch).
	digestVerified   atomic.Int64
	corruptResponses atomic.Int64
	retriesSpent     atomic.Int64
	budgetExhausted  atomic.Int64

	streamedPassthrough atomic.Int64 // streaming solves relayed unbuffered

	tracer  *obs.Tracer
	metrics *obs.Registry
	reqHist *obs.Histogram
	logger  *slog.Logger
}

// New builds a router over the shard set — applied like a topology reload,
// from the empty set — and starts its health prober. Shards start healthy
// (optimistic admission); the prober ejects dead ones within failThreshold
// probe intervals. Shards with an empty Addr are materialised through
// cfg.Runtime; when one fails to start, those already started are stopped.
func New(cfg Config, shards []Shard) (*Router, error) {
	cfg = cfg.withDefaults()
	transport := cfg.Transport
	if transport == nil {
		// The router's own pool: http.DefaultTransport keeps two idle
		// connections per host, so a third concurrent forward to one shard
		// would close a connection on every answer, and Shutdown would empty
		// the process-wide pool.
		own := http.DefaultTransport.(*http.Transport).Clone()
		own.MaxIdleConnsPerHost = maxIdlePerShard
		transport = own
	}
	r := &Router{
		cfg:     cfg,
		client:  &http.Client{Transport: transport},
		runtime: cfg.Runtime,
		ring:    NewRing(cfg.vnodes),
		shards:  make(map[string]*shardState, len(shards)),
		keys:    make(map[uint64]string),
		started: time.Now(),
		stop:    make(chan struct{}),
		tracer:  obs.NewTracer(api.TierRouter, obs.DefaultTraceRing),
		logger:  cfg.Logger,
	}
	if r.logger == nil {
		r.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	r.registerMetrics()
	if cfg.Observe != nil {
		cfg.Observe(r.metrics)
	}
	if _, err := r.Apply(Topology{Shards: shards}); err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", r.routeSolve)
	mux.HandleFunc("/v1/solve/batch", r.routeSolve)
	mux.HandleFunc("/v1/statusz", r.handleStatusz)
	mux.HandleFunc("/v1/healthz", r.handleHealthz)
	mux.HandleFunc("/v1/tracez", r.handleTracez)
	mux.Handle("/metrics", r.metrics.Handler())
	api.MountPprof(mux, cfg.AdminToken)
	r.mux = mux
	r.probing.Add(1)
	go r.probeLoop(time.NewTicker(cfg.ProbeInterval))
	return r, nil
}

// Handler returns the HTTP API: /v1/solve (routed), /v1/statusz,
// /v1/healthz, /v1/tracez, /metrics and the token-gated /debug/pprof.
func (r *Router) Handler() http.Handler { return r.mux }

// StartDraining refuses new solves with 503 without blocking.
func (r *Router) StartDraining() {
	r.drainMu.Lock()
	r.draining.Store(true)
	r.drainMu.Unlock()
}

// Shutdown drains: new solves are refused, in-flight forwards complete,
// the prober stops, and the membership is reconciled to the empty set,
// which stops the runtime-managed shards. Idempotent.
func (r *Router) Shutdown() {
	r.StartDraining()
	r.stopOnce.Do(func() { close(r.stop) })
	r.probing.Wait()
	r.inflight.Wait()
	r.applyMu.Lock()
	_, _ = r.reconcile(nil) // to the empty set: nothing joins, so nothing can fail
	r.applyMu.Unlock()
	r.client.CloseIdleConnections()
}

// candidates returns the failover sequence for a key and a request of w
// right-hand sides: up to replicas distinct ring successors, routable shards
// first, then — only if every candidate is ejected — the unhealthy ones
// anyway, so a fully-ejected shard set degrades to optimistic forwarding
// instead of refusing outright. Drained shards are never candidates: they
// are off the ring, so Successors cannot name them.
//
// The routable shards keep ring order unless the owner is busy: consistent
// hashing with bounded loads (Mirrokni, Thorup and Zadimoghaddam) puts first
// the first of the two whose load after taking the request is at most
// ⌈loadSlack·(T + w)/N⌉ — load being in-flight right-hand sides, T the
// router's total and N the shards on the ring — and, when neither fits, the
// less loaded one, the owner on ties. An idle ring, one request at a time and
// two single callers over two shards therefore route to the owner. spilled
// reports that the owner was put second.
func (r *Router) candidates(key string, w int64) (out []*shardState, spilled bool) {
	r.ringMu.RLock()
	names := r.ring.successors(key, replicas)
	onRing := r.ring.size()
	out = make([]*shardState, 0, len(names))
	var down []*shardState
	for _, n := range names {
		if s := r.shards[n]; s != nil {
			if s.isRoutable() {
				out = append(out, s)
			} else {
				down = append(down, s)
			}
		}
	}
	r.ringMu.RUnlock()
	if len(out) == 2 && spills(out[0].load.Load(), out[1].load.Load(), r.load.Load(), w, onRing) {
		out[0], out[1] = out[1], out[0]
		spilled = true
	}
	return append(out, down...), spilled
}

// spills is the bounded-load rule for a request of w right-hand sides whose
// owner holds owner of them and whose ring successor holds next, with total
// in flight over n ring shards: true sends it to the successor.
func spills(owner, next, total, w int64, n int) bool {
	bound := int64(math.Ceil(loadSlack * float64(total+w) / float64(n)))
	switch {
	case owner+w <= bound:
		return false
	case next+w <= bound:
		return true
	default:
		return next < owner
	}
}

// carry adds w right-hand sides to a shard's load and the router's total
// (negative w takes them off): every forward holds its width for as long as
// it is in flight.
func (r *Router) carry(s *shardState, w int64) {
	s.load.Add(w)
	r.load.Add(w)
}

// trackKey attributes a routed key to the shard that served it, for the
// statusz distribution (bounded; drops attribution past the cap).
func (r *Router) trackKey(key string, shard string) {
	h := keyHash(key)
	r.keysMu.Lock()
	if _, ok := r.keys[h]; ok || len(r.keys) < maxTrackedKeys {
		r.keys[h] = shard
	}
	r.keysMu.Unlock()
}

// forgetShardKeys drops the key attributions of a shard leaving the ring
// (drain or removal): its keys re-attribute to their new owners as
// traffic replays them, so statusz reflects the post-change placement.
func (r *Router) forgetShardKeys(name string) {
	r.keysMu.Lock()
	for h, shard := range r.keys {
		if shard == name {
			delete(r.keys, h)
		}
	}
	r.keysMu.Unlock()
}

// routeSolve forwards a single or batched solve to the first of its matrix
// identity's ring candidates (see candidates), failing over across them.
// Batch requests route by the same key as their singles — the embedded
// SolveRequest carries the matrix — so batched and single solves of one
// matrix warm the same two shards at most.
func (r *Router) routeSolve(w http.ResponseWriter, req *http.Request) {
	path := req.URL.Path // the mux routes exactly /v1/solve and /v1/solve/batch here
	if req.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, errors.New("POST only"), 0)
		return
	}
	// Mint (or adopt) the request's trace ID before anything can fail:
	// every answer this handler writes — success or error envelope —
	// carries the header, and every shard attempt forwards it.
	tr := r.tracer.Start(req.Header.Get(api.TraceHeader))
	defer r.tracer.Finish(tr)
	w.Header().Set(api.TraceHeader, tr.ID())
	r.drainMu.RLock()
	if r.draining.Load() {
		r.drainMu.RUnlock()
		tr.SetError(api.CodeDraining)
		api.WriteError(w, http.StatusServiceUnavailable, api.CodeDraining, errors.New("router: shutting down"), retryAfterDrainingMillis)
		return
	}
	r.inflight.Add(1)
	r.drainMu.RUnlock()
	defer r.inflight.Done()

	// The body is read whole up front: the routing key comes out of it,
	// and a retry on the next replica needs to resend it bit-identically.
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	if err != nil {
		tr.SetError(api.CodeBadRequest)
		respondBadRequest(w, fmt.Errorf("reading request: %w", err))
		return
	}
	breq, id, err := r.identify(path, body)
	if err != nil {
		tr.SetError(api.CodeBadRequest)
		respondBadRequest(w, err)
		return
	}
	sreq := &breq.SolveRequest
	width := int64(max(1, len(breq.RHS))) // a single or a stream is one right-hand side
	cands, spilled := r.candidates(id.Key, width)
	if len(cands) == 0 {
		r.unroutable.Add(1)
		tr.SetError(api.CodeUnroutable)
		api.WriteError(w, http.StatusBadGateway, api.CodeUnroutable, errors.New("router: no shard available"), 0)
		return
	}
	// home is where routing with no load sends the key: its first routable
	// ring candidate. A spill still attributes the key to it in statusz.
	home := cands[0]
	if spilled {
		home = cands[1]
	}
	if path == "/v1/solve" && api.WantsStream(req) {
		// Streaming is explicitly non-idempotent at the relay layer: frames
		// go to the client as they arrive, so once the stream starts there
		// is nothing to retry or buffer. Dedicated pass-through path, to the
		// key's home.
		r.streamSolve(w, req, sreq, id.Key, body, home, tr)
		return
	}
	budget := r.cfg.RetryBudget
	if int64(len(body)) > r.cfg.retryBodyBytes {
		// Too large to hold for a resend: single attempt on the first
		// candidate, no failover. The solve still runs; only retry is waived.
		cands = cands[:1]
		budget = 1
	}

	ctx, cancel := context.WithTimeout(req.Context(), r.deadlineFor(sreq))
	defer cancel()

	// Attempts cycle the candidate list until one response is relayable
	// or the per-request budget is spent. The budget bounds every retry
	// cause at once — connection failures, 5xx refusals and corrupt
	// (digest- or schema-failing) responses — so a fault storm between
	// router and shards cannot amplify into a retry storm.
	var lastErr error
	var retryHint time.Duration
	for attempt := 0; attempt < budget; attempt++ {
		if attempt > 0 {
			r.failovers.Add(1)
			r.retriesSpent.Add(1)
			r.logger.Warn("failover retry", "trace_id", tr.ID(), "path", path, "attempt", attempt, "last_error", fmt.Sprint(lastErr))
			if !r.retrySleep(ctx, attempt, retryHint) {
				break
			}
		}
		shard := cands[attempt%len(cands)]
		if attempt == 0 && spilled {
			r.spilled.Add(1)
		}
		t0 := tr.Now()
		rel, hint, err := r.fetch(ctx, shard, path, body, width, tr.ID())
		name := obs.SpanAttempt
		if attempt > 0 {
			name = obs.SpanRetry
		}
		tr.AddSpan(name, shard.name, "", t0, tr.Now()-t0)
		if rel != nil {
			if rel.verifyNanos > 0 {
				tr.AddSpan(obs.SpanDigestVerify, rel.shard.name, "", tr.Now()-rel.verifyNanos, rel.verifyNanos)
			}
			tr.AddSpan(obs.SpanRoute, rel.shard.name, path, 0, tr.Now())
			r.reqHist.Observe(float64(tr.Now()) / 1e9)
			r.relay(w, rel, attempt > 0)
			r.routed.Add(1)
			served := rel.shard
			if attempt == 0 {
				served = home
			}
			r.trackKey(id.Key, served.name)
			return
		}
		lastErr = err
		retryHint = hint
		if ctx.Err() != nil {
			break
		}
	}
	if ctx.Err() == nil {
		r.budgetExhausted.Add(1)
	}
	r.unroutable.Add(1)
	status := http.StatusBadGateway
	code := api.CodeUnroutable
	retry := 0
	switch {
	case ctx.Err() != nil:
		status = http.StatusGatewayTimeout
		code = api.CodeExpired
	case errors.Is(lastErr, errSaturated):
		// Every candidate was merely full: relay the backpressure as the
		// 429 a single shard would have answered.
		status = http.StatusTooManyRequests
		code = api.CodeSaturated
		retry = retryAfterSaturatedMillis
	}
	tr.SetError(code)
	r.logger.Warn("request exhausted", "trace_id", tr.ID(), "path", path, "code", code, "last_error", fmt.Sprint(lastErr))
	api.WriteError(w, status, code, fmt.Errorf("router: %d attempts over %d candidate shards failed, last: %w", budget, len(cands), lastErr), retry)
}

// identify decodes, defaults and validates a solve body — a single's or a
// batch's, which embeds one; a single's has no RHS — by the shard's own rule
// (server.Decode), and resolves the routing key: the shard-side cache
// identity of its matrix. An inline operand is keyed by its bytes and never
// parsed here: what only its parse refuses, the shard refuses and the
// router relays. A key's artifacts are warm on its ring owner, and on the
// owner's successor once load has spilled it there (see candidates). Every
// error it returns is the client's (400).
func (r *Router) identify(path string, body []byte) (*api.BatchSolveRequest, server.Identity, error) {
	breq := new(api.BatchSolveRequest)
	var decoded server.SolveBody = &breq.SolveRequest
	if path == "/v1/solve/batch" {
		decoded = breq
	}
	id, err := server.Decode(body, decoded, &breq.SolveRequest)
	if err != nil {
		return nil, server.Identity{}, err
	}
	return breq, id, nil
}

// deadlineFor is how long a forwarded solve may take: the request's own
// timeout_ms plus forwarding slack (the shard still enforces the precise
// one), or requestTimeout when it names none.
func (r *Router) deadlineFor(sreq *api.SolveRequest) time.Duration {
	if sreq.TimeoutMillis > 0 {
		return time.Duration(sreq.TimeoutMillis)*time.Millisecond + 15*time.Second
	}
	return requestTimeout
}

// shardRequest builds the POST that carries a solve body to a shard.
func shardRequest(ctx context.Context, s *shardState, path string, body []byte, traceID string) (*http.Request, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.placed().addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	// Propagate the trace so the shard's spans land under the same ID —
	// every attempt of a failover round shares it.
	hreq.Header.Set(api.TraceHeader, traceID)
	// GetBody lets seam transports (the chaos injector) fingerprint the
	// request without consuming the primary reader.
	hreq.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	return hreq, nil
}

// errSaturated marks a 429 refusal: retryable on the next replica, and
// relayed as 429 (not 502) when every candidate refuses.
var errSaturated = errors.New("shard queue saturated (429)")

// maxRetryAfterHint clamps a shard-supplied retry_after_ms before the
// router honors it internally: a shard cannot stall a routed request's
// retry loop for longer than this per attempt.
const maxRetryAfterHint = 2 * time.Second

// retrySleep paces one retry: the jittered exponential backoff
// (retryBackoff·2^(attempt−1), ±50%) or the shard's retry_after hint
// (429/503 envelope), whichever is longer. Returns false when the request
// deadline expires mid-wait. Jitter decorrelates concurrent retry waves;
// it never touches result bytes, so the determinism gates are indifferent
// to it.
func (r *Router) retrySleep(ctx context.Context, attempt int, hint time.Duration) bool {
	d := r.cfg.retryBackoff << uint(attempt-1)
	d = d/2 + time.Duration(rand.Int63n(int64(d)+1))
	if hint > maxRetryAfterHint {
		hint = maxRetryAfterHint
	}
	if hint > d {
		d = hint
	}
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// retryAfterHint pulls the retry_after_ms hint out of a 429/503 envelope
// body, so the internal retry path honors the same backpressure signal
// the envelope relays to clients.
func retryAfterHint(body []byte) time.Duration {
	var e api.Error
	if json.Unmarshal(body, &e) != nil || e.RetryAfterMillis <= 0 {
		return 0
	}
	return time.Duration(e.RetryAfterMillis) * time.Millisecond
}

// relayable is one fully verified shard answer, buffered and ready to
// write to the client. Splitting fetch (talk to the shard, verify) from
// relay (write to the client) is what makes failover possible: an attempt
// whose bytes fail to arrive whole or to verify has written nothing, so the
// next replica can still answer.
type relayable struct {
	status  int
	ctype   string
	digest  string
	payload []byte
	shard   *shardState
	// verifyNanos is the time spent digest- and schema-verifying the
	// payload; the relayed answer's verification becomes a trace span.
	verifyNanos int64
}

// fetch sends the solve — w right-hand sides, carried as the shard's load
// until it returns — to one shard and returns the verified answer.
// A nil relayable with the cause means the next replica should be
// tried: the solve is deterministic and idempotent, so retrying is
// always safe when the shard could not take the request — a connection
// failure, a 503 (draining) or a 429 (queue saturated; the replica can
// absorb the burst) — or when the response failed integrity
// verification: a stamped digest that does not match the received
// bytes, or a 200 body without the current schema stamp, is treated
// exactly like a connection failure (the bytes are corrupt; the next
// shard computes the identical answer). Responses the shard actually
// computed and that verify — 200s, validation 4xxs, solver 5xxs — are
// relayable, not retried. hint carries a shard-supplied retry_after_ms
// to pace the next attempt.
func (r *Router) fetch(ctx context.Context, s *shardState, path string, body []byte, w int64, traceID string) (rel *relayable, hint time.Duration, err error) {
	hreq, err := shardRequest(ctx, s, path, body, traceID)
	if err != nil {
		return nil, 0, err
	}
	r.carry(s, w)
	defer r.carry(s, -w)
	s.inflight.Add(1)
	start := time.Now()
	resp, err := r.client.Do(hreq)
	latency := time.Since(start)
	s.inflight.Add(-1)
	if err != nil {
		// A deadline or client disconnect shows up here as a context
		// error: that says nothing about the shard's health, so it must
		// not feed the circuit breaker.
		if ctx.Err() == nil {
			s.notePassive(false, err.Error(), r.cfg.failThreshold)
		}
		return nil, 0, err
	}
	defer resp.Body.Close()
	s.routed.Add(1)
	s.observeLatency(latency)
	switch resp.StatusCode {
	case http.StatusServiceUnavailable:
		// Draining or refusing: the next replica can serve this key, after
		// any backoff the shard asked for.
		refusal, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		s.notePassive(false, "shard answered 503", r.cfg.failThreshold)
		return nil, retryAfterHint(refusal), fmt.Errorf("%s: 503 from shard", s.name)
	case http.StatusTooManyRequests:
		// Saturated, not sick: spill to the replica without feeding the
		// circuit breaker. Backpressure reaches the client only when
		// every candidate refuses.
		refusal, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return nil, retryAfterHint(refusal), fmt.Errorf("%s: %w", s.name, errSaturated)
	}
	// Buffer the body before relaying: once headers go to the client the
	// request cannot fail over, so a connection that dies mid-body (the
	// shard was killed while answering) must surface here — before
	// anything was written — and be retried on the next replica.
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		if ctx.Err() == nil {
			s.notePassive(false, err.Error(), r.cfg.failThreshold)
		}
		return nil, 0, fmt.Errorf("%s: reading shard response: %w", s.name, err)
	}
	// End-to-end integrity: recompute the stamped content digest over the
	// exact received bytes, and require the current schema stamp inside
	// every 200 body. A failure means the bytes in hand are not what the
	// shard computed — never relay them.
	verifyStart := time.Now()
	digest := resp.Header.Get(api.DigestHeader)
	if !api.VerifyDigest(digest, payload) {
		r.corruptResponses.Add(1)
		s.notePassive(false, "response digest mismatch", r.cfg.failThreshold)
		return nil, 0, fmt.Errorf("%s: response digest mismatch (corrupt body)", s.name)
	}
	if resp.StatusCode == http.StatusOK {
		var stamp struct {
			Schema int `json:"schema"`
		}
		if json.Unmarshal(payload, &stamp) != nil || stamp.Schema != api.SchemaVersion {
			r.corruptResponses.Add(1)
			s.notePassive(false, "response schema violation", r.cfg.failThreshold)
			return nil, 0, fmt.Errorf("%s: response schema violation (corrupt body)", s.name)
		}
	}
	verifyNanos := time.Since(verifyStart).Nanoseconds()
	if digest != "" {
		r.digestVerified.Add(1)
	}
	s.notePassive(resp.StatusCode < 500, "shard answered "+resp.Status, r.cfg.failThreshold)
	return &relayable{
		status:      resp.StatusCode,
		ctype:       resp.Header.Get("Content-Type"),
		digest:      digest,
		payload:     payload,
		shard:       s,
		verifyNanos: verifyNanos,
	}, 0, nil
}

// relay writes one verified shard answer to the client, with the
// provenance headers: which shard served it and whether it took a
// failover.
func (r *Router) relay(w http.ResponseWriter, rel *relayable, isRetry bool) {
	h := w.Header()
	if rel.ctype != "" {
		h.Set("Content-Type", rel.ctype)
	}
	if rel.digest != "" {
		// Relay the verified digest so the client can check the final hop.
		h.Set(api.DigestHeader, rel.digest)
	}
	h.Set("X-Resilient-Shard", rel.shard.name)
	if isRetry {
		h.Set("X-Resilient-Failover", "true")
	}
	w.WriteHeader(rel.status)
	w.Write(rel.payload)
}

// handleStatusz answers the cross-tier introspection contract: the typed
// RouterzResponse, wrapped in a StatuszResponse that names the tier. Shards expose the shard-shaped variant at the same path, so one
// client call pattern reads either tier.
func (r *Router) handleStatusz(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		api.WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, errors.New("GET only"), 0)
		return
	}
	rz := r.routerz()
	api.WriteJSON(w, http.StatusOK, api.StatuszResponse{
		Schema: api.SchemaVersion,
		Tier:   api.TierRouter,
		Build:  r.buildInfo(),
		Router: &rz,
	})
}

// routerz snapshots the router for the router section of /v1/statusz.
func (r *Router) routerz() api.RouterzResponse {
	// Iterate the shard map, not the ring: drained shards are off the
	// ring but operators still need to watch them coast to idle.
	r.ringMu.RLock()
	names := make([]string, 0, len(r.shards))
	for n := range r.shards {
		names = append(names, n)
	}
	sort.Strings(names)
	statuses := make([]api.ShardStatus, 0, len(names))
	healthy := 0
	for _, n := range names {
		// Report the shard's actual point count on the ring: weighted
		// shards own more or fewer than the default, drained shards zero.
		st := r.shards[n].status(r.ring.vnodesOf(n))
		if st.Healthy {
			healthy++
		}
		statuses = append(statuses, st)
	}
	r.ringMu.RUnlock()

	perShard := make(map[string]int, len(names))
	r.keysMu.Lock()
	distinct := len(r.keys)
	for _, shard := range r.keys {
		perShard[shard]++
	}
	r.keysMu.Unlock()

	out := api.RouterzResponse{
		Schema:        api.SchemaVersion,
		UptimeSeconds: time.Since(r.started).Seconds(),
		Vnodes:        r.cfg.vnodes,
		Replicas:      replicas,
		Draining:      r.draining.Load(),
		Shards:        statuses,
		HealthyShards: healthy,
		Routed:        r.routed.Load(),
		Failovers:     r.failovers.Load(),
		Spilled:       r.spilled.Load(),
		Unroutable:    r.unroutable.Load(),
		Keys: api.KeyDistribution{
			Distinct:  distinct,
			Saturated: distinct >= maxTrackedKeys,
			PerShard:  perShard,
		},
		Integrity: api.IntegrityStats{
			DigestVerified:   r.digestVerified.Load(),
			CorruptResponses: r.corruptResponses.Load(),
			RetriesSpent:     r.retriesSpent.Load(),
			BudgetExhausted:  r.budgetExhausted.Load(),
		},
		StreamedPassthrough: r.streamedPassthrough.Load(),
	}
	if r.cfg.ChaosStats != nil {
		out.Chaos = r.cfg.ChaosStats()
	}
	return out
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	status := "ok"
	if r.draining.Load() {
		status = "draining"
	}
	healthy, total := r.healthyShards()
	api.WriteJSON(w, http.StatusOK, api.RouterHealth{
		Schema:        api.SchemaVersion,
		Status:        status,
		HealthyShards: healthy,
		TotalShards:   total,
	})
}

func respondBadRequest(w http.ResponseWriter, err error) {
	api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, err, 0)
}
