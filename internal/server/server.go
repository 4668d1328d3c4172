// Package server implements the resident resilient-solve service: a
// long-running HTTP/JSON front end over the scenario harness that accepts
// solve requests (a named matrix spec or an inline CSR, a solver, a
// protection scheme and fault-injection knobs), schedules them over a fixed
// number of solver slots — each solve runs on one goroutine, the slots are
// the shard's parallelism — with a bounded queue and per-request deadlines,
// and answers with the same schema-versioned result records the campaign
// tooling emits.
//
// Its core is a per-matrix artifact cache: the assembled CSR, the ABFT
// checksum encodings, explicit preconditioners, manufactured right-hand
// sides, model-optimal checkpoint/verification intervals and a pool of warm
// solver workspaces are all built once per matrix and reused across
// requests, so a warm fault-free solve of a known matrix performs zero heap
// allocations on the request hot path (gated by alloc_test.go) and repeated
// identical requests return bit-identical residual-history hashes.
//
// Every solve request, whatever its edge — buffered single, multi-RHS
// batch or SSE stream — runs through one pipeline: admit (decode, validate,
// make the matrix resident), await (queue, wait, account) and response (the
// wire answer of one lane). There is one solve path as well: every group the
// scheduler runs — coalesced singles, a batch, a lone single or stream as a
// group of one — is one blocked solve (runGroup, harness.SolveBlockWith),
// each lane bit-identical to harness.SolveWith of that system alone, the
// reference the tests hold it to. The wire contract itself — every request and
// response body, the error envelope, and the schema version — lives in
// internal/api: server, router and clients all marshal the same types, so
// the contract cannot drift between them.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// maxBodyBytes bounds a request body (inline matrices dominate).
const maxBodyBytes = 64 << 20

// solveWorkers is what the "workers" field of a result record and of
// /v1/statusz reads: a solve runs on one core. The field stays on the wire
// until a schema bump can drop it.
const solveWorkers = 1

// The shard's fixed limits.
const (
	// maxCoalesce caps the total right-hand sides merged into one blocked
	// solve when queued requests share a matrix and scenario axes. Merging
	// never changes result bits — each merged system solves exactly as it
	// would alone.
	maxCoalesce = 8
	// cacheEntries bounds the per-matrix artifact cache (LRU-evicted).
	cacheEntries = 32
	// cacheBytes additionally bounds the cache by the estimated memory
	// footprint of the resident matrices (NNZ-derived, so one huge inline
	// matrix weighs what it costs, not one slot).
	cacheBytes = 256 << 20
	// cacheTTL ages out entries idle for longer than this on a background
	// ticker.
	cacheTTL = 15 * time.Minute
	// defaultTimeout applies when a request names no deadline; maxTimeout
	// clamps requested deadlines.
	defaultTimeout = 30 * time.Second
	maxTimeout     = 5 * time.Minute
)

// DrainTimeout bounds the graceful drain of the http.Server the service is
// mounted on: the clamp on a request's deadline, so every admitted solve can
// still deliver.
const DrainTimeout = maxTimeout

// Config parameterises the service. Zero values select the defaults.
type Config struct {
	// Concurrency is the number of solves executing at once (default
	// GOMAXPROCS/2, at least 1), each on one goroutine: the slots are all
	// the parallelism a shard has.
	Concurrency int
	// QueueDepth bounds the requests queued but not yet solving (default
	// 64); submissions beyond it are rejected with HTTP 429.
	QueueDepth int
	// ShardLabel names this process in a sharded deployment; it is echoed
	// in /v1/healthz and stamped into every result record's Shard field so
	// routed responses carry their provenance.
	ShardLabel string
	// AdminToken, when non-empty, unlocks the /debug/pprof endpoints via
	// bearer auth; with no token profiling answers 403.
	AdminToken string

	// Tests override the fixed limits of the same names here; zero keeps
	// the constant.
	maxCoalesce  int
	cacheEntries int
	cacheBytes   int64
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = max(1, runtime.GOMAXPROCS(0)/2)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.maxCoalesce <= 0 {
		c.maxCoalesce = maxCoalesce
	}
	if c.cacheEntries <= 0 {
		c.cacheEntries = cacheEntries
	}
	if c.cacheBytes <= 0 {
		c.cacheBytes = cacheBytes
	}
	return c
}

// Server is the resident solve service. Construct with New, mount
// Handler on an http.Server, and Shutdown to drain.
type Server struct {
	cfg      Config
	cache    *cache
	sched    *scheduler
	mux      *http.ServeMux
	started  time.Time
	draining atomic.Bool

	completed atomic.Int64
	failed    atomic.Int64
	rejected  atomic.Int64
	expired   atomic.Int64
	// parsed counts the inline operands parsed: one per cache fill, and one
	// more for each request that raced a fill of its operand.
	parsed atomic.Int64

	tracer    *obs.Tracer
	metrics   *obs.Registry
	solveHist *obs.Histogram
	queueHist *obs.Histogram

	// testHookPreSolve, when non-nil, runs on the scheduler goroutine
	// after a task is claimed and before its solve — a deterministic seam
	// for the saturation and drain tests.
	testHookPreSolve func()
}

// New builds a ready-to-serve service.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newCache(cfg.cacheEntries, cfg.cacheBytes, cacheTTL),
		sched:   newScheduler(cfg.Concurrency, cfg.QueueDepth, cfg.maxCoalesce),
		started: time.Now(),
		tracer:  obs.NewTracer(api.TierShard, obs.DefaultTraceRing),
	}
	s.registerMetrics()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/v1/solve/batch", s.handleSolveBatch)
	mux.HandleFunc("/v1/statusz", s.handleStatusz)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/tracez", s.handleTracez)
	mux.Handle("/metrics", s.metrics.Handler())
	api.MountPprof(mux, cfg.AdminToken)
	s.mux = mux
	return s
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// StartDraining flips the service into drain mode without blocking: new
// solve requests are refused with 503 and /v1/healthz reports "draining",
// while admitted work continues. Callers embedding the handler in an
// http.Server call it before stopping that server, so health probes see
// the documented draining state instead of a vanished listener. Shutdown
// implies it.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Shutdown drains gracefully: new solve requests are refused with 503
// immediately and every request already admitted to the queue still runs to
// completion. Idempotent. Callers embedding the handler in an http.Server
// should stop that server first so in-flight handlers can collect their
// results.
func (s *Server) Shutdown() {
	s.StartDraining()
	s.sched.shutdown()
	s.cache.close()
}

func (s *Server) timeoutFor(ms int) time.Duration {
	if ms <= 0 {
		return defaultTimeout
	}
	return min(time.Duration(ms)*time.Millisecond, maxTimeout)
}

// solveOutcome is what a solve hands back to the handler for one
// right-hand side: the raw stats, the residual-history fingerprint bits and
// the measured solve time. Formatting into the response record happens off
// the solve path.
type solveOutcome struct {
	stats      core.Stats
	hash       uint64
	err        error
	solveNanos int64
}

// coalesceKey names the axes a queued request must share to be merged into
// one blocked solve: the matrix identity plus every scenario axis except
// the per-RHS seeds and the deadline. Requests with equal keys are
// interchangeable lanes of one block.
func coalesceKey(idKey string, r *api.SolveRequest) string {
	return fmt.Sprintf("%s|%s|%s|%s|%g|%g|%d|%d|%d",
		idKey, r.Solver, r.Precond, r.Scheme, r.Alpha, r.Tol, r.MaxIters, r.S, r.D)
}

// runGroup is the one solve path. It executes one scheduled group — the
// leader task plus any queued same-key tasks the worker merged in; a single
// request alone is a group of one, a streamed one always is — as one blocked
// solve, and fills every member's outs and coalesced width. sc is the
// leader's scenario; key equality guarantees every member shares its axes,
// so only the per-RHS seeds vary.
//
// It draws a warm block context from the entry's pool and resolves every
// per-matrix artifact from the cache (right-hand sides, preconditioner,
// model-optimal intervals), so a warm fault-free group performs zero heap
// allocations (gated by alloc_test.go); fault-injecting groups additionally
// construct their injectors. Each lane's residual history, statistics and
// outcome are bit-identical to a single solve of that system
// (blocked_test.go), so identical (entry, scenario, seeds) always answer
// identically, merged or not. A streamed leader's observers watch the solve:
// onIter every useful iteration (after the fingerprint recorder), onDet —
// recorded in the trace as well — every fault-detection episode.
func (s *Server) runGroup(ent *entry, sc harness.Scenario, group []*task) {
	k := 0
	for _, t := range group {
		k += len(t.specs)
	}
	s.cache.noteBatchWidth(ent, k)
	c := ent.bctxs.Get().(*batchCtx)
	defer ent.bctxs.Put(c)
	c.grow(k)
	i := 0
	for _, t := range group {
		t.coalesced = k
		for _, spec := range t.specs {
			c.bs[i] = ent.rhsFor(spec.ResolvedRHSSeed())
			c.seeds[i] = spec.Seed
			c.hists[i] = c.hists[i][:0]
			i++
		}
	}
	opt := harness.BlockOpts{Ws: c.ws, OnIteration: c.record}
	lead := group[0] // a streamed task is a group of one: its observers watch
	c.trace, c.onIter, c.onDet = lead.trace, lead.onIter, lead.onDet
	if lead.onDet != nil {
		opt.OnDetection = c.detect
	}

	var nanos int64
	sc, m, err := ent.artifactsFor(sc)
	if err == nil {
		opt.M = m
		start := time.Now()
		_, err = harness.SolveBlockWith(ent.a, c.bs[:k], sc, c.seeds[:k], opt, c.sts[:k], c.errs[:k])
		nanos = time.Since(start).Nanoseconds()
	}
	c.trace, c.onIter, c.onDet = nil, nil, nil // detached before the context returns to the pool

	i = 0
	for _, t := range group {
		for j := range t.specs {
			out := &t.outs[j]
			*out = solveOutcome{err: err, solveNanos: nanos}
			if err == nil {
				out.stats, out.err = c.sts[i], c.errs[i]
				out.hash = harness.HashBits(c.hists[i])
			}
			i++
		}
	}
}

// SolveBody is what admission needs of a request body; both
// *api.SolveRequest and *api.BatchSolveRequest provide it.
type SolveBody interface {
	WithDefaults()
	Validate() error
}

// admission is a request that passed admission: decoded and validated, its
// trace started and its matrix resident. The edge that called admit owns
// finishing the trace.
type admission struct {
	tr  *obs.Active
	ent *entry
	hit bool
	// key is the coalescing identity (coalesceKey) of the matrix and axes.
	key string
	// axes are the scenario axes every lane shares: the request itself,
	// or the SolveRequest a batch embeds.
	axes *api.SolveRequest
}

// refuse answers a traced request with the error envelope and marks its
// trace with the same code.
func refuse(w http.ResponseWriter, tr *obs.Active, status int, code string, err error, retryMillis int) {
	tr.SetError(code)
	api.WriteError(w, status, code, err, retryMillis)
}

// decode reads the request body whole and hands it to Decode; every error
// it returns is the client's (400).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, body SolveBody, axes *api.SolveRequest) (Identity, error) {
	src, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return Identity{}, fmt.Errorf("reading request: %w", err)
	}
	return Decode(src, body, axes)
}

// resident returns the cache entry of id's matrix, materialised, and
// whether the cache held it. An inline operand is looked up by its bytes
// and parsed only on a miss, before the cache admits anything: an operand
// the parse refuses leaves no entry behind and moves no counter, so a flood
// of them evicts nothing. The entry takes its label and size from the
// parsed matrix; one whose ‖A‖₁ overflows is a sticky entry that its Build
// refuses (withShift).
func (s *Server) resident(id Identity) (*entry, bool, error) {
	if id.op != nil {
		if ent, ok := s.cache.lookup(id.Key); ok {
			// A request that finds the entry before its filler materialises
			// it builds it as the filler would, and its parse is counted.
			return ent, true, ent.materialise(func() (*sparse.CSR, error) {
				s.parsed.Add(1)
				return id.Build()
			})
		}
		s.parsed.Add(1)
		var err error
		if id, err = id.parse(); err != nil {
			return nil, false, err
		}
	}
	ent, hit := s.cache.get(id.Key, id.Label, id.Spec)
	return ent, hit, ent.materialise(id.Build)
}

// admit is the front half of every solve request, whatever its edge: it
// decodes body (whose scenario axes are axes), validates it and makes the
// matrix resident. A nil result means the request was already answered —
// 405, 503 while draining, or a 400 naming what is wrong — and its trace
// finished.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, body SolveBody, axes *api.SolveRequest) (a *admission) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, "", errors.New("POST only"), 0)
		return nil
	}
	// Reuse a valid inbound trace ID (a fronting router minted one) or
	// mint a fresh one; either way the response echoes it before anything
	// can fail, so even error envelopes are correlatable.
	tr := s.tracer.Start(r.Header.Get(api.TraceHeader))
	defer func() {
		if a == nil {
			s.tracer.Finish(tr)
		}
	}()
	w.Header().Set(api.TraceHeader, tr.ID())
	if s.draining.Load() {
		refuse(w, tr, http.StatusServiceUnavailable, api.CodeDraining, errShuttingDown, retryAfterDrainingMillis)
		return nil
	}
	id, err := s.decode(w, r, body, axes)
	if err != nil {
		refuse(w, tr, http.StatusBadRequest, api.CodeBadRequest, err, 0)
		return nil
	}
	// Materialise on the handler goroutine: the cold construction cost
	// never occupies a solver slot, and concurrent first requests for the
	// same matrix block here on a single build.
	fillStart := tr.Now()
	ent, hit, err := s.resident(id)
	if err != nil {
		refuse(w, tr, http.StatusBadRequest, api.CodeBadRequest, err, 0)
		return nil
	}
	if !hit {
		tr.AddSpan(obs.SpanCacheFill, s.cfg.ShardLabel, ent.label, fillStart, tr.Now()-fillStart)
	}
	s.cache.noteMaterialised(ent)
	return &admission{tr: tr, ent: ent, hit: hit, key: coalesceKey(id.Key, axes), axes: axes}
}

// await is the back half: it queues the admitted request's right-hand
// sides as one task and blocks until the task is solved or its deadline
// claims it while still queued. It answers 429/503/504 itself and returns
// the completed task, accounted for, or nil. A task a worker already
// claimed runs to completion and is delivered — the deadline bounds queue
// wait, not a started solve. For a batch the deadline covers the whole
// request: expiry while queued answers 504 for every right-hand side
// (merged-in singles keep their own deadlines and answers).
//
// A non-nil pump makes the solve a streamed one: it never coalesces (the
// result bits would still match, but the per-iteration events would
// interleave lanes), its progress is written to the client while it runs,
// and an expiry that comes after the stream opened is a terminal error
// frame instead of a 504.
func (s *Server) await(w http.ResponseWriter, r *http.Request, a *admission, rhs []api.BatchRHS, pump *eventPump) *task {
	tr := a.tr
	t := newTask(a.key, rhs)
	// The solve runs on the scheduler goroutine while this one waits (and
	// pumps); handing it the trace is safe because the handler only reads
	// the trace after t.done.
	t.trace = tr
	var events chan api.SolveEvent // nil, so never ready, unless streaming
	if pump != nil {
		t.key = ""
		t.onIter, t.onDet = pump.onIter, pump.onDet
		events = pump.events
	}
	sc := a.axes.Scenario(a.ent.spec, a.ent.label)
	t.exec = func(group []*task) {
		if hook := s.testHookPreSolve; hook != nil {
			hook()
		}
		s.runGroup(a.ent, sc, group)
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(a.axes.TimeoutMillis))
	defer cancel()
	submitAt := tr.Now()
	if err := s.sched.submit(t); err != nil {
		if errors.Is(err, errQueueFull) {
			s.rejected.Add(1)
			refuse(w, tr, http.StatusTooManyRequests, api.CodeSaturated, err, retryAfterSaturatedMillis)
		} else {
			refuse(w, tr, http.StatusServiceUnavailable, api.CodeDraining, err, retryAfterDrainingMillis)
		}
		return nil
	}
	// The refusals above are ordinary JSON envelopes: a stream only opens
	// once the task is queued, so a client always gets either a plain
	// rejection or a stream with a terminal frame.
	ctxDone := ctx.Done()
	for {
		select {
		case ev := <-events:
			pump.send(&ev)
		case <-ctxDone:
			if t.claim() {
				// Still queued: abandon it before a worker (or a coalescing
				// scan) picks it up. The solve never ran.
				s.expired.Add(1)
				err := fmt.Errorf("deadline exceeded while queued: %w", ctx.Err())
				if pump != nil {
					tr.SetError(api.CodeExpired)
					pump.send(&api.SolveEvent{Kind: api.EventError, Error: &api.Error{
						Schema: api.SchemaVersion, Code: api.CodeExpired, Message: err.Error(),
					}})
				} else {
					refuse(w, tr, http.StatusGatewayTimeout, api.CodeExpired, err, 0)
				}
				return nil
			}
			// A worker owns it: keep waiting (and streaming) until it
			// completes.
			ctxDone = nil
		case <-t.done:
			if pump != nil {
				pump.drain()
			}
			s.settle(tr, t, submitAt, sc.Solver)
			return t
		}
	}
}

// response shapes one lane of a completed task as the wire answer. It is
// the only place a SolveResponse is built: the buffered body, a stream's
// terminal frame and every batch result come from here, on top of the
// harness's own record constructor.
func (s *Server) response(a *admission, t *task, lane int) api.SolveResponse {
	// Each record is stamped with its own seeds, so a batch lane replays
	// as the equivalent single request.
	req := *a.axes
	req.Seed, req.RHSSeed = t.specs[lane].Seed, t.specs[lane].RHSSeed
	out := &t.outs[lane]
	resp := api.SolveResponse{
		Schema: api.SchemaVersion,
		Result: harness.NewResult(req.Scenario(a.ent.spec, a.ent.label), a.ent.label, a.ent.a,
			[]harness.Trial{{Stats: out.stats, Failed: out.err != nil}}, out.hash),
		CacheHit:    a.hit,
		QueueMillis: float64(t.queueNanos) / 1e6,
		SolveMillis: float64(out.solveNanos) / 1e6,
		Coalesced:   t.coalesced,
	}
	resp.Result.Workers = solveWorkers
	resp.Result.WallSeconds = float64(out.solveNanos) / 1e9
	resp.Result.Shard = s.cfg.ShardLabel
	resp.Result.TraceID = a.tr.ID()
	if out.err != nil {
		resp.SolveError = out.err.Error()
	}
	return resp
}

// handleSolve is the single-solve edge, buffered or streamed: POST
// /v1/solve with "Accept: text/event-stream" answers the same request as
// schema-versioned SSE frames — live iteration and detection events while
// the solver runs, then exactly one terminal frame (the full SolveResponse,
// or the error envelope) — and since both come from response(), the
// terminal result's deterministic fields are bit-identical to the buffered
// answer; TestStreamTerminalMatchesBuffered gates that equality.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req api.SolveRequest
	a := s.admit(w, r, &req, &req)
	if a == nil {
		return
	}
	defer s.tracer.Finish(a.tr)
	var pump *eventPump
	if api.WantsStream(r) {
		// Streaming needs a flushing ResponseWriter; without one (an
		// unusual middleware stack) the request is answered buffered — the
		// client's Accept is a preference, not a contract.
		if sw, err := api.NewSSEWriter(w); err == nil {
			pump = newEventPump(sw)
		}
	}
	t := s.await(w, r, a, []api.BatchRHS{{Seed: req.Seed, RHSSeed: req.RHSSeed}}, pump)
	if t == nil {
		return
	}
	resp := s.response(a, t, 0)
	if pump != nil {
		pump.send(&api.SolveEvent{Kind: api.EventResult, Result: &resp})
		return
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// handleSolveBatch is the multi-RHS edge: one task carrying every lane.
func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchSolveRequest
	a := s.admit(w, r, &req, &req.SolveRequest)
	if a == nil {
		return
	}
	defer s.tracer.Finish(a.tr)
	t := s.await(w, r, a, req.RHS, nil)
	if t == nil {
		return
	}
	resp := api.BatchSolveResponse{
		Schema:      api.SchemaVersion,
		CacheHit:    a.hit,
		QueueMillis: float64(t.queueNanos) / 1e6,
		Coalesced:   t.coalesced,
		Results:     make([]api.BatchResult, len(req.RHS)),
	}
	for i := range resp.Results {
		lane := s.response(a, t, i)
		resp.Results[i] = api.BatchResult{Result: lane.Result, SolveMillis: lane.SolveMillis, SolveError: lane.SolveError}
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// stats snapshots the service for /v1/statusz.
func (s *Server) stats() api.StatsResponse {
	return api.StatsResponse{
		Schema:        api.SchemaVersion,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Workers:       solveWorkers,
		Concurrency:   s.cfg.Concurrency,
		QueueDepth:    s.sched.depth(),
		QueueCapacity: s.cfg.QueueDepth,
		Completed:     s.completed.Load(),
		Failed:        s.failed.Load(),
		Rejected:      s.rejected.Load(),
		Expired:       s.expired.Load(),
		Draining:      s.draining.Load(),
		Cache:         s.cache.stats(),
		Inline:        api.InlineStats{Parsed: s.parsed.Load()},
	}
}

// handleStatusz serves the cross-tier introspection surface: the stats
// snapshot wrapped in the tier-tagged envelope the router also serves
// under this path.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, http.StatusMethodNotAllowed, "", errors.New("GET only"), 0)
		return
	}
	st := s.stats()
	api.WriteJSON(w, http.StatusOK, api.StatuszResponse{
		Schema: api.SchemaVersion,
		Tier:   api.TierShard,
		Build:  s.buildInfo(),
		Shard:  &st,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	api.WriteJSON(w, http.StatusOK, api.HealthResponse{
		Schema:        api.SchemaVersion,
		Status:        status,
		Shard:         s.cfg.ShardLabel,
		Draining:      s.draining.Load(),
		QueueDepth:    s.sched.depth(),
		QueueCapacity: s.cfg.QueueDepth,
		UptimeSeconds: time.Since(s.started).Seconds(),
	})
}

// Retry hints stamped into the error envelope: saturation clears as soon
// as a queue slot frees, draining resolves when a replacement comes up.
const (
	retryAfterSaturatedMillis = 250
	retryAfterDrainingMillis  = 1000
)
