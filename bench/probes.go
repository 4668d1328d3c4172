package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/abft"
	"repro/internal/api"
	"repro/internal/bitflip"
	"repro/internal/checkpoint"
	"repro/internal/checksum"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/precond"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/tmr"
	"repro/internal/vec"
)

// probeBatches is how many equal batches a probe's calls are split into; a
// probe reports its median batch.
const probeBatches = 5

// sink keeps results the compiler could otherwise prove unused.
var sink float64

// prober times calls into each module's public functions on fixed operands.
// Its numbers are the same whatever workload the run is for: they are the
// per-call prices the workload rows decompose into. A probe that fails
// aborts the run (no trace is written), so error paths leave spans open.
type prober struct {
	res  results
	tr   *tracer
	yard *yardstick // ticks after every probe: the probes are part of the run it gauges
	// the fixed operands: the two solve matrices and one inline-sized one
	stencil, denserow, inline *sparse.CSR
}

// operand is a named solve matrix.
type operand struct {
	name string
	a    *sparse.CSR
}

func (p *prober) operands() []operand {
	return []operand{{"stencil", p.stencil}, {"denserow", p.denserow}}
}

// time runs fn `calls` times in probeBatches batches (after one untimed
// call) and files the median batch's nanoseconds per call under name, as
// one span.
func (p *prober) time(name string, calls int, fn func()) float64 {
	ns := p.measure("probe:"+name, calls, fn)
	p.res.setNs(name, ns, calls)
	return ns
}

func (p *prober) measure(spanName string, calls int, fn func()) float64 {
	per := max(calls/probeBatches, 1)
	fn()
	sp := p.tr.begin(spanName, -1, -1)
	batch := make([]float64, probeBatches)
	for b := range batch {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		batch[b] = float64(time.Since(t0)) / float64(per)
	}
	p.tr.end(sp)
	p.yard.tick()
	return median(batch)
}

func randomVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// runProbes fills every probe metric of the ledger.
func runProbes(res results, tr *tracer, yard *yardstick) error {
	p := &prober{res: res, tr: tr, yard: yard}
	var err error
	build := func(spec harness.MatrixSpec) (a *sparse.CSR) {
		if err == nil {
			a, err = spec.Build()
		}
		return a
	}
	p.stencil, p.denserow = build(stencilSpec), build(denserowSpec)
	p.inline = build(harness.MatrixSpec{Gen: "randomspd", N: 1024, Seed: 7})
	if err != nil {
		return err
	}
	p.kernels()
	if err := p.protection(); err != nil {
		return err
	}
	p.recovery()
	p.replay()
	if err := p.harnessAndAPI(); err != nil {
		return err
	}
	p.observability()
	if err := p.routerAlone(); err != nil {
		return err
	}
	return p.tiers()
}

// kernels: sparse, vec, tmr, pool.
func (p *prober) kernels() {
	denserow, inline := p.denserow, p.inline
	for _, o := range p.operands() {
		name, a := o.name, o.a
		x, y := randomVector(a.Rows, 1), make([]float64, a.Rows)
		p.time("sparse.mulvec_ns."+name, 40_000_000/a.NNZ(), func() { a.MulVec(y, x) })
	}
	{
		a := denserow
		x, y := randomVector(a.Rows, 1), make([]float64, a.Rows)
		p.time("sparse.mulvec_robust_ns.denserow", 300, func() { a.MulVecRobust(y, x) })
	}
	{
		// large leaves the cache (≈29 MB of CSR against a 2 MiB L2), so it is
		// the memory-bound point; it is a probe operand only.
		a := sparse.Poisson3D(64, 64, 64)
		x, y := randomVector(a.Rows, 1), make([]float64, a.Rows)
		seq := p.time("sparse.mulvec_ns.large", 25, func() { a.MulVec(y, x) })
		// Bytes are computed from array sizes (values and column indices
		// once, row pointers, x read and y written once): cache misses on x
		// are not in this number.
		moved := float64(a.NNZ()*16 + (a.Rows+1)*8 + 2*a.Rows*8)
		p.res.set("sparse.mulvec_gbps_computed.large", moved/seq, 25)
		pl := pool.New(runtime.NumCPU())
		par := p.measure("probe:sparse.mulvec_parallel.large", 25, func() { a.MulVecParallel(pl, y, x) })
		pl.Close()
		p.res.set("sparse.mulvec_parallel_speedup.large", seq/par, 25)
	}
	p.time("sparse.fingerprint_us.inline", 500, func() { sink += float64(inline.Fingerprint() & 1) })

	const n = 4096
	a, b := randomVector(n, 2), randomVector(n, 3)
	var exec tmr.Executor
	vd := p.time("vec.dot_ns", 20000, func() { sink += vec.Dot(a, b) })
	va := p.time("vec.axpy_ns", 20000, func() { vec.Axpy(1e-9, a, b) })
	td := p.time("tmr.dot_ns", 8000, func() { sink += exec.Dot(a, b) })
	ta := p.time("tmr.axpy_ns", 4000, func() { exec.Axpy(1e-9, a, b) })
	p.res.set("tmr.over_plain_ratio", (td+ta)/(vd+va), 2)

	pl := pool.New(runtime.NumCPU())
	p.time("pool.dispatch_ns", 20000, func() { pl.Run(4*pl.Workers(), 1, func(lo, hi int) {}) })
	pl.Close()
}

// protection: abft, checksum.
func (p *prober) protection() error {
	denserow := p.denserow
	for _, o := range p.operands() {
		name, a := o.name, o.a
		live := a.Clone()
		prot := abft.NewProtected(live, abft.DetectCorrect)
		x, y := randomVector(a.Rows, 1), make([]float64, a.Rows)
		guard := abft.NewGuard(x, abft.DetectCorrect)
		var sr abft.RowSums
		calls := 20_000_000 / a.NNZ()
		mul := p.time("abft.mulvec_ns."+name, calls, func() { sr = prot.MulVec(y, x) })
		var out abft.Outcome
		ver := p.time("abft.verify_ns."+name, calls, func() { out = prot.Verify(y, x, guard.Ref(), sr) })
		if out.Detected {
			return fmt.Errorf("probe abft.verify_ns.%s: a clean product was flagged (%v)", name, out.Class)
		}
		plain := p.res["sparse.mulvec_ns."+name].V
		p.res.set("abft.protected_over_plain_ratio."+name, (mul+ver)/plain, calls)
	}

	v := randomVector(4096, 4)
	guard := abft.NewGuard(v, abft.DetectCorrect)
	p.time("abft.guard_ns", 8000, func() {
		sink += float64(len(guard.Check(v).Class.String()) & 1)
		guard.Refresh(v)
	})

	// Forward correction: one bit of one matrix value flips, the product
	// runs on the corrupted matrix, and Verify must locate and repair it;
	// the driver then re-anchors the encoding. Only Verify + Reencode are
	// timed — the price a correction adds to an iteration.
	live := denserow.Clone()
	prot := abft.NewProtected(live, abft.DetectCorrect)
	x, y := randomVector(live.Rows, 1), make([]float64, live.Rows)
	xRef := abft.NewGuard(x, abft.DetectCorrect)
	const repairs = 40
	cost := make([]float64, repairs)
	sp := p.tr.begin("probe:abft.correct_us", -1, -1)
	for i := range cost {
		k := (i*7919 + 13) % live.NNZ()
		live.Val[k] = bitflip.Float64(live.Val[k], 54) // an exponent bit: a gross, single, correctable error
		sr := prot.MulVec(y, x)
		t0 := time.Now()
		out := prot.Verify(y, x, xRef.Ref(), sr)
		prot.Reencode()
		cost[i] = float64(time.Since(t0))
		if !out.Detected || !out.Corrected {
			return fmt.Errorf("probe abft.correct_us: flip %d in Val[%d] detected=%v corrected=%v", i, k, out.Detected, out.Corrected)
		}
	}
	p.tr.end(sp)
	p.res.setNs("abft.correct_us", median(cost), repairs)

	var cs *checksum.Matrix
	p.time("checksum.encode_us.denserow", 100, func() { cs = checksum.NewMatrixInto(cs, denserow) })
	return nil
}

// recovery: checkpoint, fault, model, precond.
func (p *prober) recovery() {
	denserow := p.denserow
	for _, o := range p.operands() {
		name, a := o.name, o.a
		live := a.Clone()
		n := a.Rows
		state := &checkpoint.State{
			A:       live,
			Vectors: map[string][]float64{"x": randomVector(n, 5), "r": randomVector(n, 6), "p": randomVector(n, 7)},
			Scalars: map[string]float64{"rho": 1},
		}
		store := checkpoint.NewStore()
		p.time("checkpoint.save_us."+name, 20_000_000/a.NNZ(), func() { store.Save(state) })
		if name == "denserow" {
			p.time("checkpoint.restore_us.denserow", 150, func() { store.Restore(state) })
		}
	}

	live := denserow.Clone()
	n := live.Rows
	st := &fault.State{A: live, R: randomVector(n, 8), P: randomVector(n, 9), Q: randomVector(n, 10), X: randomVector(n, 11)}
	inj := fault.New(fault.Config{Alpha: faultAlpha, Seed: 1})
	p.time("fault.inject_ns", 100000, func() { inj.InjectIterationSplit(st) })

	p.time("model.optimal_intervals_us", 200, func() {
		d, s := core.OptimalIntervals(denserow, core.ABFTCorrection, faultAlpha, core.DefaultCostParams())
		sink += float64(d + s)
	})
	p.time("precond.jacobi_us.denserow", 200, func() {
		m, _ := precond.Jacobi(denserow) // a nonzero diagonal by construction
		sink += float64(m.Rows)
	})
}

// replay prices one CG iteration by calling, from here, the public kernels
// the drivers call, in the drivers' order, on the stencil operand. The
// workload's measured iteration minus this sum is what the driver itself
// costs (core.unattributed_share).
func (p *prober) replay() {
	a := p.stencil
	n := a.Rows
	const alpha, beta = 1e-7, 0.5
	{
		x, r, pv, q := make([]float64, n), randomVector(n, 12), randomVector(n, 13), make([]float64, n)
		p.time("core.kernel_sum_ns.unprotected", 1500, func() {
			a.MulVec(q, pv)
			sink += vec.Dot(pv, q)
			vec.Axpy(alpha, pv, x)
			vec.Axpy(-alpha, q, r)
			sink += vec.Norm2Sq(r)
			vec.Xpay(beta, r, pv)
		})
	}
	live := a.Clone()
	prot := abft.NewProtected(live, abft.DetectCorrect)
	x, r, pv, q := make([]float64, n), randomVector(n, 12), randomVector(n, 13), make([]float64, n)
	rGuard, pGuard, xGuard := abft.NewGuard(r, abft.DetectCorrect), abft.NewGuard(pv, abft.DetectCorrect), abft.NewGuard(x, abft.DetectCorrect)
	var exec tmr.Executor
	p.time("core.kernel_sum_ns.abft", 600, func() {
		rGuard.Check(r)
		xGuard.Check(x)
		sr := prot.MulVec(q, pv)
		prot.Verify(q, pv, pGuard.Ref(), sr)
		sink += exec.Dot(pv, q)
		exec.Axpy(alpha, pv, x)
		xGuard.Refresh(x)
		exec.Axpy(-alpha, q, r)
		rGuard.Refresh(r)
		sink += exec.Norm2Sq(r)
		exec.Xpay(beta, r, pv)
		pGuard.Refresh(pv)
	})
}

// harnessAndAPI: harness, api.
func (p *prober) harnessAndAPI() error {
	inline := p.inline
	p.time("harness.build_ms.denserow", 5, func() {
		a, _ := denserowSpec.Build() // built without error above
		sink += float64(a.Rows)
	})
	p.time("harness.rhs_us", 200, func() {
		b, _ := harness.RHS(p.stencil, rhsSeed)
		sink += b[0]
	})

	// SolveWith against the driver it dispatches to, on a solve small
	// enough (≈0.2 ms) for the difference to be resolved.
	small, _ := namedMatrices["p64"].Build()
	b, _ := harness.RHS(small, rhsSeed)
	ws := &harness.Workspaces{Core: core.NewWorkspace(), Solver: solver.NewWorkspace()}
	sc := harness.Scenario{Solver: "cg", Scheme: abftCorrection}
	var solveErr error
	via := p.measure("probe:harness.solvewith", 1000, func() {
		if _, _, err := harness.SolveWith(small, b, sc, trialSeed, harness.SolveOpts{Ws: ws}); err != nil {
			solveErr = err
		}
	})
	direct := p.measure("probe:core.solve", 1000, func() {
		if _, _, err := core.Solve(small, b, core.Config{Scheme: core.ABFTCorrection, Ws: ws.Core}); err != nil {
			solveErr = err
		}
	})
	if solveErr != nil {
		return fmt.Errorf("probe harness.solvewith_overhead_us: %w", solveErr)
	}
	p.res.setNs("harness.solvewith_overhead_us", via-direct, 1000)

	spec := namedMatrices["p64"]
	reqs := map[string]*api.SolveRequest{
		"spec":   {Matrix: &spec, Solver: "cg", Scheme: abftCorrection, Seed: trialSeed},
		"inline": {Inline: inlineCSR(inline), Solver: "cg", Scheme: abftCorrection, Seed: trialSeed},
	}
	for name, req := range reqs {
		calls := 20000
		if name == "inline" {
			calls = 40
		}
		var body []byte
		var err error
		p.time("api.encode_request_us."+name, calls, func() { body, err = json.Marshal(req) })
		if err != nil {
			return err
		}
		p.time("api.decode_request_us."+name, calls, func() {
			var back api.SolveRequest
			err = json.Unmarshal(body, &back)
		})
		if err != nil {
			return err
		}
		if name == "inline" {
			ns := p.measure("probe:api.digest", 30, func() {
				if !api.VerifyDigest(api.DigestBytes(body), body) {
					err = fmt.Errorf("digest of a body does not verify")
				}
			})
			if err != nil {
				return err
			}
			// DigestBytes + VerifyDigest hash the body twice.
			p.res.setNs("api.digest_us_per_kib", ns/2/(float64(len(body))/1024), 30)
		}
	}

	_, st, err := harness.SolveWith(small, b, sc, trialSeed, harness.SolveOpts{Ws: ws})
	if err != nil {
		return err
	}
	resp := api.SolveResponse{Schema: api.SchemaVersion, CacheHit: true, QueueMillis: 0.01, SolveMillis: 0.2}
	resp.Result = harness.Result{
		Schema: harness.SchemaVersion, Scenario: sc, Reps: 1, Converged: 1, D: st.D, S: st.S,
		MeanUsefulIters: float64(st.UsefulIterations), MeanTotalIters: float64(st.TotalIterations),
		MeanSimTime: st.SimTime, SimTimes: []float64{st.SimTime}, MaxFinalResidual: st.FinalResidual,
		ResidualHash: harness.FormatHash(12345), WallSeconds: 2e-4, Shard: "spawn0",
	}
	var rec *httptest.ResponseRecorder
	p.time("api.writejson_us", 5000, func() {
		rec = httptest.NewRecorder()
		api.WriteJSON(rec, http.StatusOK, &resp)
	})
	body := rec.Body.Bytes()
	p.time("api.decode_response_us", 5000, func() {
		var back api.SolveResponse
		err = json.Unmarshal(body, &back)
	})
	if err != nil {
		return err
	}
	ev := api.SolveEvent{Kind: api.EventIteration, Iteration: 17, Rho: 1.25e-3}
	p.time("api.sse_frame_us", 20000, func() {
		var frame []byte
		frame, err = api.MarshalSSE(&ev)
		sink += float64(len(frame))
	})
	return err
}

// observability: the tracer's own cycle.
func (p *prober) observability() {
	t := obs.NewTracer("bench", 0)
	p.time("obs.trace_cycle_ns", 50000, func() {
		a := t.Start("")
		for i := 0; i < 4; i++ {
			a.AddSpan(obs.SpanSolve, "spawn0", "", int64(i), 1)
		}
		t.Finish(a)
	})
}

// serve drives a handler in-process (no TCP) and returns the recorder.
func serve(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// routerAlone prices the router's forward path with zero solve cost: a
// router in front of one mock shard, its handler driven in-process.
func (p *prober) routerAlone() error {
	inline := p.inline
	mock, err := router.NewMockShard("mock0")
	if err != nil {
		return err
	}
	defer mock.Kill()
	rt, err := router.New(router.Config{}, []router.Shard{{Name: mock.Name(), Addr: mock.URL()}})
	if err != nil {
		return err
	}
	defer rt.Shutdown()
	spec := namedMatrices["p64"]
	bodies := map[string]*api.SolveRequest{
		"mock_spec":   {Matrix: &spec, Solver: "cg", Scheme: abftCorrection, Seed: trialSeed},
		"mock_inline": {Inline: inlineCSR(inline), Solver: "cg", Scheme: abftCorrection, Seed: trialSeed},
	}
	for name, req := range bodies {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		calls, status := 1500, 0
		if name == "mock_inline" {
			calls = 60
		}
		p.time("router.forward_us."+name, calls, func() {
			if rec := serve(rt.Handler(), http.MethodPost, "/v1/solve", body); rec.Code != http.StatusOK {
				status = rec.Code
			}
		})
		if status != 0 {
			return fmt.Errorf("probe router.forward_us.%s: router answered %d", name, status)
		}
	}
	ring := router.NewRing(0)
	for i := 0; i < shardCount; i++ {
		ring.Add(fmt.Sprintf("spawn%d", i))
	}
	key := `spec:{"gen":"poisson2d","n":64}`
	p.time("router.ring_lookup_ns", 200000, func() { sink += float64(len(ring.Lookup(key))) })
	return nil
}

// tiers prices the shard handler and the routed hop on a live stack of its
// own, so the numbers do not depend on what the workload left in the caches.
func (p *prober) tiers() error {
	inline := p.inline
	t, err := startTiers()
	if err != nil {
		return err
	}
	defer t.stop()
	shard := t.shards[0].Handler()

	spec := namedMatrices["p64"]
	specReq := &api.SolveRequest{Matrix: &spec, Solver: "cg", Scheme: abftCorrection, Seed: trialSeed}
	inlineReq := &api.SolveRequest{Inline: inlineCSR(inline), Solver: "cg", Scheme: abftCorrection, Seed: trialSeed}
	for name, req := range map[string]*api.SolveRequest{"spec": specReq, "inline": inlineReq} {
		calls := 20000
		if name == "inline" {
			calls = 500
		}
		var err error
		p.time("server.resolve_identity_us."+name, calls, func() { _, err = server.ResolveIdentity(req) })
		if err != nil {
			return err
		}
	}

	// The warm shard handler, and what it costs beyond the queue wait and
	// the solve it reports.
	body, err := json.Marshal(specReq)
	if err != nil {
		return err
	}
	post := func(h http.Handler, body []byte) (time.Duration, *api.SolveResponse, error) {
		t0 := time.Now()
		rec := serve(h, http.MethodPost, "/v1/solve", body)
		took := time.Since(t0)
		var resp api.SolveResponse
		if rec.Code != http.StatusOK {
			return took, nil, fmt.Errorf("shard answered %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return took, nil, err
		}
		if resp.SolveError != "" {
			return took, nil, fmt.Errorf("solve_error: %s", resp.SolveError)
		}
		return took, &resp, nil
	}
	if _, _, err := post(shard, body); err != nil { // fill the cache
		return fmt.Errorf("probe server.handler_us.warm: %w", err)
	}
	const warmCalls = 1500
	handler, overhead := make([]float64, warmCalls), make([]float64, warmCalls)
	sp := p.tr.begin("probe:server.handler_us.warm", -1, -1)
	for i := range handler {
		took, resp, err := post(shard, body)
		if err != nil {
			return fmt.Errorf("probe server.handler_us.warm: %w", err)
		}
		handler[i] = float64(took)
		overhead[i] = float64(took) - (resp.QueueMillis+resp.SolveMillis)*1e6
	}
	p.tr.end(sp)
	p.res.setNs("server.handler_us.warm", median(handler), warmCalls)
	p.res.setNs("server.overhead_us.warm", median(overhead), warmCalls)

	// Cache fill: the first request for a matrix the shard has never seen
	// against its immediate repeat.
	const fills = 12
	fill := make([]float64, fills)
	sp = p.tr.begin("probe:server.cache_fill_ms.inline", -1, -1)
	for i := range fill {
		a, err := harness.MatrixSpec{Gen: "randomspd", N: 1024, Seed: 9000 + int64(i)}.Build()
		if err != nil {
			return err
		}
		body, err := json.Marshal(&api.SolveRequest{Inline: inlineCSR(a), Solver: "cg", Scheme: abftCorrection, Seed: trialSeed})
		if err != nil {
			return err
		}
		cold, first, err := post(shard, body)
		if err == nil && first.CacheHit {
			err = fmt.Errorf("first request for a new matrix reported a cache hit")
		}
		var warm time.Duration
		if err == nil {
			warm, _, err = post(shard, body)
		}
		if err != nil {
			return fmt.Errorf("probe server.cache_fill_ms.inline: %w", err)
		}
		fill[i] = float64(cold - warm)
	}
	p.tr.end(sp)
	p.res.setNs("server.cache_fill_ms.inline", median(fill), fills)

	status := 0
	get := func(path string) func() {
		return func() {
			if rec := serve(shard, http.MethodGet, path, nil); rec.Code != http.StatusOK {
				status = rec.Code
			}
		}
	}
	p.time("obs.metrics_render_us", 1000, get("/metrics"))
	p.time("obs.tracez_us", 200, get("/v1/tracez"))
	if status != 0 {
		return fmt.Errorf("probe obs: shard answered %d", status)
	}

	// What the router adds: the serve_warm mix through the router against
	// the same requests sent straight to the shard that owns each key.
	warm := workloadByName("serve_warm")
	e := &serveEngine{t: t}
	if err := e.references(warm.allLanes()); err != nil {
		return err
	}
	routed, dropRouted := newClient(t.url, nil)
	defer dropRouted()
	direct := map[string]*api.Client{}
	for label, url := range t.shardURL {
		c, drop := newClient(url, nil)
		defer drop()
		direct[label] = c
	}
	var viaRouter, viaShard []float64
	sp = p.tr.begin("probe:router.added_p50_ms", -1, -1)
	defer p.tr.end(sp)
	for r := 0; r < 4; r++ {
		ops := warm.Round(1, r)
		for i := range ops {
			s := e.execVia(routed, &ops[i], nil, -1, -1)
			if s.Failed {
				return fmt.Errorf("probe router.added_p50_ms: routed %s: %s", &ops[i], s.Why)
			}
			d := e.execVia(direct[s.Shard], &ops[i], nil, -1, -1)
			if d.Failed {
				return fmt.Errorf("probe router.added_p50_ms: direct %s: %s", &ops[i], d.Why)
			}
			if r > 0 { // round 0 fills the caches
				viaRouter = append(viaRouter, s.ns())
				viaShard = append(viaShard, d.ns())
			}
		}
	}
	p.res.setNs("router.added_p50_ms", median(viaRouter)-median(viaShard), len(viaRouter))
	return nil
}
