package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/harness"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/sparse"
)

// shardCount mirrors `resrouter -spawn 2`.
const shardCount = 2

// tiers is the serving stack under test, in-process on real loopback
// listeners: two shards and one router, all at program defaults — the
// benchmark tunes nothing.
type tiers struct {
	shards    []*server.Server
	shardHTTP []*http.Server
	shardURL  map[string]string // label → base URL
	rt        *router.Router
	rtHTTP    *http.Server
	url       string
}

func startTiers() (*tiers, error) {
	t := &tiers{shardURL: map[string]string{}}
	var topo []router.Shard
	for i := 0; i < shardCount; i++ {
		name := fmt.Sprintf("spawn%d", i)
		srv := server.New(server.Config{ShardLabel: name})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Shutdown()
			t.stop()
			return nil, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln) // returns when stop shuts hs down
		t.shards = append(t.shards, srv)
		t.shardHTTP = append(t.shardHTTP, hs)
		t.shardURL[name] = "http://" + ln.Addr().String()
		topo = append(topo, router.Shard{Name: name, Addr: t.shardURL[name]})
	}
	rt, err := router.New(router.Config{}, topo)
	if err != nil {
		t.stop()
		return nil, err
	}
	t.rt = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.stop()
		return nil, err
	}
	t.rtHTTP = &http.Server{Handler: rt.Handler()}
	go t.rtHTTP.Serve(ln)
	t.url = "http://" + ln.Addr().String()
	return t, nil
}

// stop drains outside-in, like resrouter on SIGTERM, and returns once every
// listener and worker has ended.
func (t *tiers) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if t.rt != nil {
		t.rt.StartDraining()
		if t.rtHTTP != nil {
			_ = t.rtHTTP.Shutdown(ctx) // a timed-out drain still closes the listener
		}
		t.rt.Shutdown()
	}
	for i, srv := range t.shards {
		srv.StartDraining()
		_ = t.shardHTTP[i].Shutdown(ctx)
		srv.Shutdown()
	}
}

// spanKey carries the caller's span and op id to the traced transport, and
// the round trip's span back to the caller.
type spanKey struct{}

type spanRef struct{ span, op, roundTrip int }

// tracedTransport records an http.roundtrip span per request, from the
// moment the client hands it over until the response body is closed.
type tracedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, _ := req.Context().Value(spanKey{}).(*spanRef)
	if ref == nil {
		return t.base.RoundTrip(req)
	}
	sp := t.tr.begin("http.roundtrip", ref.span, ref.op)
	ref.roundTrip = sp
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.tr.end(sp) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	done func()
}

func (b *spanBody) Close() error {
	b.done()
	return b.ReadCloser.Close()
}

// newClient builds the program's own typed client over a transport that
// keeps one connection per caller and never more. The returned func drops
// the idle connections.
func newClient(base string, tr *tracer) (*api.Client, func()) {
	pooled := &http.Transport{
		MaxIdleConns:        serveCallers(),
		MaxIdleConnsPerHost: serveCallers(),
		MaxConnsPerHost:     serveCallers(),
		IdleConnTimeout:     time.Minute,
	}
	var rt http.RoundTripper = pooled
	if tr != nil {
		rt = &tracedTransport{base: rt, tr: tr}
	}
	c := api.NewClient(base, api.WithHTTPClient(&http.Client{Transport: rt, Timeout: 2 * time.Minute}))
	return c, pooled.CloseIdleConnections
}

// serveEngine runs request operations through router → shards.
type serveEngine struct {
	seed int64   // generates the inline working set
	tr   *tracer // the run's tracer; nil on untraced runs

	t       *tiers
	client  *api.Client
	traced  *api.Client // same tiers, http.roundtrip spans on
	release []func()
	inline  []*sparse.CSR
	refs    map[string]string // lane → residual hash of its in-process reference solve
}

func (e *serveEngine) prepare(lanes []op) error {
	if err := e.references(lanes); err != nil {
		return err
	}
	t, err := startTiers()
	if err != nil {
		return err
	}
	e.t = t
	var drop func()
	e.client, drop = newClient(t.url, nil)
	e.release = append(e.release, drop)
	if e.tr != nil {
		e.traced, drop = newClient(t.url, e.tr)
		e.release = append(e.release, drop)
	}
	return nil
}

// references builds the inline matrices the lanes name and solves every
// lane in-process through harness.SolveWith: a response's residual_hash must
// equal the one found here.
func (e *serveEngine) references(lanes []op) error {
	e.refs = map[string]string{}
	e.inline = make([]*sparse.CSR, inlineCount)
	mats := map[string]*sparse.CSR{}
	rhs := map[string][]float64{}
	for li := range lanes {
		o := &lanes[li]
		mk := o.matrixKey()
		a := mats[mk]
		if a == nil {
			spec := namedMatrices[o.Matrix]
			if o.Kind == kindInline {
				spec = inlineSpec(e.seed, o.Inline)
			}
			var err error
			if a, err = spec.Build(); err != nil {
				return fmt.Errorf("building %s: %w", mk, err)
			}
			mats[mk] = a
			if o.Kind == kindInline {
				e.inline[o.Inline] = a
			}
		}
		for i := range o.Seeds {
			key := o.laneKey(i)
			if _, ok := e.refs[key]; ok {
				continue
			}
			bk := fmt.Sprintf("%s|%d", mk, o.RHS[i])
			b := rhs[bk]
			if b == nil {
				b, _ = harness.RHS(a, o.RHS[i])
				rhs[bk] = b
			}
			var hist []float64
			sc := harness.Scenario{Solver: o.Solver, Scheme: o.Scheme, Alpha: o.Alpha}
			x, st, err := harness.SolveWith(a, b, sc, o.Seeds[i], harness.SolveOpts{
				OnIteration: func(_ int, rho float64) { hist = append(hist, rho) },
			})
			if err != nil || !st.Converged {
				return fmt.Errorf("reference solve %s: converged=%v err=%v", key, st.Converged, err)
			}
			if r := relativeResidual(a, x, b); !(r <= maxResidual) {
				return fmt.Errorf("reference solve %s: true relative residual %.3g", key, r)
			}
			e.refs[key] = harness.HashHistory(hist)
		}
	}
	return nil
}

func (e *serveEngine) close() {
	for _, drop := range e.release {
		drop()
	}
	e.release = nil
	if e.t != nil {
		e.t.stop()
		e.t = nil
	}
}

// inlineCSR carries a matrix by content, sharing its arrays.
func inlineCSR(a *sparse.CSR) *api.InlineCSR {
	return &api.InlineCSR{Rows: a.Rows, Cols: a.Cols, Rowidx: a.Rowidx, Colid: a.Colid, Val: a.Val}
}

// request shapes an op as the wire request.
func (e *serveEngine) request(o *op) api.SolveRequest {
	req := api.SolveRequest{Solver: o.Solver, Scheme: o.Scheme, Alpha: o.Alpha, Seed: o.Seeds[0], RHSSeed: &o.RHS[0]}
	if o.Kind == kindInline {
		req.Inline = inlineCSR(e.inline[o.Inline])
	} else {
		spec := namedMatrices[o.Matrix]
		req.Matrix = &spec
	}
	return req
}

func (e *serveEngine) exec(o *op, tr *tracer, span, id int) sample {
	client := e.client
	if tr != nil {
		client = e.traced
	}
	return e.execVia(client, o, tr, span, id)
}

// execVia sends one op through the given client and verifies the answer:
// transport errors, non-200s and envelope errors arrive as err; a 200 must
// carry no solve_error and, per right-hand side, the residual hash of the
// in-process reference.
func (e *serveEngine) execVia(client *api.Client, o *op, tr *tracer, span, id int) sample {
	s := sample{Op: o, Start: time.Now()}
	ctx := context.Background()
	sp := tr.begin("client.op", span, id)
	ref := &spanRef{span: sp, op: id, roundTrip: -1}
	if tr != nil {
		ctx = context.WithValue(ctx, spanKey{}, ref)
	}
	var (
		single *api.SolveResponse
		batch  *api.BatchSolveResponse
		err    error
	)
	req := e.request(o)
	switch o.Kind {
	case kindBatch:
		breq := api.BatchSolveRequest{SolveRequest: req, RHS: make([]api.BatchRHS, len(o.Seeds))}
		for i := range o.Seeds {
			breq.RHS[i] = api.BatchRHS{Seed: o.Seeds[i], RHSSeed: &o.RHS[i]}
		}
		batch, err = client.SolveBatch(ctx, &breq)
	case kindStream:
		single, err = client.SolveStream(ctx, &req, nil)
	default:
		single, err = client.Solve(ctx, &req)
	}
	tr.end(sp)
	s.End = time.Now()

	vsp := tr.begin("bench.verify", span, id)
	defer tr.end(vsp)
	switch {
	case err != nil:
		var ae *api.Error
		if errors.As(err, &ae) {
			s.fail("%s: %s", ae.Code, ae.Message)
		} else {
			s.fail("%v", err)
		}
		return s
	case batch != nil:
		if len(batch.Results) != len(o.Seeds) {
			s.fail("batch answered %d results for %d right-hand sides", len(batch.Results), len(o.Seeds))
			return s
		}
		s.QueueMs, s.CacheHit, s.Coalesced = batch.QueueMillis, batch.CacheHit, batch.Coalesced
		for i := range batch.Results {
			br := &batch.Results[i]
			s.SolveMs = br.SolveMillis
			e.checkLane(&s, o, i, &br.Result, br.SolveError, 0)
		}
	default:
		s.QueueMs, s.SolveMs, s.CacheHit, s.Coalesced = single.QueueMillis, single.SolveMillis, single.CacheHit, single.Coalesced
		e.checkLane(&s, o, 0, &single.Result, single.SolveError, single.SolveMillis*1e6)
	}
	if rt := ref.roundTrip; rt >= 0 {
		// The program's own account of the request, placed at the front of
		// the round trip that carried it.
		at := tr.startOf(rt)
		q, sv := int64(s.QueueMs*1e6), int64(s.SolveMs*1e6)
		tr.add("server.queue", at, at+q, rt, id)
		tr.add("server.solve", at+q, at+q+sv, rt, id)
	}
	return s
}

// checkLane verifies one right-hand side's record against its reference
// and files it.
func (e *serveEngine) checkLane(s *sample, o *op, i int, res *harness.Result, solveErr string, solveNs float64) {
	hash, known := e.refs[o.laneKey(i)]
	switch {
	case !known:
		s.fail("lane %d has no reference: the operation was not among the lanes set-up was given", i)
	case solveErr != "":
		s.fail("solve_error: %s", solveErr)
	case res.Converged != 1 || res.Failures != 0:
		s.fail("lane %d not converged", i)
	case res.ResidualHash != hash:
		s.fail("lane %d residual_hash %s, in-process reference %s", i, res.ResidualHash, hash)
	}
	s.Shard = res.Shard
	s.Recs = append(s.Recs, solveRec{
		Matrix: o.Matrix, Solver: o.Solver, Scheme: o.Scheme,
		Ns: solveNs, SimTime: res.MeanSimTime,
		Useful: int64(res.MeanUsefulIters), Total: int64(res.MeanTotalIters),
		Detections: res.Detections, Corrections: res.Corrections, Rollbacks: res.Rollbacks,
		Checkpoints: res.Checkpoints, Faults: res.FaultsInjected,
	})
}

// tierCounters is the program's own count of what it did, read from
// /v1/statusz on the router and on every shard.
type tierCounters struct {
	Routed, Failovers, Retries, DigestVerified, Corrupt int64
	ShardRouted                                         map[string]int64
	Hits, Misses, Evictions, Rejected, Expired          int64
}

func (e *serveEngine) counters() (*tierCounters, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := e.client.Statusz(ctx)
	if err != nil {
		return nil, fmt.Errorf("router statusz: %w", err)
	}
	if st.Router == nil {
		return nil, errors.New("router statusz carries no router section")
	}
	c := &tierCounters{
		Routed: st.Router.Routed, Failovers: st.Router.Failovers,
		Retries: st.Router.Integrity.RetriesSpent, DigestVerified: st.Router.Integrity.DigestVerified,
		Corrupt:     st.Router.Integrity.CorruptResponses,
		ShardRouted: map[string]int64{},
	}
	for _, sh := range st.Router.Shards {
		c.ShardRouted[sh.Name] = sh.Routed
	}
	for name, url := range e.t.shardURL {
		sst, err := api.NewClient(url).Statusz(ctx)
		if err != nil {
			return nil, fmt.Errorf("shard %s statusz: %w", name, err)
		}
		if sst.Shard == nil {
			return nil, fmt.Errorf("shard %s statusz carries no shard section", name)
		}
		c.Hits += sst.Shard.Cache.Hits
		c.Misses += sst.Shard.Cache.Misses
		c.Evictions += sst.Shard.Cache.Evictions
		c.Rejected += sst.Shard.Rejected
		c.Expired += sst.Shard.Expired
	}
	return c, nil
}

// minus is the counters' change over a stretch of the run.
func (c *tierCounters) minus(b *tierCounters) tierCounters {
	d := tierCounters{
		Routed: c.Routed - b.Routed, Failovers: c.Failovers - b.Failovers, Retries: c.Retries - b.Retries,
		DigestVerified: c.DigestVerified - b.DigestVerified, Corrupt: c.Corrupt - b.Corrupt,
		Hits: c.Hits - b.Hits, Misses: c.Misses - b.Misses, Evictions: c.Evictions - b.Evictions,
		Rejected: c.Rejected - b.Rejected, Expired: c.Expired - b.Expired,
		ShardRouted: map[string]int64{},
	}
	for name, v := range c.ShardRouted {
		d.ShardRouted[name] = v - b.ShardRouted[name]
	}
	return d
}
