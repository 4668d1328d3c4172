package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/server"
)

// traceShard is a shard stand-in that records the trace header of every
// solve it receives — the observability tests' probe for propagation.
// It can refuse its first N requests with 503 (driving failover).
type traceShard struct {
	name string
	ts   *httptest.Server

	mu     sync.Mutex
	seen   []string // trace header of each solve request, in arrival order
	refuse int      // initial requests to refuse with 503
}

func newTraceShard(t *testing.T, name string) *traceShard {
	t.Helper()
	f := &traceShard{name: name}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, api.HealthResponse{Schema: api.SchemaVersion, Status: "ok"})
	})
	mux.HandleFunc("/v1/solve", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.seen = append(f.seen, r.Header.Get(api.TraceHeader))
		refuse := f.refuse > 0
		if refuse {
			f.refuse--
		}
		f.mu.Unlock()
		if refuse {
			api.WriteError(w, http.StatusServiceUnavailable, api.CodeDraining, errors.New("injected refusal"), 1)
			return
		}
		resp := api.SolveResponse{Schema: api.SchemaVersion}
		resp.Result.Schema = api.SchemaVersion
		resp.Result.Reps = 1
		resp.Result.Converged = 1
		resp.Result.ResidualHash = "trace-shard-" + f.name
		if api.WantsStream(r) {
			sw, err := api.NewSSEWriter(w)
			if err != nil {
				api.WriteJSON(w, http.StatusOK, resp)
				return
			}
			_ = sw.Send(&api.SolveEvent{Kind: api.EventIteration, Iteration: 1, Rho: 0.5})
			_ = sw.Send(&api.SolveEvent{Kind: api.EventResult, Result: &resp})
			return
		}
		api.WriteJSON(w, http.StatusOK, resp)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// traces returns a copy of the trace IDs this shard has seen.
func (f *traceShard) traces() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.seen...)
}

func traceRouter(t *testing.T, cfg Config, fakes ...*traceShard) (*Router, *httptest.Server) {
	t.Helper()
	shards := make([]Shard, len(fakes))
	for i, f := range fakes {
		shards[i] = Shard{Name: f.name, Addr: f.ts.URL}
	}
	r, err := New(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		ts.Close()
		r.Shutdown()
	})
	return r, ts
}

// postTraced posts a solve with an optional inbound trace header and
// returns the response status plus the echoed trace header.
func postTraced(t *testing.T, url string, body []byte, inbound string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if inbound != "" {
		req.Header.Set(api.TraceHeader, inbound)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header.Get(api.TraceHeader)
}

func routerTraceByID(t *testing.T, url, id string) obs.TraceRecord {
	t.Helper()
	tz, err := api.NewClient(url).Tracez(context.Background(), 0, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(tz.Traces) != 1 {
		t.Fatalf("tracez by id %q returned %d traces", id, len(tz.Traces))
	}
	return tz.Traces[0]
}

func spanNames(rec obs.TraceRecord) map[string]bool {
	names := map[string]bool{}
	for _, sp := range rec.Spans {
		names[sp.Name] = true
	}
	return names
}

func TestRouterMintsTraceAndPropagatesToShard(t *testing.T) {
	sh := newTraceShard(t, "s0")
	_, ts := traceRouter(t, Config{}, sh)

	body := solveBody(t, "poisson2d", 16)
	status, id := postTraced(t, ts.URL, body, "")
	if status != http.StatusOK {
		t.Fatalf("solve: status %d", status)
	}
	if id == "" || !obs.ValidTraceID(id) {
		t.Fatalf("router did not mint a valid trace ID: %q", id)
	}
	got := sh.traces()
	if len(got) != 1 || got[0] != id {
		t.Fatalf("shard saw traces %v, want [%s]", got, id)
	}
	rec := routerTraceByID(t, ts.URL, id)
	if rec.Tier != api.TierRouter {
		t.Fatalf("trace tier = %q", rec.Tier)
	}
	names := spanNames(rec)
	if !names[obs.SpanAttempt] || !names[obs.SpanRoute] {
		t.Errorf("router trace missing attempt/route spans: %+v", rec.Spans)
	}

	// A client-supplied trace ID is adopted and propagated verbatim.
	status, id = postTraced(t, ts.URL, body, "client-supplied-7")
	if status != http.StatusOK || id != "client-supplied-7" {
		t.Fatalf("inbound ID not adopted: status %d, id %q", status, id)
	}
	got = sh.traces()
	if got[len(got)-1] != "client-supplied-7" {
		t.Fatalf("inbound ID not propagated to shard: %v", got)
	}
}

func TestRouterTraceSurvivesFailoverRetry(t *testing.T) {
	// Both shards refuse their first request with 503, so the winning
	// answer is guaranteed to arrive on a retry attempt — whatever ring
	// order the key hashes to.
	a, b := newTraceShard(t, "s0"), newTraceShard(t, "s1")
	a.refuse, b.refuse = 1, 1
	_, ts := traceRouter(t, Config{RetryBackoff: time.Millisecond}, a, b)

	status, id := postTraced(t, ts.URL, solveBody(t, "poisson2d", 16), "")
	if status != http.StatusOK {
		t.Fatalf("solve: status %d", status)
	}
	for _, sh := range []*traceShard{a, b} {
		for i, seen := range sh.traces() {
			if seen != id {
				t.Errorf("%s attempt %d carried trace %q, want %q", sh.name, i, seen, id)
			}
		}
	}
	rec := routerTraceByID(t, ts.URL, id)
	names := spanNames(rec)
	if !names[obs.SpanRetry] {
		t.Errorf("failover trace has no retry span: %+v", rec.Spans)
	}
	if !names[obs.SpanRoute] {
		t.Errorf("failover trace has no route span: %+v", rec.Spans)
	}
}

func TestRouterTraceSurvivesStreamingPassThrough(t *testing.T) {
	sh := newTraceShard(t, "s0")
	_, ts := traceRouter(t, Config{}, sh)

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(solveBody(t, "poisson2d", 16)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	id := resp.Header.Get(api.TraceHeader)
	if !obs.ValidTraceID(id) {
		t.Fatalf("streamed response has no valid trace ID: %q", id)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	if got := sh.traces(); len(got) != 1 || got[0] != id {
		t.Fatalf("shard saw traces %v, want [%s]", got, id)
	}
	rec := routerTraceByID(t, ts.URL, id)
	if !spanNames(rec)[obs.SpanStream] {
		t.Errorf("streamed trace has no stream span: %+v", rec.Spans)
	}
}

// scrapeRouterMetrics fetches /metrics and returns every plain
// (label-free) sample.
func scrapeRouterMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		sp := strings.LastIndex(line, " ")
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

func TestRouterMetricsReconcileWithRouterz(t *testing.T) {
	sh := newTraceShard(t, "s0")
	r, ts := traceRouter(t, Config{}, sh)

	body := solveBody(t, "poisson2d", 16)
	for i := 0; i < 3; i++ {
		if status, _ := postTraced(t, ts.URL, body, ""); status != http.StatusOK {
			t.Fatalf("solve %d: status %d", i, status)
		}
	}
	m := scrapeRouterMetrics(t, ts.URL)
	rz := r.routerz()
	checks := map[string]float64{
		"resilient_schema_version":               float64(api.SchemaVersion),
		"resilient_router_routed_total":          float64(rz.Routed),
		"resilient_router_failovers_total":       float64(rz.Failovers),
		"resilient_router_spilled_total":         float64(rz.Spilled),
		"resilient_router_unroutable_total":      float64(rz.Unroutable),
		"resilient_router_digest_verified_total": float64(rz.Integrity.DigestVerified),
		"resilient_router_healthy_shards":        float64(rz.HealthyShards),
		"resilient_router_shards":                1,
	}
	for name, want := range checks {
		got, ok := m[name]
		if !ok {
			t.Errorf("/metrics missing %s", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if m["resilient_router_routed_total"] != 3 {
		t.Errorf("routed_total = %v, want 3", m["resilient_router_routed_total"])
	}
	if m["resilient_router_request_seconds_count"] != 3 {
		t.Errorf("request_seconds_count = %v, want 3", m["resilient_router_request_seconds_count"])
	}
	if m["resilient_router_traces_total"] != 3 {
		t.Errorf("traces_total = %v, want 3", m["resilient_router_traces_total"])
	}
}

func TestRouterStatuszBuildInfo(t *testing.T) {
	_, ts := traceRouter(t, Config{}, newTraceShard(t, "s0"), newTraceShard(t, "s1"))
	st, err := api.NewClient(ts.URL).Statusz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Schema != api.SchemaVersion || st.Tier != api.TierRouter {
		t.Errorf("statusz schema %d tier %q, want %d/%q", st.Schema, st.Tier, api.SchemaVersion, api.TierRouter)
	}
	if st.Router == nil || st.Shard != nil {
		t.Fatalf("statusz sections: router=%v shard=%v, want router only", st.Router != nil, st.Shard != nil)
	}
	if len(st.Router.Shards) != 2 {
		t.Errorf("statusz reports %d shards, want 2", len(st.Router.Shards))
	}
	if st.Build == nil {
		t.Fatal("router statusz has no build info")
	}
	if !strings.HasPrefix(st.Build.GoVersion, "go") {
		t.Errorf("go_version = %q", st.Build.GoVersion)
	}
	if st.Build.GOMAXPROCS < 1 {
		t.Errorf("gomaxprocs = %d", st.Build.GOMAXPROCS)
	}
}

// TestTracePropagationAcrossTiers: real solver shards behind a router, one
// request, and the trace ID from the response header retrievable from BOTH
// tiers' /v1/tracez — router spans (route/attempt) on one side, shard spans
// (queue-wait/solve) on the other, under one ID. Only the shard the
// response names was sent the request, so only it holds the ID.
func TestTracePropagationAcrossTiers(t *testing.T) {
	shardURLs := make([]string, 2)
	shards := make([]Shard, 2)
	for i, name := range []string{"s0", "s1"} {
		s := server.New(server.Config{ShardLabel: name})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Shutdown() })
		shardURLs[i] = ts.URL
		shards[i] = Shard{Name: name, Addr: ts.URL}
	}
	r, err := New(Config{}, shards)
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(r.Handler())
	t.Cleanup(func() { rts.Close(); r.Shutdown() })

	resp, err := http.Post(rts.URL+"/v1/solve", "application/json", bytes.NewReader(solveBody(t, "poisson2d", 225)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed solve: status %d", resp.StatusCode)
	}
	var answer api.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&answer); err != nil {
		t.Fatal(err)
	}
	id, served := resp.Header.Get(api.TraceHeader), answer.Result.Shard
	if !obs.ValidTraceID(id) {
		t.Fatalf("invalid trace ID %q", id)
	}

	// Router tier: the trace shows the routing work.
	rec := routerTraceByID(t, rts.URL, id)
	if rec.Tier != api.TierRouter {
		t.Fatalf("router trace tier = %q", rec.Tier)
	}
	names := spanNames(rec)
	if !names[obs.SpanAttempt] || !names[obs.SpanRoute] {
		t.Errorf("router trace missing attempt/route spans: %+v", rec.Spans)
	}

	// Shard tier: the same ID names the solve's trace on the replica that
	// served it, and on no other.
	for i, url := range shardURLs {
		tz, err := api.NewClient(url).Tracez(context.Background(), 0, id)
		if err != nil {
			t.Fatal(err)
		}
		if shards[i].Name != served {
			if len(tz.Traces) != 0 {
				t.Errorf("shard %s, which did not serve the request, holds its trace: %+v", shards[i].Name, tz.Traces)
			}
			continue
		}
		if len(tz.Traces) != 1 {
			t.Fatalf("shard %s, which served the request, holds %d traces under %s, want 1", served, len(tz.Traces), id)
		}
		srec := tz.Traces[0]
		if srec.Tier != api.TierShard {
			t.Errorf("shard %d trace tier = %q", i, srec.Tier)
		}
		snames := spanNames(srec)
		if !snames[obs.SpanSolve] || !snames[obs.SpanQueueWait] {
			t.Errorf("shard %d trace missing solve/queue-wait spans: %+v", i, srec.Spans)
		}
		if srec.Solver == nil || srec.Solver.Iterations == 0 {
			t.Errorf("shard %d trace has no solver tallies", i)
		}
	}
}
