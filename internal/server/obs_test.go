package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/obs"
)

// postSolveTraced posts a solve with an optional inbound trace header and
// returns the decoded response plus the echoed trace header.
func postSolveTraced(t *testing.T, url string, req *api.SolveRequest, inbound string) (*api.SolveResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if inbound != "" {
		hreq.Header.Set(api.TraceHeader, inbound)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("solve: status %d (%s)", resp.StatusCode, raw)
	}
	var out api.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.Header.Get(api.TraceHeader)
}

func TestShardMintsAndEchoesTraceID(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, echoed := postSolveTraced(t, ts.URL, poisson2DRequest(16), "")
	if echoed == "" || !obs.ValidTraceID(echoed) {
		t.Fatalf("shard did not mint a valid trace ID: %q", echoed)
	}
	if resp.Result.TraceID != echoed {
		t.Fatalf("result trace_id %q != header %q", resp.Result.TraceID, echoed)
	}
}

func TestShardReusesInboundTraceID(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, echoed := postSolveTraced(t, ts.URL, poisson2DRequest(16), "router-minted-42")
	if echoed != "router-minted-42" {
		t.Fatalf("inbound trace ID not reused: %q", echoed)
	}
	if resp.Result.TraceID != "router-minted-42" {
		t.Fatalf("result trace_id = %q", resp.Result.TraceID)
	}

	// A malformed inbound ID is replaced, never echoed verbatim.
	_, echoed = postSolveTraced(t, ts.URL, poisson2DRequest(16), "bad id with junk")
	if echoed == "" || strings.Contains(echoed, "bad id") || !obs.ValidTraceID(echoed) {
		t.Fatalf("malformed inbound ID mishandled: %q", echoed)
	}
}

func TestTracezCarriesSpansAndSolverTallies(t *testing.T) {
	s, ts := testServer(t, Config{ShardLabel: "s0"})
	_, id := postSolveTraced(t, ts.URL, poisson2DRequest(16), "")

	tz, err := api.NewClient(ts.URL).Tracez(context.Background(), 0, id)
	if err != nil {
		t.Fatal(err)
	}
	if tz.Schema != api.SchemaVersion || tz.Tier != api.TierShard {
		t.Fatalf("envelope wrong: %+v", tz)
	}
	if tz.Count != 1 || len(tz.Traces) != 1 {
		t.Fatalf("by-ID lookup returned %d traces", len(tz.Traces))
	}
	rec := tz.Traces[0]
	if rec.ID != id || rec.Tier != api.TierShard {
		t.Fatalf("trace identity wrong: %+v", rec)
	}
	names := map[string]bool{}
	for _, sp := range rec.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{obs.SpanCacheFill, obs.SpanQueueWait, obs.SpanSolve} {
		if !names[want] {
			t.Errorf("trace missing %q span: %+v", want, rec.Spans)
		}
	}
	if rec.Solver == nil || rec.Solver.Iterations == 0 {
		t.Fatalf("trace missing solver tallies: %+v", rec.Solver)
	}
	if rec.DurationMillis <= 0 {
		t.Errorf("duration not recorded: %v", rec.DurationMillis)
	}

	// The second identical request hits the cache: no cache-fill span.
	_, id2 := postSolveTraced(t, ts.URL, poisson2DRequest(16), "")
	tz2, err := api.NewClient(ts.URL).Tracez(context.Background(), 0, id2)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range tz2.Traces[0].Spans {
		if sp.Name == obs.SpanCacheFill {
			t.Errorf("warm solve recorded a cache-fill span")
		}
	}

	if s.tracer.Total() < 2 {
		t.Errorf("tracer total = %d, want >= 2", s.tracer.Total())
	}
}

func TestStreamedTerminalEventCarriesTraceID(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := poisson2DRequest(16)
	resp, err := api.NewClient(ts.URL).SolveStream(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.TraceID == "" || !obs.ValidTraceID(resp.Result.TraceID) {
		t.Fatalf("streamed terminal result has no trace ID: %+v", resp.Result.TraceID)
	}
	tz, err := api.NewClient(ts.URL).Tracez(context.Background(), 0, resp.Result.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	if len(tz.Traces) != 1 {
		t.Fatalf("streamed trace not retained: %d", len(tz.Traces))
	}
	names := map[string]bool{}
	for _, sp := range tz.Traces[0].Spans {
		names[sp.Name] = true
	}
	if !names[obs.SpanSolve] || !names[obs.SpanQueueWait] {
		t.Errorf("streamed trace missing solve/queue-wait spans: %+v", tz.Traces[0].Spans)
	}
}

// TestFailedLaneMarksTrace: a solve that ran and failed is a 200 on the
// wire, so the trace is where an operator sees it — on every edge, batches
// included, marked with the first lane's error.
func TestFailedLaneMarksTrace(t *testing.T) {
	_, ts := testServer(t, Config{})
	c := api.NewClient(ts.URL)
	ctx := context.Background()
	starved := poisson2DRequest(225)
	starved.MaxIters = 3

	edges := map[string]func() (traceID, solveError string, err error){
		"single": func() (string, string, error) {
			resp, err := c.Solve(ctx, starved)
			if err != nil {
				return "", "", err
			}
			return resp.Result.TraceID, resp.SolveError, nil
		},
		"stream": func() (string, string, error) {
			resp, err := c.SolveStream(ctx, starved, nil)
			if err != nil {
				return "", "", err
			}
			return resp.Result.TraceID, resp.SolveError, nil
		},
		"batch": func() (string, string, error) {
			resp, err := c.SolveBatch(ctx, &api.BatchSolveRequest{SolveRequest: *starved, RHS: []api.BatchRHS{{Seed: 1}, {Seed: 2}}})
			if err != nil {
				return "", "", err
			}
			return resp.Results[0].Result.TraceID, resp.Results[0].SolveError, nil
		},
	}
	for name, post := range edges {
		id, solveErr, err := post()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if solveErr == "" {
			t.Fatalf("%s: a 3-iteration budget did not fail the solve", name)
		}
		var got string
		waitFor(t, func() bool { // the trace lands in the ring once the handler returns
			tz, err := c.Tracez(ctx, 0, id)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(tz.Traces) == 0 {
				return false
			}
			got = tz.Traces[0].Error
			return true
		})
		if got != solveErr {
			t.Errorf("%s: trace error %q, want the lane's solve error %q", name, got, solveErr)
		}
	}
}

// scrapeMetrics fetches /metrics and returns the value of each plain
// (label-free) sample line.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
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

func TestMetricsReconcileWithStatusz(t *testing.T) {
	_, ts := testServer(t, Config{QueueDepth: 8})
	for i := 0; i < 3; i++ {
		req := poisson2DRequest(16)
		req.Seed = int64(10 + i)
		var out api.SolveResponse
		if code := postSolve(t, ts.URL, req, &out); code != http.StatusOK {
			t.Fatalf("solve %d: status %d", i, code)
		}
	}

	m := scrapeMetrics(t, ts.URL)
	st, err := api.NewClient(ts.URL).Statusz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Shard == nil {
		t.Fatal("statusz has no shard section")
	}
	checks := map[string]float64{
		"resilient_schema_version":                 float64(api.SchemaVersion),
		"resilient_shard_completed_total":          float64(st.Shard.Completed),
		"resilient_shard_failed_total":             float64(st.Shard.Failed),
		"resilient_shard_rejected_total":           float64(st.Shard.Rejected),
		"resilient_shard_expired_total":            float64(st.Shard.Expired),
		"resilient_shard_cache_hits_total":         float64(st.Shard.Cache.Hits),
		"resilient_shard_cache_misses_total":       float64(st.Shard.Cache.Misses),
		"resilient_shard_cache_entries":            float64(st.Shard.Cache.Entries),
		"resilient_shard_inline_parsed_total":      float64(st.Shard.Inline.Parsed),
		"resilient_shard_queue_capacity":           8,
		"resilient_shard_solve_seconds_count":      3,
		"resilient_shard_queue_wait_seconds_count": 3,
		"resilient_shard_traces_total":             3,
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
	if m["resilient_shard_completed_total"] != 3 {
		t.Errorf("completed_total = %v, want 3", m["resilient_shard_completed_total"])
	}
}

func TestShardStatuszBuildInfo(t *testing.T) {
	_, ts := testServer(t, Config{ShardLabel: "s7"})
	st, err := api.NewClient(ts.URL).Statusz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b := st.Build
	if b == nil {
		t.Fatal("statusz has no build info")
	}
	if b.GoVersion == "" || !strings.HasPrefix(b.GoVersion, "go") {
		t.Errorf("go_version = %q", b.GoVersion)
	}
	if b.GOMAXPROCS < 1 {
		t.Errorf("gomaxprocs = %d", b.GOMAXPROCS)
	}
	if b.Version == "" {
		t.Errorf("version empty")
	}
	if b.Label != "s7" {
		t.Errorf("label = %q, want s7", b.Label)
	}
}

func TestShardPprofBehindAdminToken(t *testing.T) {
	_, tsNoToken := testServer(t, Config{})
	resp, err := http.Get(tsNoToken.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("no token configured: status %d, want 403", resp.StatusCode)
	}

	_, ts := testServer(t, Config{AdminToken: "sekrit"})
	get := func(auth string) int {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/debug/pprof/cmdline", nil)
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", "Bearer "+auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := get(""); code != http.StatusUnauthorized {
		t.Errorf("missing token: status %d, want 401", code)
	}
	if code := get("wrong"); code != http.StatusUnauthorized {
		t.Errorf("wrong token: status %d, want 401", code)
	}
	if code := get("sekrit"); code != http.StatusOK {
		t.Errorf("right token: status %d, want 200", code)
	}
}
