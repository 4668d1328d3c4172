package router

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/harness"
	"repro/internal/server"
)

// TestMain is the package's leak check: once every test has shut its
// routers and shards down, the goroutine count must come back to where it
// started — a prober or forward that outlives Shutdown shows
// up here with its stack. Under -fuzz the check is off: the fuzzing
// coordinator keeps a signal handler of its own running.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && flag.Lookup("test.fuzz").Value.String() == "" {
		http.DefaultClient.CloseIdleConnections() // keep-alive reader/writer pairs are ours to drop
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d before the tests, %d after\n", before, after)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			code = 1
		}
	}
	os.Exit(code)
}

// fakeShard is a minimal shard-API stand-in: it answers /v1/solve with a
// canned body naming itself and /v1/healthz with a settable status, and
// records which requests it served.
type fakeShard struct {
	name string
	ts   *httptest.Server

	mu      sync.Mutex
	served  int
	healthy bool
	code    int // /v1/solve status to answer (0 = 200)
}

func newFakeShard(t *testing.T, name string) *fakeShard {
	t.Helper()
	f := &fakeShard{name: name, healthy: true}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.served++
		code := f.code
		f.mu.Unlock()
		if code != 0 {
			w.WriteHeader(code)
			fmt.Fprintf(w, `{"schema":1,"error":"injected %d"}`, code)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"schema":1,"served_by":%q}`, f.name)
	})
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		ok := f.healthy
		f.mu.Unlock()
		status := "ok"
		if !ok {
			status = "draining"
		}
		json.NewEncoder(w).Encode(api.HealthResponse{Schema: api.SchemaVersion, Status: status})
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeShard) setHealthy(ok bool) {
	f.mu.Lock()
	f.healthy = ok
	f.mu.Unlock()
}

func (f *fakeShard) setSolveCode(code int) {
	f.mu.Lock()
	f.code = code
	f.mu.Unlock()
}

func (f *fakeShard) servedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.served
}

func testRouter(t *testing.T, cfg Config, fakes ...*fakeShard) (*Router, *httptest.Server) {
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

func solveBody(t *testing.T, gen string, n int) []byte {
	t.Helper()
	spec, err := harness.NewMatrixSpec(gen, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(api.SolveRequest{Matrix: &spec, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postRouted posts a solve body and returns status, the serving shard
// (from the routing header) and the decoded served_by field.
func postRouted(t *testing.T, url string, body []byte) (int, string, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ServedBy string `json:"served_by"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, resp.Header.Get("X-Resilient-Shard"), out.ServedBy
}

// TestRouterAffinity pins cache affinity: every request for the same
// matrix identity lands on the same shard, and the shard matches the
// ring's deterministic placement.
func TestRouterAffinity(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t, "s0"), newFakeShard(t, "s1"), newFakeShard(t, "s2")}
	r, ts := testRouter(t, Config{ProbeInterval: time.Hour}, fakes...)

	sizes := []int{16, 25, 36, 49, 64, 81, 100}
	for _, n := range sizes {
		body := solveBody(t, "poisson2d", n)
		spec, _ := harness.NewMatrixSpec("poisson2d", n, 0)
		id, err := server.ResolveIdentity(&api.SolveRequest{Matrix: &spec})
		if err != nil {
			t.Fatal(err)
		}
		want := r.ring.Lookup(id.Key)
		for rep := 0; rep < 3; rep++ {
			code, shard, served := postRouted(t, ts.URL, body)
			if code != http.StatusOK {
				t.Fatalf("n=%d rep %d: status %d", n, rep, code)
			}
			if shard != want || served != want {
				t.Errorf("n=%d rep %d: served by %s/%s, ring says %s", n, rep, shard, served, want)
			}
		}
	}
}

// TestRouterFailoverOnConnectionFailure kills a shard outright: requests
// for its keys must fail over to the next ring replica and succeed, the
// failover is marked, and after failThreshold passive failures the dead
// shard is ejected so later requests skip the doomed attempt.
func TestRouterFailoverOnConnectionFailure(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t, "s0"), newFakeShard(t, "s1"), newFakeShard(t, "s2")}
	r, ts := testRouter(t, Config{ProbeInterval: time.Hour, failThreshold: 2}, fakes...)

	// Find a matrix size owned by s1 so the kill is targeted.
	var body []byte
	var key string
	for n := 16; n < 400; n++ {
		spec, _ := harness.NewMatrixSpec("tridiag", n, 0)
		id, err := server.ResolveIdentity(&api.SolveRequest{Matrix: &spec})
		if err != nil {
			t.Fatal(err)
		}
		if r.ring.Lookup(id.Key) == "s1" {
			req := api.SolveRequest{Matrix: &spec, Seed: 7}
			body, _ = json.Marshal(req)
			key = id.Key
			break
		}
	}
	if body == nil {
		t.Fatal("no tridiag size maps to s1")
	}
	wantFailover := r.ring.successors(key, 2)[1]

	fakes[1].ts.Close() // connection refused from now on

	for rep := 0; rep < 3; rep++ {
		code, shard, _ := postRouted(t, ts.URL, body)
		if code != http.StatusOK {
			t.Fatalf("rep %d: status %d, want failover success", rep, code)
		}
		if shard != wantFailover {
			t.Errorf("rep %d: served by %s, want next replica %s", rep, shard, wantFailover)
		}
	}
	// Two consecutive connection failures tripped the passive circuit.
	if r.shards["s1"].isHealthy() {
		t.Error("dead shard still marked healthy after threshold passive failures")
	}
	if got := r.failovers.Load(); got < 2 {
		t.Errorf("failovers = %d, want ≥ 2", got)
	}
}

// TestRouterRetriesDrainingShard pins 503 failover: a draining shard
// refuses new solves with 503, which must be retried on the next
// replica, not relayed to the client.
func TestRouterRetriesDrainingShard(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t, "s0"), newFakeShard(t, "s1")}
	_, ts := testRouter(t, Config{ProbeInterval: time.Hour}, fakes...)

	body := solveBody(t, "poisson2d", 36)
	_, owner, _ := postRouted(t, ts.URL, body)
	var ownerFake, otherFake *fakeShard
	for _, f := range fakes {
		if f.name == owner {
			ownerFake = f
		} else {
			otherFake = f
		}
	}
	ownerFake.setSolveCode(http.StatusServiceUnavailable)

	code, shard, _ := postRouted(t, ts.URL, body)
	if code != http.StatusOK || shard != otherFake.name {
		t.Fatalf("draining owner: status %d from %q, want 200 from %q", code, shard, otherFake.name)
	}
}

// TestRouterSpillsSaturatedShard pins 429 handling: a saturated owner
// spills to the next replica without tripping the circuit breaker, and
// when every candidate is saturated the client gets the 429 back.
func TestRouterSpillsSaturatedShard(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t, "s0"), newFakeShard(t, "s1")}
	r, ts := testRouter(t, Config{ProbeInterval: time.Hour, failThreshold: 2}, fakes...)

	body := solveBody(t, "poisson2d", 25)
	_, owner, _ := postRouted(t, ts.URL, body)
	var ownerFake, otherFake *fakeShard
	for _, f := range fakes {
		if f.name == owner {
			ownerFake = f
		} else {
			otherFake = f
		}
	}
	ownerFake.setSolveCode(http.StatusTooManyRequests)

	for rep := 0; rep < 3; rep++ {
		code, shard, _ := postRouted(t, ts.URL, body)
		if code != http.StatusOK || shard != otherFake.name {
			t.Fatalf("rep %d: status %d from %q, want spill to %q", rep, code, shard, otherFake.name)
		}
	}
	// Saturation is load, not sickness: the owner must stay healthy.
	if !r.shards[owner].isHealthy() {
		t.Error("saturated shard tripped the circuit breaker")
	}

	// Both candidates saturated: the backpressure reaches the client as
	// the 429 a single shard would have answered.
	otherFake.setSolveCode(http.StatusTooManyRequests)
	code, _, _ := postRouted(t, ts.URL, body)
	if code != http.StatusTooManyRequests {
		t.Errorf("fully saturated tier answered %d, want 429", code)
	}
}

// TestRouterRelaysShardErrors pins the no-retry cases: an answer the
// shard actually computed — including a 400 — is relayed verbatim, not
// re-asked of another replica that would answer identically.
func TestRouterRelaysShardErrors(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t, "s0"), newFakeShard(t, "s1")}
	_, ts := testRouter(t, Config{ProbeInterval: time.Hour}, fakes...)

	body := solveBody(t, "poisson2d", 49)
	_, owner, _ := postRouted(t, ts.URL, body)
	for _, f := range fakes {
		if f.name == owner {
			f.setSolveCode(http.StatusInternalServerError)
		}
	}
	before := 0
	for _, f := range fakes {
		before += f.servedCount()
	}
	code, shard, _ := postRouted(t, ts.URL, body)
	if code != http.StatusInternalServerError || shard != owner {
		t.Fatalf("shard 500: relayed status %d from %q, want 500 from owner %q", code, shard, owner)
	}
	after := 0
	for _, f := range fakes {
		after += f.servedCount()
	}
	if after != before+1 {
		t.Errorf("a computed 500 was retried: %d shard hits for one request", after-before)
	}
}

// TestRouterProbeEjectionAndReadmission drives the active health checks:
// a shard whose healthz goes unhealthy is ejected within the failure
// threshold and re-admitted after one good probe.
func TestRouterProbeEjectionAndReadmission(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t, "s0"), newFakeShard(t, "s1")}
	r, _ := testRouter(t, Config{
		ProbeInterval: 10 * time.Millisecond,
	}, fakes...)

	fakes[0].setHealthy(false)
	waitFor(t, func() bool { return !r.shards["s0"].isHealthy() })

	fakes[0].setHealthy(true)
	waitFor(t, func() bool { return r.shards["s0"].isHealthy() })

	st := r.shards["s0"].status(r.cfg.vnodes)
	if st.EWMALatencyMs <= 0 {
		t.Errorf("probe latency EWMA not tracked: %+v", st)
	}
}

// TestRouterzEndpoint pins the router section of /v1/statusz and its
// shard map.
func TestRouterzEndpoint(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t, "s0"), newFakeShard(t, "s1"), newFakeShard(t, "s2")}
	_, ts := testRouter(t, Config{ProbeInterval: time.Hour}, fakes...)

	for _, n := range []int{16, 25, 36, 49} {
		if code, _, _ := postRouted(t, ts.URL, solveBody(t, "poisson2d", n)); code != http.StatusOK {
			t.Fatalf("n=%d: status %d", n, code)
		}
	}
	rz := routerzOf(t, ts.URL)
	if rz.Schema != api.SchemaVersion || len(rz.Shards) != 3 || rz.HealthyShards != 3 {
		t.Errorf("routerz %+v: want schema %d, 3 healthy shards", rz, api.SchemaVersion)
	}
	if rz.Routed != 4 || rz.Keys.Distinct != 4 {
		t.Errorf("routed=%d distinct keys=%d, want 4 and 4", rz.Routed, rz.Keys.Distinct)
	}
	total := 0
	for _, c := range rz.Keys.PerShard {
		total += c
	}
	if total != 4 {
		t.Errorf("per-shard key counts sum to %d, want 4: %v", total, rz.Keys.PerShard)
	}
	names := map[string]bool{}
	for _, s := range rz.Shards {
		names[s.Name] = true
		if s.VNodes != defaultVnodes {
			t.Errorf("shard %s vnodes=%d, want %d", s.Name, s.VNodes, defaultVnodes)
		}
	}
	if !names["s0"] || !names["s1"] || !names["s2"] {
		t.Errorf("shard map incomplete: %v", names)
	}

	hz, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	var h api.RouterHealth
	if err := json.NewDecoder(hz.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.HealthyShards != 3 || h.TotalShards != 3 {
		t.Errorf("router health %+v", h)
	}
}

// TestZeroConfigDefaults pins what a deployment gets from zero configs on
// both tiers: the router's ring and failover width on statusz and the admin
// topology, and the shard's cache and queue bounds on statusz.
func TestZeroConfigDefaults(t *testing.T) {
	srv := server.New(server.Config{})
	shardTS := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		shardTS.Close()
		srv.Shutdown()
	})
	r, err := New(Config{}, []Shard{{Name: "s0", Addr: shardTS.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		ts.Close()
		r.Shutdown()
	})

	rz := routerzOf(t, ts.URL)
	if rz.Vnodes != defaultVnodes || rz.Replicas != 2 || len(rz.Shards) != 1 || rz.Shards[0].VNodes != defaultVnodes {
		t.Errorf("router statusz: vnodes %d, replicas %d, shards %+v; want %d, 2 and one shard of %d vnodes",
			rz.Vnodes, rz.Replicas, rz.Shards, defaultVnodes, defaultVnodes)
	}
	if topo := r.CurrentTopology(); topo.Vnodes != defaultVnodes || topo.Replicas != 2 {
		t.Errorf("admin topology: vnodes %d, replicas %d; want %d and 2", topo.Vnodes, topo.Replicas, defaultVnodes)
	}

	sz, err := api.NewClient(shardTS.URL).Statusz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sz.Shard == nil {
		t.Fatalf("shard statusz tier %q carries no shard section", sz.Tier)
	}
	if c := sz.Shard.Cache; c.Capacity != 32 || c.CapacityBytes != 256<<20 || sz.Shard.QueueCapacity != 64 {
		t.Errorf("shard statusz: cache capacity %d entries and %d bytes, queue capacity %d; want 32, %d and 64",
			c.Capacity, c.CapacityBytes, sz.Shard.QueueCapacity, 256<<20)
	}
}

// TestRouterValidation pins edge rejections: malformed requests are
// answered at the router without touching any shard, and a draining
// router refuses with 503.
func TestRouterValidation(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t, "s0")}
	r, ts := testRouter(t, Config{ProbeInterval: time.Hour}, fakes...)

	// A file spec is refused here as on the shard (api.SolveRequest.Validate),
	// on every edge: the router must not relay a path for a shard to open.
	fileSpec := `{"matrix":{"gen":"file","path":"/etc/passwd"}`
	cases := []struct {
		name   string
		path   string
		body   string
		stream bool
		code   int
	}{
		{"not json", "/v1/solve", "{", false, http.StatusBadRequest},
		{"no matrix", "/v1/solve", `{"solver":"cg"}`, false, http.StatusBadRequest},
		{"unknown solver", "/v1/solve", `{"matrix":{"gen":"poisson2d","n":16},"solver":"magic"}`, false, http.StatusBadRequest},
		{"file spec", "/v1/solve", fileSpec + `}`, false, http.StatusBadRequest},
		{"file spec, batch", "/v1/solve/batch", fileSpec + `,"rhs":[{"seed":1}]}`, false, http.StatusBadRequest},
		{"file spec, stream", "/v1/solve", fileSpec + `}`, true, http.StatusBadRequest},
		{"path beside a generator", "/v1/solve", `{"matrix":{"gen":"poisson2d","n":16,"path":"/etc/passwd"}}`, false, http.StatusBadRequest},
	}
	for _, tc := range cases {
		hreq, err := http.NewRequest(http.MethodPost, ts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		if tc.stream {
			hreq.Header.Set("Accept", "text/event-stream")
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		var er api.Error
		json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != tc.code || er.Message == "" {
			t.Errorf("%s: status %d (err %q), want %d with an error body", tc.name, resp.StatusCode, er.Message, tc.code)
		}
	}
	if got := fakes[0].servedCount(); got != 0 {
		t.Errorf("invalid requests reached the shard %d times", got)
	}

	r.StartDraining()
	code, _, _ := postRouted(t, ts.URL, solveBody(t, "poisson2d", 16))
	if code != http.StatusServiceUnavailable {
		t.Errorf("draining router answered %d, want 503", code)
	}
}

// tierCase is a body posted to a path, and the status and error message
// both tiers must answer it with.
type tierCase struct {
	path, body string
	code       int
	message    string
}

// answerOnBothTiers posts every case to a real shard and to a router in
// front of it — a single also as a stream — and holds both tiers to the
// case's status and message and to one error code. It returns the shard.
func answerOnBothTiers(t *testing.T, cases []tierCase) (*realShard, string) {
	t.Helper()
	shard := newRealShard(t, "s0")
	r, err := New(Config{ProbeInterval: time.Hour}, []Shard{{Name: shard.name, Addr: shard.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		rts.Close()
		r.Shutdown()
	})
	for _, tc := range cases {
		for _, stream := range []bool{false, true} {
			if stream && tc.path != "/v1/solve" {
				continue
			}
			var codes []string
			for _, tier := range []struct{ name, base string }{{"shard", shard.ts.URL}, {"router", rts.URL}} {
				hreq, err := http.NewRequest(http.MethodPost, tier.base+tc.path, bytes.NewReader([]byte(tc.body)))
				if err != nil {
					t.Fatal(err)
				}
				hreq.Header.Set("Content-Type", "application/json")
				if stream {
					hreq.Header.Set("Accept", "text/event-stream")
				}
				resp, err := http.DefaultClient.Do(hreq)
				if err != nil {
					t.Fatal(err)
				}
				var er api.Error
				if resp.StatusCode != http.StatusOK {
					json.NewDecoder(resp.Body).Decode(&er)
				}
				resp.Body.Close()
				if resp.StatusCode != tc.code || er.Message != tc.message {
					t.Errorf("%s %s (stream %v) %q: %d %q, want %d %q", tier.name, tc.path, stream, tc.body, resp.StatusCode, er.Message, tc.code, tc.message)
				}
				codes = append(codes, er.Code)
			}
			if codes[0] != codes[1] {
				t.Errorf("%s (stream %v) %q: code %q on the shard, %q on the router", tc.path, stream, tc.body, codes[0], codes[1])
			}
		}
	}
	return shard, rts.URL
}

// TestTrailingBytesRefusedOnBothTiers holds the shard and the router to one
// decode rule: a body is exactly one JSON value, so bytes other than
// whitespace after it are the same 400 on either tier, and trailing
// whitespace is no error on either.
func TestTrailingBytesRefusedOnBothTiers(t *testing.T) {
	const single = `{"matrix":{"gen":"poisson2d","n":64},"solver":"cg"}`
	const batch = `{"matrix":{"gen":"poisson2d","n":64},"solver":"cg","rhs":[{"seed":1}]}`
	answerOnBothTiers(t, []tierCase{
		{"/v1/solve", single + ` trailing`, http.StatusBadRequest, "decoding request: invalid character 't' after top-level value"},
		{"/v1/solve", single + single, http.StatusBadRequest, "decoding request: invalid character '{' after top-level value"},
		{"/v1/solve/batch", batch + `]`, http.StatusBadRequest, "decoding request: invalid character ']' after top-level value"},
		{"/v1/solve", single + " \n\t", http.StatusOK, ""},
		{"/v1/solve/batch", batch + "\r\n", http.StatusOK, ""},
	})
}

// TestTypeErrorsNameTheAPITypes holds both tiers' 400 for a body of the
// wrong shape to encoding/json's text for the api type itself — the type a
// client sends, not a server-side decode type — on a single and a batch,
// with and without an inline operand ahead of the bad member.
func TestTypeErrorsNameTheAPITypes(t *testing.T) {
	const (
		spec    = `"matrix":{"gen":"poisson2d","n":64}`
		inline  = `"inline":{"rows":1,"cols":1,"rowidx":[0,1],"colid":[0],"val":[2]}`
		rhs     = `"rhs":[{"seed":1}]`
		prefix  = "decoding request: json: cannot unmarshal "
		single  = prefix + "number into Go struct field SolveRequest.solver of type string"
		batched = prefix + "number into Go struct field BatchSolveRequest.SolveRequest.solver of type string"
	)
	answerOnBothTiers(t, []tierCase{
		{"/v1/solve", `{` + spec + `,"solver":5}`, http.StatusBadRequest, single},
		{"/v1/solve", `{` + inline + `,"solver":5}`, http.StatusBadRequest, single},
		{"/v1/solve", `[1]`, http.StatusBadRequest, prefix + "array into Go value of type api.SolveRequest"},
		{"/v1/solve", `{` + spec + `,"matrix":{"n":"x"}}`, http.StatusBadRequest, prefix + "string into Go struct field MatrixSpec.matrix.n of type int"},
		{"/v1/solve/batch", `{` + spec + `,"solver":5,` + rhs + `}`, http.StatusBadRequest, batched},
		{"/v1/solve/batch", `{` + inline + `,"solver":5,` + rhs + `}`, http.StatusBadRequest, batched},
		{"/v1/solve/batch", `[1]`, http.StatusBadRequest, prefix + "array into Go value of type api.BatchSolveRequest"},
		{"/v1/solve/batch", `{` + spec + `,"rhs":{}}`, http.StatusBadRequest, prefix + "object into Go struct field BatchSolveRequest.rhs of type []api.BatchRHS"},
	})
}

// TestParseRefusalsAnsweredAlikeOnBothTiers holds the tiers to one answer
// for an operand that only its parse refuses — a type error inside it, a
// row-pointer array of the wrong length, a non-square shape, a value beyond
// float64 and a fractional index — on a single, a batch and a stream. The
// router keys such an operand by its bytes and forwards it; the shard
// refuses it and the router relays the 400. Fifty distinct refused operands
// leave the shard's cache as they found it, a resident matrix included: no
// entry, no hit, no miss.
func TestParseRefusalsAnsweredAlikeOnBothTiers(t *testing.T) {
	const prefix = "inline matrix: "
	var cases []tierCase
	for _, op := range []struct{ inline, message string }{
		{`{"rows":"3","cols":3,"rowidx":[0,1,2,3],"colid":[0,1,2],"val":[1,1,1]}`, prefix + "json: cannot unmarshal string into Go value of type int"},
		{`{"rows":2,"cols":2,"rowidx":[0,1],"colid":[0],"val":[1]}`, prefix + "sparse: len(Rowidx)=2, want rows+1=3"},
		{`{"rows":1,"cols":2,"rowidx":[0,2],"colid":[0,1],"val":[1,1]}`, prefix + "1x2 is not square"},
		{`{"rows":1,"cols":1,"rowidx":[0,1],"colid":[0],"val":[1e999]}`, prefix + "not an array of numbers: 1e999 does not fit float64"},
		{`{"rows":1,"cols":1,"rowidx":[0,1],"colid":[1.5],"val":[1]}`, prefix + "not an array of numbers: 1.5 does not fit int"},
	} {
		cases = append(cases,
			tierCase{"/v1/solve", `{"inline":` + op.inline + `}`, http.StatusBadRequest, op.message},
			tierCase{"/v1/solve/batch", `{"inline":` + op.inline + `,"rhs":[{"seed":1}]}`, http.StatusBadRequest, op.message})
	}
	shard, router := answerOnBothTiers(t, cases)

	cacheOf := func() api.CacheStats {
		t.Helper()
		st, err := api.NewClient(shard.ts.URL).Statusz(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return st.Shard.Cache
	}
	resident := []byte(`{"inline":{"rows":1,"cols":1,"rowidx":[0,1],"colid":[0],"val":[2]}}`)
	if code, _, _ := postRouted(t, router, resident); code != http.StatusOK {
		t.Fatalf("resident operand: status %d", code)
	}
	before := cacheOf()
	for i := range 50 {
		body := fmt.Sprintf(`{"inline":{"rows":2,"cols":2,"rowidx":[0,1],"colid":[0],"val":[%d]}}`, i)
		if code, _, _ := postRouted(t, router, []byte(body)); code != http.StatusBadRequest {
			t.Fatalf("refused operand %d: status %d", i, code)
		}
	}
	if after := cacheOf(); before.Entries != 1 || after.Entries != before.Entries || after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("50 refused operands moved the shard's cache from %+v to %+v", before, after)
	}
}

func TestRouterNewValidation(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Error("empty shard set accepted")
	}
	if _, err := New(Config{}, []Shard{{Name: "a"}}); err == nil {
		t.Error("shard without addr accepted")
	}
	if _, err := New(Config{}, []Shard{
		{Name: "a", Addr: "http://x"}, {Name: "a", Addr: "http://y"},
	}); err == nil {
		t.Error("duplicate shard name accepted")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
