package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/checksum"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sparse"
)

// TestMain is the package's leak check: once every test has shut its
// servers down, the goroutine count must come back to where it started —
// a scheduler worker, TTL sweeper or handler that outlives Shutdown shows
// up here with its stack.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
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

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown()
	})
	return s, ts
}

func poisson2DRequest(n int) *api.SolveRequest {
	spec, _ := harness.NewMatrixSpec("poisson2d", n, 0)
	return &api.SolveRequest{Matrix: &spec, Seed: 7}
}

// postSolve posts the request and decodes the body into out (a
// *api.SolveResponse for 200, *api.Error otherwise). Returns the status.
func postSolve(t *testing.T, url string, req *api.SolveRequest, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %d response: %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

func TestSolveEndToEnd(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 2, QueueDepth: 8})

	cases := []struct {
		solver, scheme string
		alpha          float64
	}{
		{"cg", "abft-correction", 0},
		{"cg", "abft-detection", 0},
		{"cg", "online-detection", 0},
		{"cg", "unprotected", 0},
		{"cg", "abft-correction", 0.05},
		{"pcg", "abft-correction", 0},
		{"pcg", "unprotected", 0},
		{"bicgstab", "abft-correction", 0},
	}
	for _, tc := range cases {
		name := tc.solver + "/" + tc.scheme
		req := poisson2DRequest(225)
		req.Solver, req.Scheme, req.Alpha = tc.solver, tc.scheme, tc.alpha
		var resp api.SolveResponse
		if code := postSolve(t, ts.URL, req, &resp); code != http.StatusOK {
			t.Fatalf("%s: status %d", name, code)
		}
		if resp.Schema != api.SchemaVersion {
			t.Errorf("%s: schema %d, want %d", name, resp.Schema, api.SchemaVersion)
		}
		if resp.SolveError != "" {
			t.Fatalf("%s: solve error: %s", name, resp.SolveError)
		}
		r := resp.Result
		if r.Schema != harness.SchemaVersion || r.Converged != 1 || r.Reps != 1 {
			t.Errorf("%s: record schema=%d converged=%d reps=%d", name, r.Schema, r.Converged, r.Reps)
		}
		if r.ResidualHash == "" || r.ResidualHash == harness.HashHistory(nil) {
			t.Errorf("%s: empty residual hash %q", name, r.ResidualHash)
		}
		if r.Matrix.N != 225 || r.Matrix.NNZ == 0 {
			t.Errorf("%s: matrix info %+v", name, r.Matrix)
		}
		if r.MaxFinalResidual > 1e-6 {
			t.Errorf("%s: final residual %g", name, r.MaxFinalResidual)
		}
	}
}

func TestSolveRequestValidation(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 1})

	cases := []struct {
		name string
		req  *api.SolveRequest
		code int
	}{
		{"no matrix", &api.SolveRequest{Solver: "cg"}, http.StatusBadRequest},
		{"both matrices", func() *api.SolveRequest {
			r := poisson2DRequest(16)
			r.Inline = &api.InlineCSR{Rows: 1, Cols: 1, Rowidx: []int{0, 1}, Colid: []int{0}, Val: []float64{1}}
			return r
		}(), http.StatusBadRequest},
		{"unknown solver", func() *api.SolveRequest {
			r := poisson2DRequest(16)
			r.Solver = "chebyshev"
			return r
		}(), http.StatusBadRequest},
		{"fault-injected baseline", func() *api.SolveRequest {
			r := poisson2DRequest(16)
			r.Scheme = "unprotected"
			r.Alpha = 0.1
			return r
		}(), http.StatusBadRequest},
		{"future schema", func() *api.SolveRequest {
			r := poisson2DRequest(16)
			r.Schema = api.SchemaVersion + 1
			return r
		}(), http.StatusBadRequest},
		{"bad inline matrix", &api.SolveRequest{Inline: &api.InlineCSR{
			Rows: 2, Cols: 2, Rowidx: []int{0, 1}, Colid: []int{0}, Val: []float64{1},
		}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var er api.Error
		if code := postSolve(t, ts.URL, tc.req, &er); code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.code)
		} else if er.Message == "" || er.Code == "" {
			t.Errorf("%s: incomplete error envelope %+v", tc.name, er)
		}
	}
}

// TestRepeatedRequestsBitIdentical is the server-path determinism gate:
// repeated identical requests — sequential and concurrent, cold and warm
// cache — must return bit-identical residual-history hashes and identical
// canonical records.
func TestRepeatedRequestsBitIdentical(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 4, QueueDepth: 32})

	for _, tc := range []struct{ solver, scheme string }{
		{"cg", "abft-correction"},
		{"pcg", "unprotected"},
		{"bicgstab", "abft-correction"},
	} {
		req := poisson2DRequest(225)
		req.Solver, req.Scheme = tc.solver, tc.scheme

		const reps = 6
		responses := make([]api.SolveResponse, reps)
		var wg sync.WaitGroup
		for i := 0; i < reps; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if code := postSolve(t, ts.URL, req, &responses[i]); code != http.StatusOK {
					t.Errorf("rep %d: status %d", i, code)
				}
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.Fatalf("%s/%s: request failures", tc.solver, tc.scheme)
		}
		want, err := json.Marshal(responses[0].Result.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < reps; i++ {
			if responses[i].Result.ResidualHash != responses[0].Result.ResidualHash {
				t.Errorf("%s/%s rep %d: hash %s != %s", tc.solver, tc.scheme, i,
					responses[i].Result.ResidualHash, responses[0].Result.ResidualHash)
			}
			got, err := json.Marshal(responses[i].Result.Canonical())
			if err != nil {
				t.Fatal(err)
			}
			// WallSeconds and the wall-clock response fields differ; the
			// canonical record must not.
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s rep %d: canonical record differs:\n%s\n%s", tc.solver, tc.scheme, i, got, want)
			}
		}
	}
}

// TestDeterminismAcrossWorkerCounts runs the same request on a server with
// one scheduler worker and on one with four: the slots are the only workers a
// shard has, a solve runs on one of them from start to end, and its residual
// hash — and the "workers": 1 its record carries — does not depend on how
// many there are.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	req := poisson2DRequest(225)
	req.Scheme = "abft-correction"

	var hashes []string
	for _, slots := range []int{1, 4} {
		_, ts := testServer(t, Config{Concurrency: slots})
		var resp api.SolveResponse
		if code := postSolve(t, ts.URL, req, &resp); code != http.StatusOK {
			t.Fatalf("slots=%d: status %d", slots, code)
		}
		if resp.Result.Workers != 1 {
			t.Errorf("slots=%d: the record says %d workers, a solve runs on 1", slots, resp.Result.Workers)
		}
		hashes = append(hashes, resp.Result.ResidualHash)
	}
	if hashes[0] != hashes[1] {
		t.Errorf("hash differs across slot counts: %s vs %s", hashes[0], hashes[1])
	}
}

func TestCacheHitReporting(t *testing.T) {
	s, ts := testServer(t, Config{Concurrency: 1})
	req := poisson2DRequest(64)

	var cold, warm api.SolveResponse
	postSolve(t, ts.URL, req, &cold)
	postSolve(t, ts.URL, req, &warm)
	if cold.CacheHit {
		t.Error("first request reported a cache hit")
	}
	if !warm.CacheHit {
		t.Error("second request reported a cache miss")
	}
	cs := s.cache.stats()
	if cs.Entries != 1 || cs.Hits != 1 || cs.Misses != 1 {
		t.Errorf("cache stats %+v, want 1 entry, 1 hit, 1 miss", cs)
	}
}

// TestQueueSaturationAndDeadline pins the admission-control semantics: a
// full queue answers 429 immediately, and a queued request whose deadline
// expires before a solver slot frees answers 504 without ever solving.
func TestQueueSaturationAndDeadline(t *testing.T) {
	s, ts := testServer(t, Config{Concurrency: 1, QueueDepth: 2})
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s.testHookPreSolve = func() {
		entered <- struct{}{}
		<-release
	}

	req := poisson2DRequest(64)
	type outcome struct {
		code int
		resp api.SolveResponse
	}
	results := make(chan outcome, 4)
	async := func(r *api.SolveRequest) {
		go func() {
			var resp api.SolveResponse
			code := postSolve(t, ts.URL, r, &resp)
			results <- outcome{code, resp}
		}()
	}

	// A claims the only solver slot and blocks inside the hook.
	async(req)
	<-entered
	// B fills queue slot 1.
	async(req)
	waitFor(t, func() bool { return s.sched.depth() >= 1 })
	// D fills queue slot 2 with a deadline far shorter than A's hold.
	timed := poisson2DRequest(64)
	timed.TimeoutMillis = 50
	var er api.Error
	timedCode := make(chan int, 1)
	go func() { timedCode <- postSolve(t, ts.URL, timed, &er) }()
	waitFor(t, func() bool { return s.sched.depth() >= 2 })

	// C finds the queue full.
	var full api.Error
	if code := postSolve(t, ts.URL, req, &full); code != http.StatusTooManyRequests {
		t.Fatalf("saturated queue: status %d, want 429", code)
	}
	// D expires while queued.
	if code := <-timedCode; code != http.StatusGatewayTimeout {
		t.Fatalf("expired request: status %d, want 504", code)
	}

	close(release)
	for i := 0; i < 2; i++ {
		out := <-results
		if out.code != http.StatusOK {
			t.Errorf("blocked request %d: status %d", i, out.code)
		}
	}
	if got := s.rejected.Load(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	if got := s.expired.Load(); got != 1 {
		t.Errorf("expired = %d, want 1", got)
	}
	if got := s.completed.Load(); got != 2 {
		t.Errorf("completed = %d, want 2", got)
	}
}

// TestGracefulShutdownDrains verifies Shutdown semantics: new requests
// are refused immediately, but everything already admitted — the solve in
// flight and the solve still queued — completes with a full response.
func TestGracefulShutdownDrains(t *testing.T) {
	s, ts := testServer(t, Config{Concurrency: 1, QueueDepth: 4})
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s.testHookPreSolve = func() {
		entered <- struct{}{}
		<-release
	}

	req := poisson2DRequest(64)
	codes := make(chan int, 2)
	async := func() {
		go func() {
			var resp api.SolveResponse
			codes <- postSolve(t, ts.URL, req, &resp)
		}()
	}
	async() // in flight, blocked in the hook
	<-entered
	async() // admitted to the queue
	waitFor(t, func() bool { return s.sched.depth() >= 1 })

	shutdownDone := make(chan struct{})
	go func() {
		s.Shutdown()
		close(shutdownDone)
	}()
	waitFor(t, func() bool { return s.draining.Load() })

	// New work is refused while draining.
	var er api.Error
	if code := postSolve(t, ts.URL, req, &er); code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503", code)
	}

	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned before the queue drained")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("admitted request %d: status %d after drain, want 200", i, code)
		}
	}
	select {
	case <-shutdownDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after the queue drained")
	}
	if got := s.completed.Load(); got != 2 {
		t.Errorf("completed = %d, want 2", got)
	}
}

func TestStatsAndHealthEndpoints(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 1})
	req := poisson2DRequest(64)
	postSolve(t, ts.URL, req, nil)

	sz, err := api.NewClient(ts.URL).Statusz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := sz.Shard; st == nil || st.Schema != api.SchemaVersion || st.Completed != 1 || st.Cache.Entries != 1 || st.Workers != 1 {
		t.Errorf("stats %+v: want schema %d, 1 completed, 1 cache entry, 1 worker per solve", st, api.SchemaVersion)
	}

	hz, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	var health api.HealthResponse
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Schema != api.SchemaVersion || health.Draining {
		t.Errorf("health %+v, want ok/schema %d/not draining", health, api.SchemaVersion)
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

// operandSchemes is every scheme an inline operand may ask for.
var operandSchemes = []string{"unprotected", "online-detection", "abft-detection", "abft-correction"}

// scaledLaplacian is f·L for the 2-D Laplacian of an m×m grid, as an inline
// operand.
func scaledLaplacian(m int, f float64) *api.InlineCSR {
	a := sparse.Poisson2D(m, m)
	for i := range a.Val {
		a.Val[i] *= f
	}
	return &api.InlineCSR{Rows: a.Rows, Cols: a.Cols, Rowidx: a.Rowidx, Colid: a.Colid, Val: a.Val}
}

// TestOperandThatBreaksTheMethodDownIsAnswered: an inline operand that is
// merely not positive definite, or whose scale takes the recurrence out of the
// floating-point range, held a solver slot for 10·MaxIters + 1000 rollbacks —
// seconds at n = 1024, the better part of a minute at n = 4096 — which no
// deadline frees once the solve has started. It is a property of the operand
// and its right-hand side, found by solving, so it is answered as a solve
// error in a 200 (not a 400 at admission, which has no right-hand side yet)
// within the client's deadline, on every scheme, and the slot serves the next
// request.
func TestOperandThatBreaksTheMethodDownIsAnswered(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 1})
	client := &http.Client{Timeout: time.Second}
	for _, f := range []float64{-1, 1e160, 1e-170} {
		for _, scheme := range operandSchemes {
			req := api.SolveRequest{Inline: scaledLaplacian(32, f), Scheme: scheme, Seed: 7}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%g·L under %s: %v", f, scheme, err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var out api.SolveResponse
			if err := json.Unmarshal(raw, &out); resp.StatusCode != http.StatusOK || err != nil {
				t.Fatalf("%g·L under %s: status %d, body %s", f, scheme, resp.StatusCode, raw)
			}
			typed := strings.Contains(out.SolveError, core.ErrBreakdown.Error()) || strings.Contains(out.SolveError, core.ErrScale.Error())
			if !typed || out.Result.Converged != 0 || out.Result.Failures != 1 {
				t.Errorf("%g·L under %s: solve_error %q, record %+v", f, scheme, out.SolveError, out.Result)
			}
		}
	}
	var ok api.SolveResponse
	if status := postSolve(t, ts.URL, poisson2DRequest(64), &ok); status != http.StatusOK || ok.Result.Converged != 1 {
		t.Fatalf("the slot did not serve the next request: status %d, %+v", status, ok)
	}
}

// TestHugeInlineOperandIsAnswered: an inline matrix of huge magnitude used to
// wedge the shard for ever — arming the default scheme searched for the
// checksum shift in a loop that never ended from ‖A‖₁ = 2⁵³ on, inside a
// worker slot that no deadline frees. The request must be answered within its
// deadline, and the slot serve the next one; finite values whose ‖A‖₁
// overflows are refused at admission, on both edges.
func TestHugeInlineOperandIsAnswered(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 1})
	client := &http.Client{Timeout: time.Second}
	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("%s %s: %v", path, body, err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}

	// Negative definite, so CG breaks down: a solve error, but an answer.
	status, raw := post("/v1/solve", `{"inline":{"rows":1,"cols":1,"rowidx":"AAAAAAEAAAA=","colid":"AAAAAA==","val":"QIy1eB2vFcQ="}}`)
	var failed, ok api.SolveResponse
	if err := json.Unmarshal(raw, &failed); status != http.StatusOK || err != nil || failed.SolveError == "" {
		t.Fatalf("[-1e20]: status %d, body %s", status, raw)
	}
	status, raw = post("/v1/solve", `{"inline":{"rows":1,"cols":1,"rowidx":"AAAAAAEAAAA=","colid":"AAAAAA==","val":"QIy1eB2vFUQ="}}`)
	if err := json.Unmarshal(raw, &ok); status != http.StatusOK || err != nil || ok.Result.Converged != 1 || ok.SolveError != "" {
		t.Fatalf("[1e20]: status %d, body %s", status, raw)
	}

	// Finite values (1e308, 1e308, 1) whose column sum is not.
	overflow := `{"inline":{"rows":2,"cols":2,"rowidx":"AAAAAAEAAAADAAAA","colid":"AAAAAAAAAAABAAAA","val":"oMjrhfPM4X+gyOuF88zhfwAAAAAAAPA/"}`
	for path, body := range map[string]string{
		"/v1/solve":       overflow + `}`,
		"/v1/solve/batch": overflow + `,"rhs":[{"seed":1}]}`,
	} {
		status, raw := post(path, body)
		var e api.Error
		if err := json.Unmarshal(raw, &e); status != http.StatusBadRequest || err != nil ||
			e.Code != api.CodeBadRequest || !strings.Contains(e.Message, checksum.ErrNoShift.Error()) {
			t.Fatalf("%s: status %d, body %s", path, status, raw)
		}
	}
}

// TestNonSquareInlineIsRefused: a 1x2 operand panicked a solver worker in
// harness.RHS and took the shard down with it, and 0 rows of 2⁵⁰ columns
// had the cache fill size a column-sum vector by the unpaid-for width. Both
// are a 400 on every edge, and the shard serves the next request.
func TestNonSquareInlineIsRefused(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 1})
	for _, inline := range []string{
		`{"rows":1,"cols":2,"rowidx":"AAAAAAIAAAA=","colid":"AAAAAAEAAAA=","val":"AAAAAAAA8D8AAAAAAADwPw=="}`,
		`{"rows":0,"cols":1125899906842624,"rowidx":"AAAAAA=="}`,
	} {
		for path, body := range map[string]string{
			"/v1/solve":       `{"inline":` + inline + `}`,
			"/v1/solve/batch": `{"inline":` + inline + `,"rhs":[{"seed":1}]}`,
		} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s %s: %v", path, inline, err)
			}
			var e api.Error
			err = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || err != nil || e.Code != api.CodeBadRequest ||
				!strings.Contains(e.Message, "is not square") {
				t.Fatalf("%s %s: status %d, envelope %+v, %v", path, inline, resp.StatusCode, e, err)
			}
		}
	}
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"inline":{"rows":1,"cols":1,"rowidx":"AAAAAAEAAAA=","colid":"AAAAAA==","val":"AAAAAAAAAEA="}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("square operand after the refusals: status %d", resp.StatusCode)
	}
}

// TestFileSpecIsRefusedOnTheWire: a file spec is cgsolve -matrix's alone. A
// request naming one — gen "file", or a path beside any generator — opened a
// server-side file of the client's choosing and echoed its first line in the
// 400. Every edge must refuse it with one message whatever the path holds:
// a file with content, nothing, or a directory that cannot be listed.
func TestFileSpecIsRefusedOnTheWire(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 1})
	dir := t.TempDir()
	secret := dir + "/secret.txt"
	if err := os.WriteFile(secret, []byte("root:x:0:0:super-secret-first-line\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	locked := dir + "/locked"
	if err := os.Mkdir(locked, 0o000); err != nil {
		t.Fatal(err)
	}

	post := func(path, body string, stream bool) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if stream {
			req.Header.Set("Accept", "text/event-stream")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(raw)
	}
	for _, edge := range []struct {
		name, path, tail string
		stream           bool
	}{
		{"single", "/v1/solve", `}`, false},
		{"batch", "/v1/solve/batch", `,"rhs":[{"seed":1}]}`, false},
		{"stream", "/v1/solve", `}`, true},
	} {
		var first string
		for _, matrix := range []string{
			`{"gen":"file","path":"` + secret + `"}`,
			`{"gen":"file","path":"` + dir + `/absent"}`,
			`{"gen":"file","path":"` + locked + `/m.mtx"}`,
			`{"gen":"poisson2d","n":16,"path":"` + secret + `"}`,
		} {
			status, body := post(edge.path, `{"matrix":`+matrix+edge.tail, edge.stream)
			var e api.Error
			if err := json.Unmarshal([]byte(body), &e); status != http.StatusBadRequest || err != nil || e.Code != api.CodeBadRequest {
				t.Errorf("%s %s: status %d, body %s", edge.name, matrix, status, body)
			}
			if strings.Contains(body, "super-secret") || strings.Contains(body, dir) {
				t.Errorf("%s %s: the answer leaks the file or its path: %s", edge.name, matrix, body)
			}
			if first == "" {
				first = e.Message
			} else if e.Message != first {
				t.Errorf("%s %s: message %q, want the same refusal as for any other path, %q", edge.name, matrix, e.Message, first)
			}
		}
	}
}

// TestUnbuildableSpecIsRefused: a generator spec its generator cannot build
// is a 400 bad_request, the second time as the first, and the shard lives
// on. A randomspd spec with no n used to panic inside the entry's build and
// leave the entry half made, so a repeat killed the process from a worker; a
// laplacian of 5 vertices spun a core forever holding the entry, hanging
// every later request for it.
func TestUnbuildableSpecIsRefused(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 1})
	client := &http.Client{Timeout: 10 * time.Second}
	for _, body := range []string{
		`{"matrix":{"gen":"randomspd"}}`,
		`{"matrix":{"gen":"randomspd","n":1000,"density":1000}}`,
		`{"matrix":{"gen":"randomspd","n":10,"density":-0.5}}`,
		`{"matrix":{"gen":"laplacian","n":5}}`,
		`{"matrix":{"gen":"laplacian","n":1}}`,
		`{"matrix":{"gen":"laplacian"}}`,
		`{"matrix":{"gen":"tridiag","n":0}}`,
	} {
		for try := 1; try <= 2; try++ {
			resp, err := client.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s (try %d): %v", body, try, err)
			}
			var e api.Error
			err = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || err != nil || e.Code != api.CodeBadRequest {
				t.Errorf("%s (try %d): status %d, code %q, decode error %v", body, try, resp.StatusCode, e.Code, err)
			}
		}
	}
	resp, err := client.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after the refusals: status %d", resp.StatusCode)
	}
}
