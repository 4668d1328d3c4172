package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/api"
)

// TestMain is the package's leak check: once every test is done, the
// goroutine count must come back to where it started — anything an injected
// fault leaves running past its round trip shows up here with its stack.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
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

// rtFunc adapts a function to http.RoundTripper.
type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// cleanBody is the digest-stamped payload the stub shard always answers.
var cleanBody = []byte(`{"schema":1,"served_by":"stub"}` + "\n")

// okShard answers every request 200 with cleanBody, stamped like a real
// resilientd would stamp it.
func okShard() http.RoundTripper {
	return rtFunc(func(req *http.Request) (*http.Response, error) {
		h := make(http.Header)
		h.Set("Content-Type", "application/json")
		h.Set(api.DigestHeader, api.DigestBytes(cleanBody))
		return &http.Response{
			StatusCode:    http.StatusOK,
			Status:        "200 OK",
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        h,
			Body:          io.NopCloser(bytes.NewReader(cleanBody)),
			ContentLength: int64(len(cleanBody)),
			Request:       req,
		}, nil
	})
}

// solveReq builds a POST /v1/solve request with a distinct body per i.
// http.NewRequest wires GetBody for the reader types used here, which is
// what the injector fingerprints.
func solveReq(t *testing.T, i int) *http.Request {
	t.Helper()
	body := fmt.Sprintf(`{"matrix":{"gen":"poisson2d","n":%d},"seed":7}`, 8+i)
	req, err := http.NewRequest(http.MethodPost, "http://127.0.0.1:19999/v1/solve", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func forcedPlan(set func(p *Plan)) Plan {
	p := Plan{Schema: planSchemaVersion, Seed: 42}
	set(&p)
	return p
}

func TestPlanValidate(t *testing.T) {
	bad := map[string]Plan{
		"schema":        {Schema: 99},
		"negative prob": {PReset: -0.1},
		"prob over 1":   {PBitFlip: 1.5},
		"sum over 1":    {PReset: 0.5, PTruncate: 0.3, PBitFlip: 0.3},
		"neg latency":   {PLatency: 0.1, LatencyMillis: -5},
		"neg kills":     {MaxKills: -1},
	}
	for name, p := range bad {
		if err := p.validate(); err == nil {
			t.Errorf("%s: plan %+v accepted", name, p)
		}
	}
	ok := Plan{Schema: planSchemaVersion, Seed: 1, PReset: 0.05, PTruncate: 0.05, PBitFlip: 0.08, P503: 0.03, PLatency: 0.5, LatencyMillis: 50}
	if err := ok.validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	// PLatency is an independent draw: it must not count against the
	// primary-band sum.
	indep := Plan{PReset: 0.6, PLatency: 0.9}
	if err := indep.validate(); err != nil {
		t.Errorf("latency counted into the primary sum: %v", err)
	}
}

func TestLoadPlan(t *testing.T) {
	dir := t.TempDir()
	write := func(body string) string {
		p := filepath.Join(dir, "plan.json")
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	plan, err := LoadPlan(write(`{"schema":1,"seed":77,"p_kill":0.1}`))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 77 {
		t.Errorf("seed %d, want 77", plan.Seed)
	}
	if plan.MaxKills != 1 {
		t.Errorf("MaxKills defaulted to %d, want 1 when p_kill > 0", plan.MaxKills)
	}

	if _, err := LoadPlan(write(`{"schema":1,`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := LoadPlan(write(`{"schema":1,"p_reset":0.9,"p_bitflip":0.9}`)); err == nil {
		t.Error("over-unity primary sum accepted")
	}
	if _, err := LoadPlan(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestInjectedReset(t *testing.T) {
	in := New(forcedPlan(func(p *Plan) { p.PReset = 1 }), okShard())
	_, err := in.RoundTrip(solveReq(t, 0))
	if !errors.Is(err, errInjectedReset) {
		t.Fatalf("err = %v, want errInjectedReset", err)
	}
	if s := in.Stats(); s.Resets != 1 || s.Passed != 0 {
		t.Errorf("stats %+v: want 1 reset, 0 passed", s)
	}
}

func TestInjected503CarriesRetryHint(t *testing.T) {
	in := New(forcedPlan(func(p *Plan) { p.P503 = 1 }), okShard())
	resp, err := in.RoundTrip(solveReq(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	var e api.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Schema != api.SchemaVersion || e.Code != api.CodeDraining || e.RetryAfterMillis <= 0 {
		t.Errorf("envelope %+v: want schema %d, code %q, retry hint > 0", e, api.SchemaVersion, api.CodeDraining)
	}
	if s := in.Stats(); s.Storms503 != 1 {
		t.Errorf("storms = %d, want 1", s.Storms503)
	}
}

func TestInjectedTruncationFailsMidBody(t *testing.T) {
	in := New(forcedPlan(func(p *Plan) { p.PTruncate = 1 }), okShard())
	resp, err := in.RoundTrip(solveReq(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("read err = %v, want ErrUnexpectedEOF", err)
	}
	if len(got) >= len(cleanBody) {
		t.Errorf("read %d bytes, want a strict prefix of %d", len(got), len(cleanBody))
	}
	if !bytes.HasPrefix(cleanBody, got) {
		t.Errorf("truncation changed bytes: %q is not a prefix of %q", got, cleanBody)
	}
	if s := in.Stats(); s.Truncations != 1 {
		t.Errorf("truncations = %d, want 1", s.Truncations)
	}
}

func TestInjectedBitFlipIsDigestVisible(t *testing.T) {
	in := New(forcedPlan(func(p *Plan) { p.PBitFlip = 1 }), okShard())
	resp, err := in.RoundTrip(solveReq(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cleanBody) {
		t.Fatalf("flip changed length: %d vs %d", len(got), len(cleanBody))
	}
	diffBits := 0
	for i := range got {
		for b := got[i] ^ cleanBody[i]; b != 0; b &= b - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Errorf("%d bits differ, want exactly 1", diffBits)
	}
	// The whole point: the stamped digest must catch it.
	if api.VerifyDigest(resp.Header.Get(api.DigestHeader), got) {
		t.Error("digest verified a bit-flipped body")
	}
	if s := in.Stats(); s.BitFlips != 1 {
		t.Errorf("bitFlips = %d, want 1", s.BitFlips)
	}
}

func TestInjectedLatencySpike(t *testing.T) {
	var slept time.Duration
	in := New(forcedPlan(func(p *Plan) { p.PLatency = 1; p.LatencyMillis = 35 }), okShard(),
		withSleep(func(d time.Duration) { slept += d }))
	resp, err := in.RoundTrip(solveReq(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if slept != 35*time.Millisecond {
		t.Errorf("slept %s, want 35ms", slept)
	}
	if s := in.Stats(); s.LatencySpikes != 1 || s.Passed != 1 {
		t.Errorf("stats %+v: want 1 spike composing with a passed response", s)
	}
}

// TestKillDegradesWithoutHook: a kill fault with no KillFunc must still
// consume the same draw (plan-shaped trace) but surface as a reset.
func TestKillDegradesWithoutHook(t *testing.T) {
	in := New(forcedPlan(func(p *Plan) { p.PKill = 1; p.MaxKills = 1 }), okShard())
	_, err := in.RoundTrip(solveReq(t, 0))
	if !errors.Is(err, errInjectedReset) {
		t.Fatalf("err = %v, want degradation to errInjectedReset", err)
	}
	if s := in.Stats(); s.Kills != 0 || s.Resets != 1 {
		t.Errorf("stats %+v: want 0 kills, 1 reset", s)
	}
}

func TestKillHookAndBudget(t *testing.T) {
	var mu sync.Mutex
	var killed []string
	in := New(forcedPlan(func(p *Plan) { p.PKill = 1; p.MaxKills = 1 }), okShard(),
		WithKillFunc(func(host string) bool {
			mu.Lock()
			killed = append(killed, host)
			mu.Unlock()
			return true
		}))

	// First kill: hook fires, and the attempt fails as the shard's death.
	if _, err := in.RoundTrip(solveReq(t, 0)); !errors.Is(err, errInjectedKill) {
		t.Fatalf("kill err = %v, want errInjectedKill", err)
	}
	if len(killed) != 1 || killed[0] != "127.0.0.1:19999" {
		t.Fatalf("killed = %v, want the target host once", killed)
	}
	// Budget spent: further kill draws degrade to resets, hook untouched.
	if _, err := in.RoundTrip(solveReq(t, 1)); !errors.Is(err, errInjectedReset) {
		t.Fatalf("post-budget err = %v, want errInjectedReset", err)
	}
	if len(killed) != 1 {
		t.Errorf("hook fired %d times, want 1 (max_kills)", len(killed))
	}
	if s := in.Stats(); s.Kills != 1 || s.Resets != 1 {
		t.Errorf("stats %+v: want 1 kill, 1 reset", s)
	}
}

// TestKillLandsMidRequest: the attempt that draws a kill reaches a real
// shard and the signal arrives while its handler is still solving; what
// the dying shard then answers is discarded, so the attempt fails either way.
func TestKillLandsMidRequest(t *testing.T) {
	arrived := make(chan struct{})
	killed := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		close(arrived)
		<-killed // the solve runs until the signal lands
		_, _ = w.Write(cleanBody)
	}))
	defer srv.Close()
	in := New(forcedPlan(func(p *Plan) { p.PKill = 1; p.MaxKills = 1 }), srv.Client().Transport,
		WithKillFunc(func(string) bool {
			select {
			case <-arrived:
			case <-time.After(5 * time.Second):
				t.Error("kill signalled before the request reached the shard")
			}
			close(killed)
			return true
		}))
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/solve", strings.NewReader(`{"matrix":{"gen":"poisson2d","n":8}}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.RoundTrip(req); !errors.Is(err, errInjectedKill) {
		t.Fatalf("kill err = %v, want errInjectedKill", err)
	}
	if s := in.Stats(); s.Kills != 1 || s.Requests != 1 {
		t.Errorf("stats %+v: want 1 kill of 1 request", s)
	}
}

// TestRefusedKillIsVoid: a kill drawn against a shard that refuses the
// connect signals nothing and keeps its budget, and the identity draws the
// same kill again on its next attempt.
func TestRefusedKillIsVoid(t *testing.T) {
	refuse := true
	var killed int
	base := rtFunc(func(req *http.Request) (*http.Response, error) {
		if refuse {
			return nil, &net.OpError{Op: "dial", Net: "tcp", Err: os.NewSyscallError("connect", syscall.ECONNREFUSED)}
		}
		return okShard().RoundTrip(req)
	})
	in := New(forcedPlan(func(p *Plan) { p.PKill = 1; p.MaxKills = 1 }), base,
		WithKillFunc(func(string) bool { killed++; return true }))
	if _, err := in.RoundTrip(solveReq(t, 0)); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("refused kill err = %v, want ECONNREFUSED", err)
	}
	if s := in.Stats(); killed != 0 || s.Kills != 0 || s.Requests != 0 {
		t.Fatalf("after a refused connect: %d signals, stats %+v; want none", killed, s)
	}
	refuse = false
	if _, err := in.RoundTrip(solveReq(t, 0)); !errors.Is(err, errInjectedKill) {
		t.Fatalf("redrawn err = %v, want errInjectedKill", err)
	}
	if s := in.Stats(); killed != 1 || s.Kills != 1 || s.Requests != 1 {
		t.Errorf("after the redraw: %d signals, stats %+v; want one kill of one request", killed, s)
	}
}

// TestOnlySolveTrafficIsTouched: health probes and other non-solve calls
// must pass through even a 100%-reset plan — chaos distorts data paths,
// never the control plane observing them.
func TestOnlySolveTrafficIsTouched(t *testing.T) {
	in := New(forcedPlan(func(p *Plan) { p.PReset = 1 }), okShard())
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/v1/healthz"},
		{http.MethodGet, "/v1/statusz"},
		{http.MethodPost, "/v1/tracez"},
		{http.MethodGet, "/v1/solve"}, // wrong method: not solve traffic
	} {
		req, err := http.NewRequest(c.method, "http://127.0.0.1:19999"+c.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := in.RoundTrip(req)
		if err != nil {
			t.Fatalf("%s %s: injected into non-solve traffic: %v", c.method, c.path, err)
		}
		resp.Body.Close()
	}
	if s := in.Stats(); s.Requests != 0 {
		t.Errorf("%d solve requests counted for control-plane traffic", s.Requests)
	}
	// And solve traffic with the same plan is reset, proving the plan was live.
	if _, err := in.RoundTrip(solveReq(t, 0)); !errors.Is(err, errInjectedReset) {
		t.Fatalf("solve err = %v, want errInjectedReset", err)
	}
}

// mixedPlan has every fault on at modest probability — the shape of the
// plans the resrouter and resload tests replay through a router.
func mixedPlan(seed int64) Plan {
	return Plan{
		Schema: planSchemaVersion, Seed: seed,
		PReset: 0.1, PTruncate: 0.1, PBitFlip: 0.15, P503: 0.1,
		PLatency: 0.2, LatencyMillis: 1,
	}
}

// runSequence drives reqs through a fresh injector and returns its stats.
// Responses are drained so body-stage faults (truncation) fully play out.
func runSequence(t *testing.T, plan Plan, order []int, attempts int) *api.ChaosStats {
	t.Helper()
	in := New(plan, okShard(), withSleep(func(time.Duration) {}))
	for a := 0; a < attempts; a++ {
		for _, i := range order {
			resp, err := in.RoundTrip(solveReq(t, i))
			if err != nil {
				continue
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	return in.Stats()
}

// TestTraceDeterminism is the property resrouter's chaos test leans on:
// the same plan over the same request multiset yields the same per-fault
// counters and the same trace hash — even when the requests arrive in a
// different order — and a different seed yields a different trace.
func TestTraceDeterminism(t *testing.T) {
	const n = 64
	forward := make([]int, n)
	reverse := make([]int, n)
	for i := 0; i < n; i++ {
		forward[i] = i
		reverse[i] = n - 1 - i
	}

	a := runSequence(t, mixedPlan(1234), forward, 2)
	b := runSequence(t, mixedPlan(1234), reverse, 2)
	if a.TraceHash != b.TraceHash {
		t.Errorf("trace diverged across orderings: %s vs %s", a.TraceHash, b.TraceHash)
	}
	if *a != *b {
		t.Errorf("counters diverged:\n  forward %+v\n  reverse %+v", a, b)
	}
	// The mixed plan must actually have injected something, or the gate
	// above is vacuous.
	if a.Resets == 0 || a.BitFlips == 0 || a.Truncations == 0 || a.Storms503 == 0 {
		t.Errorf("plan injected nothing in some class: %+v", a)
	}
	if a.Requests != a.Passed+a.Resets+a.Storms503+a.Kills+a.Truncations+a.BitFlips {
		t.Errorf("fault classes do not partition requests: %+v", a)
	}

	c := runSequence(t, mixedPlan(99), forward, 2)
	if c.TraceHash == a.TraceHash {
		t.Errorf("different seeds produced identical trace %s", a.TraceHash)
	}
}

// TestAttemptsDrawFreshFates: the same identity resent (a router
// failover) must not be glued to its first fate — a request that drew a
// reset on attempt 0 must be able to pass on a later attempt.
func TestAttemptsDrawFreshFates(t *testing.T) {
	plan := forcedPlan(func(p *Plan) { p.PReset = 0.5 })
	in := New(plan, okShard())
	outcomes := make(map[bool]int)
	for a := 0; a < 32; a++ {
		resp, err := in.RoundTrip(solveReq(t, 0))
		if err != nil {
			outcomes[false]++
			continue
		}
		resp.Body.Close()
		outcomes[true]++
	}
	if outcomes[true] == 0 || outcomes[false] == 0 {
		t.Errorf("32 attempts at p_reset=0.5 were uniform (%d pass, %d reset): attempts are not drawing fresh fates",
			outcomes[true], outcomes[false])
	}
}

// TestRefusedConnectIsVoid replays one request sequence twice, once with a
// shard that refuses the connect of every third attempt (a restart window)
// and the router resending until it passes: the refused attempts draw
// again, so both runs inject the same faults and trace the same hash.
func TestRefusedConnectIsVoid(t *testing.T) {
	clean := runSequence(t, mixedPlan(1234), []int{0, 1, 2, 3, 4, 5, 6, 7}, 3)

	calls := 0
	ok := okShard()
	refusing := rtFunc(func(req *http.Request) (*http.Response, error) {
		if calls++; calls%3 == 0 {
			return nil, &net.OpError{Op: "dial", Net: "tcp", Err: os.NewSyscallError("connect", syscall.ECONNREFUSED)}
		}
		return ok.RoundTrip(req)
	})
	in := New(mixedPlan(1234), refusing, withSleep(func(time.Duration) {}))
	refused := 0
	for a := 0; a < 3; a++ {
		for i := 0; i < 8; i++ {
			for {
				resp, err := in.RoundTrip(solveReq(t, i))
				if errors.Is(err, syscall.ECONNREFUSED) {
					refused++
					continue // the router resends a refused connect
				}
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				break
			}
		}
	}
	if refused == 0 {
		t.Fatal("no connect was refused: the comparison is vacuous")
	}
	if got := in.Stats(); *got != *clean {
		t.Errorf("%d refused connects moved the run:\n  clean    %+v\n  refusing %+v", refused, clean, got)
	}
}
