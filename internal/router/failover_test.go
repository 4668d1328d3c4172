package router

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/harness"
	"repro/internal/server"
)

// realShard is a full resident solve service mounted as one shard.
type realShard struct {
	name string
	srv  *server.Server
	ts   *httptest.Server
}

func newRealShard(t *testing.T, name string) *realShard {
	t.Helper()
	s := server.New(server.Config{Concurrency: 2, QueueDepth: 32, ShardLabel: name})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown()
	})
	return &realShard{name: name, srv: s, ts: ts}
}

func (s *realShard) kill() {
	s.ts.CloseClientConnections()
	s.ts.Close()
}

// routedSolve posts through the router and returns the full response.
func routedSolve(t *testing.T, url string, req *api.SolveRequest) (api.SolveResponse, string) {
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed solve: status %d", resp.StatusCode)
	}
	var sr api.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr, resp.Header.Get("X-Resilient-Shard")
}

// TestFailoverDeterminism is the sharded determinism gate, live: a mix
// of matrices is served through the router over three real solve
// services, one shard is killed, and every key must (1) keep answering,
// (2) fail over to exactly its next ring replica once the victim is gone,
// while all other keys stay put — the live minimal-disruption property —
// and (3) return residual hashes bit-identical to before the kill and to
// direct, router-less serving.
func TestFailoverDeterminism(t *testing.T) {
	shards := []*realShard{newRealShard(t, "s0"), newRealShard(t, "s1"), newRealShard(t, "s2")}
	specs := make([]Shard, len(shards))
	for i, s := range shards {
		specs[i] = Shard{Name: s.name, Addr: s.ts.URL}
	}
	r, err := New(Config{ProbeInterval: time.Hour}, specs)
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		rts.Close()
		r.Shutdown()
	})

	// A direct, router-less reference service for the hash cross-check.
	direct := newRealShard(t, "direct")

	// Grow the matrix mix until every shard owns at least one key, so
	// the kill below always has victims and survivors.
	var reqs []*api.SolveRequest
	var keys []string
	owners := map[string]bool{}
	for n := 64; n <= 400 && (len(reqs) < 8 || len(owners) < 3); n += 17 {
		for _, gen := range []string{"poisson2d", "tridiag"} {
			spec, err := harness.NewMatrixSpec(gen, n, 0)
			if err != nil {
				t.Fatal(err)
			}
			req := &api.SolveRequest{Matrix: &spec, Seed: 7}
			id, err := server.ResolveIdentity(req)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, req)
			keys = append(keys, id.Key)
			owners[r.ring.Lookup(id.Key)] = true
		}
	}
	if len(owners) != 3 {
		t.Fatalf("mix covers only shards %v; grow the cell set", owners)
	}

	// Phase 1: all healthy. Record placement and hashes.
	hash1 := make([]string, len(reqs))
	shard1 := make([]string, len(reqs))
	for i, req := range reqs {
		sr, shard := routedSolve(t, rts.URL, req)
		if sr.SolveError != "" {
			t.Fatalf("cell %d: solve error %s", i, sr.SolveError)
		}
		hash1[i] = sr.Result.ResidualHash
		shard1[i] = shard
		if want := r.ring.Lookup(keys[i]); shard != want {
			t.Errorf("cell %d served by %s, ring owner is %s", i, shard, want)
		}
		if sr.Result.Shard != shard {
			t.Errorf("cell %d: record provenance %q, routing header %q", i, sr.Result.Shard, shard)
		}
		// Cross-check against direct serving: the routed path must not
		// perturb the solve.
		dsr, _ := routedSolve(t, direct.ts.URL, req)
		if dsr.Result.ResidualHash != hash1[i] {
			t.Errorf("cell %d: routed hash %s != direct hash %s", i, hash1[i], dsr.Result.ResidualHash)
		}
	}

	// Kill s1 mid-campaign, with a request in flight.
	const victim = "s1"
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		shards[1].kill()
	}()
	// Phase 2: re-request the full mix while the kill is in progress, one
	// request at a time. With several in flight, bounded-load routing may
	// serve a busy owner's key from its successor — load, not disruption,
	// and bit-identical; failover under concurrent load is
	// TestLoadSettlesAtZero's. Every request must still answer 200.
	hash2 := make([]string, len(reqs))
	shard2 := make([]string, len(reqs))
	for i, req := range reqs {
		sr, shard := routedSolve(t, rts.URL, req)
		hash2[i], shard2[i] = sr.Result.ResidualHash, shard
	}
	wg.Wait()

	// A request races the kill, so inside the window a victim-owned key may
	// still be answered by the victim; what must hold is that it is answered
	// by the victim or its next replica, with the same hash, and that no
	// other key moves. checkPlacement asserts the strict form once the
	// victim is known to be gone.
	checkPlacement := func(phase string, i int, hash, shard string, victimMayAnswer bool) {
		t.Helper()
		if hash != hash1[i] {
			t.Errorf("%s cell %d: hash changed across failover: %s -> %s", phase, i, hash1[i], hash)
		}
		switch {
		case shard1[i] != victim:
			if shard != shard1[i] {
				t.Errorf("%s cell %d: unaffected key moved %s -> %s (disruption beyond the dead shard)", phase, i, shard1[i], shard)
			}
		case shard == victim && victimMayAnswer:
		default:
			if want := r.ring.successors(keys[i], 2)[1]; shard != want {
				t.Errorf("%s cell %d: victim's key served by %s, want next replica %s", phase, i, shard, want)
			}
		}
	}
	for i := range reqs {
		checkPlacement("kill window", i, hash2[i], shard2[i], true)
	}

	// kill has returned, so the victim's listener is closed: confirm it,
	// then the strict minimal-disruption placement must hold.
	if c, err := net.Dial("tcp", shards[1].ts.Listener.Addr().String()); err == nil {
		c.Close()
		t.Fatal("victim still accepts connections after kill returned")
	}
	// Phase 3: steady state after the kill.
	for i, req := range reqs {
		sr, shard := routedSolve(t, rts.URL, req)
		checkPlacement("after kill", i, sr.Result.ResidualHash, shard, false)
	}
}

// routedStatus posts through the router and returns just the status code
// (routedSolve fatals on non-200, which here is the expected outcome).
func routedStatus(t *testing.T, url, path string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRetryBodyCap pins the bounded-buffering rule: a request body over
// retryBodyBytes is forwarded once to the key's owner — the solve still
// runs — but is never held for a failover resend, so the same request
// answers 502 when the owner dies, while a router whose cap the body fits
// fails over and answers the identical hash.
func TestRetryBodyCap(t *testing.T) {
	shards := []*realShard{newRealShard(t, "s0"), newRealShard(t, "s1")}
	specs := []Shard{
		{Name: shards[0].name, Addr: shards[0].ts.URL},
		{Name: shards[1].name, Addr: shards[1].ts.URL},
	}
	newRouter := func(retryBytes int64) *Router {
		t.Helper()
		r, err := New(Config{ProbeInterval: time.Hour, retryBodyBytes: retryBytes}, specs)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Shutdown)
		return r
	}
	capped := newRouter(16) // every real request body exceeds 16 bytes
	free := newRouter(0)    // the deployed 8 MiB cap: this body fits
	cappedTS := httptest.NewServer(capped.Handler())
	freeTS := httptest.NewServer(free.Handler())
	t.Cleanup(func() { cappedTS.Close(); freeTS.Close() })

	spec, err := harness.NewMatrixSpec("poisson2d", 225, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := &api.SolveRequest{Matrix: &spec, Seed: 7}
	id, err := server.ResolveIdentity(req)
	if err != nil {
		t.Fatal(err)
	}
	owner := capped.ring.Lookup(id.Key)

	// Healthy owner: the cap waives only the retry, never the solve.
	sr, shard := routedSolve(t, cappedTS.URL, req)
	if sr.SolveError != "" {
		t.Fatalf("capped healthy solve: %s", sr.SolveError)
	}
	if shard != owner {
		t.Fatalf("served by %s, ring owner is %s", shard, owner)
	}
	hash := sr.Result.ResidualHash

	for _, s := range shards {
		if s.name == owner {
			s.kill()
		}
	}

	// Under the cap the body is held and resent: the request fails over
	// to the surviving replica with a bit-identical answer.
	fsr, fshard := routedSolve(t, freeTS.URL, req)
	if fshard == owner {
		t.Fatalf("failover request served by the dead owner %s", owner)
	}
	if fsr.Result.ResidualHash != hash {
		t.Errorf("failover hash %s != pre-kill hash %s", fsr.Result.ResidualHash, hash)
	}

	// With the cap the single candidate is the dead owner: no resend, 502.
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if code := routedStatus(t, cappedTS.URL, "/v1/solve", body); code != http.StatusBadGateway {
		t.Errorf("capped request to dead owner: status %d, want 502", code)
	}
}
