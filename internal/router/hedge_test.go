package router

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/api"
)

// ownerOf posts one unhedged solve and returns which shard served it —
// the ring owner for this body's key while every shard is healthy.
func ownerOf(t *testing.T, url string, body []byte) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.HedgeHeader, api.HedgeOff)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner probe: status %d", resp.StatusCode)
	}
	return resp.Header.Get("X-Resilient-Shard")
}

// TestHedgeWinsWhenPrimaryIsSlow is the core hedging contract: a slow
// primary gets a duplicate armed on the replica after the arm delay, the
// replica's verified answer is relayed (stamped as hedged), the loser is
// canceled, and the counters account for all of it.
func TestHedgeWinsWhenPrimaryIsSlow(t *testing.T) {
	r, rt, ts := mockRouter(t, Config{
		HedgeEnabled:  true,
		HedgeDelay:    20 * time.Millisecond,
		HedgeMaxDelay: 50 * time.Millisecond,
	}, "s0", "s1")

	body := solveBody(t, "poisson2d", 16)
	owner := ownerOf(t, ts.URL, body)
	if owner == "" {
		t.Fatal("no X-Resilient-Shard header on the owner probe")
	}
	// Stall the ring owner for far longer than the test runs: any answer
	// at all is the hedge's. The stalled mock returns once its request is
	// canceled, so the loser still gives its connection back.
	rt.Get(owner).SetDelay(time.Minute)

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged solve: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(api.HedgedHeader); got != "1" {
		t.Errorf("%s = %q, want 1", api.HedgedHeader, got)
	}
	if got := resp.Header.Get("X-Resilient-Shard"); got == owner {
		t.Errorf("hedged answer served by the stalled owner %s", got)
	}
	var sr api.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Result.ResidualHash == "" {
		t.Error("hedged answer carries no residual hash")
	}
	rz := r.routerz()
	if !rz.Hedge.Enabled || rz.Hedge.Armed != 1 || rz.Hedge.Wins != 1 {
		t.Errorf("hedge stats %+v, want enabled with 1 armed / 1 win", rz.Hedge)
	}
	if rz.Hedge.LosersCanceled != 1 {
		t.Errorf("losers_canceled = %d, want 1", rz.Hedge.LosersCanceled)
	}

	// The canceled loser must actually wind down: its in-flight gauge
	// returns to zero once the cancellation propagates (the leak check).
	loser := r.shards[owner]
	deadline := time.Now().Add(2 * time.Second)
	for loser.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled loser still in flight %d after cancel", loser.inflight.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A canceled loser must not have fed the circuit breaker.
	if !r.shards[owner].isHealthy() {
		t.Error("canceled hedge loser opened the owner's circuit")
	}
}

// TestHedgeOffHeaderDisablesHedging: the per-request opt-out must reach
// the slow owner and never arm a duplicate.
func TestHedgeOffHeaderDisablesHedging(t *testing.T) {
	r, rt, ts := mockRouter(t, Config{
		HedgeEnabled: true,
		HedgeDelay:   10 * time.Millisecond,
	}, "s0", "s1")

	body := solveBody(t, "tridiag", 25)
	owner := ownerOf(t, ts.URL, body)
	rt.Get(owner).SetDelay(100 * time.Millisecond)

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.HedgeHeader, api.HedgeOff)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Resilient-Shard"); got != owner {
		t.Errorf("opted-out request served by %s, want the owner %s", got, owner)
	}
	if got := resp.Header.Get(api.HedgedHeader); got != "" {
		t.Errorf("%s = %q on an opted-out request", api.HedgedHeader, got)
	}
	if rz := r.routerz(); rz.Hedge.Armed != 0 {
		t.Errorf("armed = %d after an opted-out request, want 0", rz.Hedge.Armed)
	}
}

// TestHedgePrimaryWinStillCounts: when the primary answers after the
// hedge armed but before the secondary, the race is a primary win and
// the secondary is the canceled loser.
func TestHedgePrimaryWinStillCounts(t *testing.T) {
	r, rt, ts := mockRouter(t, Config{
		HedgeEnabled:  true,
		HedgeDelay:    10 * time.Millisecond,
		HedgeMaxDelay: 20 * time.Millisecond,
	}, "s0", "s1")

	body := solveBody(t, "poisson2d", 25)
	owner := ownerOf(t, ts.URL, body)
	// Both slow: the hedge arms, but the primary (head start) wins.
	rt.Get("s0").SetDelay(80 * time.Millisecond)
	rt.Get("s1").SetDelay(80 * time.Millisecond)

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Resilient-Shard"); got != owner {
		t.Errorf("served by %s, want the primary %s", got, owner)
	}
	if got := resp.Header.Get(api.HedgedHeader); got != "" {
		t.Errorf("%s = %q on a primary win", api.HedgedHeader, got)
	}
	rz := r.routerz()
	if rz.Hedge.Armed != 1 || rz.Hedge.PrimaryWins != 1 || rz.Hedge.Wins != 0 {
		t.Errorf("hedge stats %+v, want 1 armed / 1 primary win / 0 hedge wins", rz.Hedge)
	}
}

// TestRouterStatusz checks the unified introspection endpoint: the
// router tier answers a typed StatuszResponse wrapping its routerz.
func TestRouterStatusz(t *testing.T) {
	_, _, ts := mockRouter(t, Config{HedgeEnabled: true}, "s0", "s1")
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
	if !st.Router.Hedge.Enabled {
		t.Error("statusz hedge section does not report enabled")
	}
	if st.Router.Hedge.BaseDelayMs <= 0 || st.Router.Hedge.MaxDelayMs <= 0 {
		t.Errorf("hedge delays %.1f/%.1f ms, want the configured defaults surfaced", st.Router.Hedge.BaseDelayMs, st.Router.Hedge.MaxDelayMs)
	}
}
