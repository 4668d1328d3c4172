package router

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/harness"
)

// TestRepeatOperandParsedOncePerTier holds the tiers to the parses an
// inline operand's bytes need: the router keys it by them and never parses
// it, and the shard parses once per inline cache fill — at the first
// sighting and at the refill after its entry was evicted, not on the repeat
// its cache serves. Statusz and /metrics agree, and every answer carries the
// same residual hash. An operand only the parse refuses is forwarded
// unparsed: the shard parses and refuses it, and the router relays the
// shard's 400.
func TestRepeatOperandParsedOncePerTier(t *testing.T) {
	sh := newRealShard(t, "s0")
	r, err := New(Config{}, []Shard{{Name: sh.name, Addr: sh.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		ts.Close()
		r.Shutdown()
	})

	parsed := func(stage string, want int64) {
		t.Helper()
		st, err := api.NewClient(sh.ts.URL).Statusz(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Shard.Inline.Parsed; got != want {
			t.Errorf("%s: shard parsed %d, want %d", stage, got, want)
		}
		if got := scrapeRouterMetrics(t, sh.ts.URL)["resilient_shard_inline_parsed_total"]; got != float64(want) {
			t.Errorf("%s: shard /metrics reads parsed %v, want %d", stage, got, want)
		}
	}
	for name := range scrapeRouterMetrics(t, ts.URL) {
		if strings.Contains(name, "inline") {
			t.Errorf("the router exports %s: it parses no operand", name)
		}
	}

	inline := &api.SolveRequest{Seed: 7, Inline: &api.InlineCSR{
		Rows: 3, Cols: 3,
		Rowidx: []int{0, 2, 5, 7},
		Colid:  []int{0, 1, 0, 1, 2, 1, 2},
		Val:    []float64{4, -1, -1, 4, -1, -1, 4},
	}}
	first, _ := routedSolve(t, ts.URL, inline)
	parsed("first sighting", 1)
	if first.CacheHit {
		t.Error("first sighting answered from the cache")
	}

	repeat, _ := routedSolve(t, ts.URL, inline)
	parsed("repeat", 1)
	if !repeat.CacheHit {
		t.Error("repeat missed the cache")
	}

	// A cache's worth of other matrices evicts the operand's entry.
	for n := 8; n < 8+32; n++ {
		spec, err := harness.NewMatrixSpec("tridiag", n, 0)
		if err != nil {
			t.Fatal(err)
		}
		routedSolve(t, ts.URL, &api.SolveRequest{Matrix: &spec})
	}
	refill, _ := routedSolve(t, ts.URL, inline)
	parsed("after eviction", 2)
	if refill.CacheHit {
		t.Error("the operand's entry was not evicted")
	}

	for _, resp := range []api.SolveResponse{repeat, refill} {
		if resp.Result.ResidualHash != first.Result.ResidualHash || resp.Result.Matrix != first.Result.Matrix {
			t.Errorf("answer %s on %+v, first %s on %+v", resp.Result.ResidualHash, resp.Result.Matrix,
				first.Result.ResidualHash, first.Result.Matrix)
		}
	}

	refused := []byte(`{"inline":{"rows":1,"cols":1,"rowidx":[0,1],"colid":[1.5],"val":[1]}}`)
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(refused))
	if err != nil {
		t.Fatal(err)
	}
	var e api.Error
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeBadRequest || resp.Header.Get("X-Resilient-Shard") != sh.name {
		t.Errorf("parse-refused operand: %d %q %q from shard %q, want the shard's 400 relayed",
			resp.StatusCode, e.Code, e.Message, resp.Header.Get("X-Resilient-Shard"))
	}
	parsed("parse-refused operand", 3)
}
