package router

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
	"repro/internal/harness"
)

// TestRepeatOperandParsedOncePerTier holds each tier to one parse of an
// inline operand's bytes: a repeat is routed on the key the router
// remembered for them and served from the shard's cache, neither tier
// parsing it; once the shard's cache has evicted the entry the shard parses
// again to refill it, and the router still does not. Statusz and /metrics
// agree on both tiers, and every answer carries the same residual hash.
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

	counted := func(stage string, router, shard api.InlineStats) {
		t.Helper()
		if got := routerzOf(t, ts.URL).Inline; got != router {
			t.Errorf("%s: router inline %+v, want %+v", stage, got, router)
		}
		st, err := api.NewClient(sh.ts.URL).Statusz(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Shard.Inline; got != shard {
			t.Errorf("%s: shard inline %+v, want %+v", stage, got, shard)
		}
		for _, tier := range []struct {
			url, prefix string
			want        api.InlineStats
		}{{ts.URL, "resilient_router_", router}, {sh.ts.URL, "resilient_shard_", shard}} {
			m := scrapeRouterMetrics(t, tier.url)
			if p, k := m[tier.prefix+"inline_parsed_total"], m[tier.prefix+"inline_remembered_total"]; p != float64(tier.want.Parsed) || k != float64(tier.want.Remembered) {
				t.Errorf("%s: %s/metrics reads parsed %v remembered %v, want %+v", stage, tier.prefix, p, k, tier.want)
			}
		}
	}

	inline := &api.SolveRequest{Seed: 7, Inline: &api.InlineCSR{
		Rows: 3, Cols: 3,
		Rowidx: []int{0, 2, 5, 7},
		Colid:  []int{0, 1, 0, 1, 2, 1, 2},
		Val:    []float64{4, -1, -1, 4, -1, -1, 4},
	}}
	first, _ := routedSolve(t, ts.URL, inline)
	counted("first sighting", api.InlineStats{Parsed: 1}, api.InlineStats{Parsed: 1})
	if first.CacheHit {
		t.Error("first sighting answered from the cache")
	}

	repeat, _ := routedSolve(t, ts.URL, inline)
	counted("repeat", api.InlineStats{Parsed: 1, Remembered: 1}, api.InlineStats{Parsed: 1, Remembered: 1})
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
	counted("after eviction", api.InlineStats{Parsed: 1, Remembered: 2}, api.InlineStats{Parsed: 2, Remembered: 2})
	if refill.CacheHit {
		t.Error("the operand's entry was not evicted")
	}

	for _, resp := range []api.SolveResponse{repeat, refill} {
		if resp.Result.ResidualHash != first.Result.ResidualHash || resp.Result.Matrix != first.Result.Matrix {
			t.Errorf("answer %s on %+v, first %s on %+v", resp.Result.ResidualHash, resp.Result.Matrix,
				first.Result.ResidualHash, first.Result.Matrix)
		}
	}
}
