package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"repro/internal/api"
)

// solveRequestOf decodes a solveBody back into the typed request the
// streaming client speaks.
func solveRequestOf(t *testing.T, body []byte) *api.SolveRequest {
	t.Helper()
	var req api.SolveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	return &req
}

// TestStreamPassThrough routes a streamed solve through the router and
// requires the terminal hash to be bit-identical to a buffered solve of
// the same request — the relay must not perturb a single byte.
func TestStreamPassThrough(t *testing.T) {
	r, _, ts := mockRouter(t, Config{}, "s0", "s1")
	body := solveBody(t, "poisson2d", 16)

	// Buffered baseline.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var buffered api.SolveResponse
	err = json.NewDecoder(resp.Body).Decode(&buffered)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if buffered.Result.ResidualHash == "" {
		t.Fatal("buffered baseline has no hash")
	}

	var events []string
	streamed, err := api.NewClient(ts.URL).SolveStream(context.Background(), solveRequestOf(t, body), func(ev *api.SolveEvent) error {
		events = append(events, ev.Kind)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Result.ResidualHash != buffered.Result.ResidualHash {
		t.Errorf("streamed hash %q != buffered hash %q", streamed.Result.ResidualHash, buffered.Result.ResidualHash)
	}
	if len(events) < 2 {
		t.Errorf("saw %d events %v, want at least an iteration and the terminal", len(events), events)
	}

	rz := r.routerz()
	if rz.Hedge.StreamedPassthrough != 1 {
		t.Errorf("streamed_passthrough = %d, want 1", rz.Hedge.StreamedPassthrough)
	}
}

// TestStreamPassThroughNeverHedges: even with hedging on and the
// serving shard slow, a streamed solve takes the single-attempt
// pass-through path and never arms a duplicate.
func TestStreamPassThroughNeverHedges(t *testing.T) {
	r, rt, ts := mockRouter(t, Config{
		HedgeEnabled: true,
		HedgeDelay:   5 * time.Millisecond,
	}, "s0", "s1")
	body := solveBody(t, "poisson2d", 16)
	owner := ownerOf(t, ts.URL, body)
	rt.Get(owner).SetDelay(60 * time.Millisecond)

	if _, err := api.NewClient(ts.URL).SolveStream(context.Background(), solveRequestOf(t, body), nil); err != nil {
		t.Fatal(err)
	}
	rz := r.routerz()
	if rz.Hedge.Armed != 0 {
		t.Errorf("a streamed solve armed %d hedges, want 0", rz.Hedge.Armed)
	}
	if rz.Hedge.StreamedPassthrough != 1 {
		t.Errorf("streamed_passthrough = %d, want 1", rz.Hedge.StreamedPassthrough)
	}
}

// TestStreamPlacementFollowsHedging: with the key's home measurably slow, a
// stream still goes to its home when hedging is off — placement reads ring
// and load alone, as for a buffered request — and to the EWMA-best replica,
// the hedged round's primary, when it is on.
func TestStreamPlacementFollowsHedging(t *testing.T) {
	for _, hedged := range []bool{false, true} {
		_, rt, ts := mockRouter(t, Config{HedgeEnabled: hedged, HedgeDelay: 5 * time.Millisecond}, "s0", "s1")
		body := solveBody(t, "poisson2d", 16)
		home := ownerOf(t, ts.URL, body)
		rt.Get(home).SetDelay(20 * time.Millisecond)
		// Unhedged buffered traffic over many keys measures both shards (a
		// hedge loser is canceled before it yields a sample).
		for n := 8; n < 40; n++ {
			hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(solveBody(t, "tridiag", n)))
			if err != nil {
				t.Fatal(err)
			}
			hreq.Header.Set(api.HedgeHeader, api.HedgeOff)
			resp, err := http.DefaultClient.Do(hreq)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		before := rt.Get(home).Solves()
		if _, err := api.NewClient(ts.URL).SolveStream(context.Background(), solveRequestOf(t, body), nil); err != nil {
			t.Fatal(err)
		}
		if onHome := rt.Get(home).Solves() > before; onHome == hedged {
			t.Errorf("hedging %v: stream served by its slow home = %v, want %v", hedged, onHome, !hedged)
		}
	}
}

// TestStreamMidStreamKill kills the shard between the first frame and
// the terminal: the router must convert the upstream death into a typed
// in-stream error event, not a silent truncation.
func TestStreamMidStreamKill(t *testing.T) {
	_, rt, ts := mockRouter(t, Config{}, "s0", "s1")
	body := solveBody(t, "tridiag", 16)
	owner := ownerOf(t, ts.URL, body)
	rt.Get(owner).KillMidStream()

	var kinds []string
	_, err := api.NewClient(ts.URL).SolveStream(context.Background(), solveRequestOf(t, body), func(ev *api.SolveEvent) error {
		kinds = append(kinds, ev.Kind)
		return nil
	})
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("mid-stream kill error = %v, want a typed *api.Error from the error event", err)
	}
	if ae.Code != api.CodeUnroutable {
		t.Errorf("error code %q, want %q", ae.Code, api.CodeUnroutable)
	}
	if ae.Schema != api.SchemaVersion {
		t.Errorf("error event schema %d, want %d", ae.Schema, api.SchemaVersion)
	}
	if len(kinds) == 0 || kinds[len(kinds)-1] != api.EventError {
		t.Errorf("event kinds %v, want a terminal error event", kinds)
	}
}

// TestSchemaStampStatusz extends the schema sweep to the new unified
// introspection path on the router tier.
func TestSchemaStampStatusz(t *testing.T) {
	_, _, ts := mockRouter(t, Config{}, "s0")
	resp, err := http.Get(ts.URL + "/v1/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var stamped struct {
		Schema int `json:"schema"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stamped); err != nil {
		t.Fatal(err)
	}
	if stamped.Schema != api.SchemaVersion {
		t.Errorf("schema %d, want %d", stamped.Schema, api.SchemaVersion)
	}
}
