package server

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"repro/internal/api"
)

// TestStreamTerminalMatchesBuffered is the shard-side determinism gate
// for streaming: the terminal frame of a streamed solve must carry the
// exact residual hash a buffered solve of the same request produces.
func TestStreamTerminalMatchesBuffered(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 2, QueueDepth: 8})
	req := poisson2DRequest(64)

	var buffered api.SolveResponse
	if code := postSolve(t, ts.URL, req, &buffered); code != http.StatusOK {
		t.Fatalf("buffered solve: status %d", code)
	}
	if buffered.Result.ResidualHash == "" {
		t.Fatal("buffered solve has no residual hash")
	}

	var iters int
	streamed, err := api.NewClient(ts.URL).SolveStream(context.Background(), req, func(ev *api.SolveEvent) error {
		if ev.Kind == api.EventIteration {
			iters++
		}
		if ev.Schema != api.SchemaVersion {
			t.Errorf("event schema %d, want %d", ev.Schema, api.SchemaVersion)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Result.ResidualHash != buffered.Result.ResidualHash {
		t.Errorf("streamed hash %q != buffered hash %q", streamed.Result.ResidualHash, buffered.Result.ResidualHash)
	}
	if iters == 0 {
		t.Error("streamed solve emitted no iteration events")
	}
}

// TestStreamDetectionEvents runs a fault-injected protected solve as a
// stream: detection events on the wire must agree with the detections the
// terminal record reports.
func TestStreamDetectionEvents(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := poisson2DRequest(64)
	req.Solver, req.Scheme, req.Alpha = "cg", "abft-correction", 0.5

	var iters, detections int
	resp, err := api.NewClient(ts.URL).SolveStream(context.Background(), req, func(ev *api.SolveEvent) error {
		switch ev.Kind {
		case api.EventIteration:
			iters++
		case api.EventDetection:
			detections++
			if ev.Detections == 0 {
				t.Errorf("detection event at iteration %d reports 0 detections", ev.Iteration)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if iters == 0 {
		t.Error("no iteration events")
	}
	if resp.Result.Detections > 0 && detections == 0 {
		t.Errorf("result records %d detections but the stream carried no detection events", resp.Result.Detections)
	}
	if detections > 0 && resp.Result.Detections == 0 {
		t.Errorf("stream carried %d detection events but the result records none", detections)
	}
}

// TestStreamQueuedExpiry pins the streamed flavor of admission control: a
// streamed request whose deadline expires while still queued terminates
// with a typed in-stream error event (the headers are already out, so a
// 504 status is no longer possible).
func TestStreamQueuedExpiry(t *testing.T) {
	s, ts := testServer(t, Config{Concurrency: 1, QueueDepth: 2})
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s.testHookPreSolve = func() {
		entered <- struct{}{}
		<-release
	}

	// A claims the only solver slot and blocks inside the hook.
	blocked := make(chan int, 1)
	go func() {
		var resp api.SolveResponse
		blocked <- postSolve(t, ts.URL, poisson2DRequest(64), &resp)
	}()
	<-entered

	// The streamed request queues behind A and expires before a slot frees.
	timed := poisson2DRequest(64)
	timed.TimeoutMillis = 50
	_, err := api.NewClient(ts.URL).SolveStream(context.Background(), timed, nil)
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("queued expiry error = %v, want a typed *api.Error from the error event", err)
	}
	if ae.Code != api.CodeExpired {
		t.Errorf("error code %q, want %q", ae.Code, api.CodeExpired)
	}
	if ae.Schema != api.SchemaVersion {
		t.Errorf("error event schema %d, want %d", ae.Schema, api.SchemaVersion)
	}

	close(release)
	if code := <-blocked; code != http.StatusOK {
		t.Errorf("blocked solve: status %d", code)
	}
	if got := s.expired.Load(); got != 1 {
		t.Errorf("expired = %d, want 1", got)
	}
}

// TestShardStatusz checks the unified introspection endpoint on the
// shard tier: a typed StatuszResponse wrapping the stats snapshot.
func TestShardStatusz(t *testing.T) {
	_, ts := testServer(t, Config{})
	st, err := api.NewClient(ts.URL).Statusz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Schema != api.SchemaVersion || st.Tier != api.TierShard {
		t.Errorf("statusz schema %d tier %q, want %d/%q", st.Schema, st.Tier, api.SchemaVersion, api.TierShard)
	}
	if st.Shard == nil || st.Router != nil {
		t.Fatalf("statusz sections: shard=%v router=%v, want shard only", st.Shard != nil, st.Router != nil)
	}
	if st.Shard.QueueCapacity == 0 && st.Shard.Workers == 0 {
		t.Errorf("shard section looks empty: %+v", st.Shard)
	}
}
