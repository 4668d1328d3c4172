package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/api"
)

// TestRunServesAndDrains boots the daemon on an ephemeral port, exercises
// the API end to end, and verifies that cancelling the run context (the
// signal path) drains and returns cleanly.
func TestRunServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-q"}, io.Discard, started)
	}()

	var addr net.Addr
	select {
	case addr = <-started:
	case err := <-done:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("listener did not come up")
	}
	base := "http://" + addr.String()

	hz, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hz.StatusCode)
	}

	body := []byte(`{"matrix": {"gen": "poisson2d", "n": 64}, "solver": "cg", "seed": 5}`)
	post, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer post.Body.Close()
	if post.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", post.StatusCode)
	}
	var resp api.SolveResponse
	if err := json.NewDecoder(post.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result.Converged != 1 || resp.Result.ResidualHash == "" {
		t.Errorf("solve record converged=%d hash=%q", resp.Result.Converged, resp.Result.ResidualHash)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not drain after cancel")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var stderr bytes.Buffer
	if err := run(context.Background(), []string{"-definitely-not-a-flag"}, &stderr, nil); err == nil {
		t.Fatal("expected a flag error")
	}
}

func TestRunRejectsBusyAddress(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := run(context.Background(), []string{"-addr", ln.Addr().String(), "-q"}, io.Discard, nil); err == nil {
		t.Fatal("expected a listen error on a busy address")
	}
}

// TestRunShardLabel pins the sharded-deployment provenance: the -shard
// label must surface in /v1/healthz and in every result record.
func TestRunShardLabel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-shard", "s7", "-q"}, io.Discard, started)
	}()
	var addr net.Addr
	select {
	case addr = <-started:
	case err := <-done:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("listener did not come up")
	}
	base := "http://" + addr.String()

	hz, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	var health api.HealthResponse
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Shard != "s7" || health.Status != "ok" {
		t.Errorf("healthz %+v, want shard s7 and status ok", health)
	}

	body := []byte(`{"matrix": {"gen": "poisson2d", "n": 64}, "seed": 5}`)
	post, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer post.Body.Close()
	var resp api.SolveResponse
	if err := json.NewDecoder(post.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result.Shard != "s7" {
		t.Errorf("result shard %q, want s7", resp.Result.Shard)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run returned %v after drain", err)
	}
}
