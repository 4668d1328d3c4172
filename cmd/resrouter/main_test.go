package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/router"
	"repro/internal/server"
)

// boot starts run() in the background and returns the bound base URL and
// the done channel; the context cancel drives the drain path.
func boot(t *testing.T, args []string) (string, context.CancelFunc, chan error) {
	t.Helper()
	return bootLogging(t, io.Discard, args)
}

// bootLogging is boot with the router's log stream handed to the test.
func bootLogging(t *testing.T, log io.Writer, args []string) (string, context.CancelFunc, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, log, started) }()
	select {
	case addr := <-started:
		return "http://" + addr.String(), cancel, done
	case err := <-done:
		cancel()
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("listener did not come up")
	}
	panic("unreachable")
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestRunSpawnsAndRoutes boots a router that spawns its own shard set,
// routes solves through it, inspects /v1/statusz and drains on cancel.
func TestRunSpawnsAndRoutes(t *testing.T) {
	base, cancel, done := boot(t, []string{"-addr", "127.0.0.1:0", "-spawn", "2", "-q"})
	defer cancel()

	for _, n := range []string{"64", "100"} {
		resp, raw := postJSON(t, base+"/v1/solve", `{"matrix":{"gen":"poisson2d","n":`+n+`},"seed":5}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("n=%s: status %d: %s", n, resp.StatusCode, raw)
		}
		var sr api.SolveResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Result.Converged != 1 || sr.Result.ResidualHash == "" || sr.Result.Shard == "" {
			t.Errorf("n=%s: record converged=%d hash=%q shard=%q",
				n, sr.Result.Converged, sr.Result.ResidualHash, sr.Result.Shard)
		}
		if shard := resp.Header.Get("X-Resilient-Shard"); shard != sr.Result.Shard {
			t.Errorf("n=%s: header shard %q != record shard %q", n, shard, sr.Result.Shard)
		}
	}

	status := routerz(t, base)
	if status.Schema != api.SchemaVersion || len(status.Shards) != 2 || status.Routed != 2 {
		t.Errorf("routerz %+v: want schema %d, 2 shards, 2 routed", status, api.SchemaVersion)
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

// TestRunAttachesTopology mixes an attached external shard with a
// spawned one through a topology file.
func TestRunAttachesTopology(t *testing.T) {
	ext := server.New(server.Config{ShardLabel: "external"})
	ts := httptest.NewServer(ext.Handler())
	t.Cleanup(func() {
		ts.Close()
		ext.Shutdown()
	})

	topo := filepath.Join(t.TempDir(), "topo.json")
	blob, _ := json.Marshal(router.Topology{
		Schema: router.TopologySchemaVersion,
		Shards: []router.Shard{
			{Name: "external", Addr: ts.URL},
			{Name: "local"},
		},
	})
	if err := os.WriteFile(topo, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	base, cancel, done := boot(t, []string{"-addr", "127.0.0.1:0", "-topology", topo, "-q"})
	defer cancel()

	// Drive enough distinct matrices that both shards serve something.
	served := map[string]bool{}
	for n := 16; n <= 56; n += 4 {
		resp, raw := postJSON(t, base+"/v1/solve",
			`{"matrix":{"gen":"tridiag","n":`+jsonInt(n)+`},"seed":5}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("n=%d: status %d: %s", n, resp.StatusCode, raw)
		}
		served[resp.Header.Get("X-Resilient-Shard")] = true
	}
	if !served["external"] || !served["local"] {
		t.Errorf("shard coverage %v, want both external and local", served)
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

func jsonInt(n int) string {
	raw, _ := json.Marshal(n)
	return string(raw)
}

func TestRunRejectsBadInputs(t *testing.T) {
	cases := [][]string{
		{"-definitely-not-a-flag"},
		{"-q"}, // no shards at all
		{"-topology", "/nonexistent/topo.json"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, io.Discard, nil); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}

	// A malformed topology must fail validation, not boot.
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte(`{"schema":1,"shards":[{"name":"a","addr":"not a url"}]}`), 0o644)
	if err := run(context.Background(), []string{"-topology", bad}, io.Discard, nil); err == nil {
		t.Error("malformed topology accepted")
	}
}

func TestRunRejectsBusyAddress(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := run(context.Background(), []string{"-addr", ln.Addr().String(), "-spawn", "1", "-q"}, io.Discard, nil); err == nil {
		t.Fatal("expected a listen error on a busy address")
	}
}

// TestRunChaosPlanKeepsAnswersClean is the tentpole gate in miniature:
// the same campaign, replayed through a seeded fault plan (resets,
// truncations, bit flips, 503 storms), must produce solve results
// bit-identical to the fault-free baseline — every corruption detected
// and retried inside the router, zero corrupt bytes relayed — and the
// injection trace must reproduce exactly under the same seed.
func TestRunChaosPlanKeepsAnswersClean(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "plan.json")
	planJSON := `{"schema":1,"seed":42,"p_reset":0.1,"p_truncate":0.1,"p_bitflip":0.25,"p_503":0.05,"p_latency":0.1,"latency_ms":1}`
	if err := os.WriteFile(plan, []byte(planJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	chaosArgs := []string{"-addr", "127.0.0.1:0", "-spawn", "2", "-q",
		"-chaos-plan", plan, "-retry-budget", "8", "-retry-backoff", "1ms"}

	baseClean, cancelClean, _ := boot(t, []string{"-addr", "127.0.0.1:0", "-spawn", "2", "-q"})
	defer cancelClean()
	baseChaos, cancelChaos, _ := boot(t, chaosArgs)
	defer cancelChaos()

	reqs := make([]string, 0, 12)
	for _, n := range []int{32, 48, 64, 100} {
		body := `{"matrix":{"gen":"poisson2d","n":` + strconv.Itoa(n) + `},"seed":5}`
		reqs = append(reqs, body, body, body) // repeats draw fresh per-attempt fates
	}

	hashOf := func(base, body string) string {
		resp, raw := postJSON(t, base+"/v1/solve", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d under %s: %s", resp.StatusCode, base, raw)
		}
		var sr api.SolveResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Result.ResidualHash == "" {
			t.Fatal("empty residual hash")
		}
		return sr.Result.ResidualHash
	}
	for i, body := range reqs {
		clean := hashOf(baseClean, body)
		chaotic := hashOf(baseChaos, body)
		if clean != chaotic {
			t.Errorf("request %d: chaos result %s != fault-free %s", i, chaotic, clean)
		}
	}

	status := routerz(t, baseChaos)
	if status.Chaos == nil {
		t.Fatal("no chaos section in statusz with -chaos-plan")
	}
	if status.Chaos.BitFlips == 0 || status.Chaos.Resets == 0 || status.Chaos.Truncations == 0 {
		t.Errorf("plan injected no resets/truncations/bit flips over %d requests: %+v", len(reqs), status.Chaos)
	}
	// Detection must be total: every injected flip shows up as a caught
	// corrupt response.
	if status.Integrity.CorruptResponses < status.Chaos.BitFlips {
		t.Errorf("%d bit flips injected, %d detected: %+v", status.Chaos.BitFlips, status.Integrity.CorruptResponses, status.Integrity)
	}
	if status.Integrity.BudgetExhausted != 0 {
		t.Errorf("retry budget exhausted %d times inside a generous budget", status.Integrity.BudgetExhausted)
	}
	if status.Integrity.DigestVerified == 0 {
		t.Error("no digest-verified responses counted")
	}

	// Same seed, same sequence → same injection trace, on a fresh router
	// with different shard ports: determinism survives redeployment.
	baseChaos2, cancelChaos2, _ := boot(t, chaosArgs)
	defer cancelChaos2()
	for _, body := range reqs {
		hashOf(baseChaos2, body)
	}
	status2 := routerz(t, baseChaos2)
	if status2.Chaos.TraceHash != status.Chaos.TraceHash {
		t.Errorf("trace diverged across runs of the same plan: %s vs %s",
			status2.Chaos.TraceHash, status.Chaos.TraceHash)
	}
	if *status2.Chaos != *status.Chaos {
		t.Errorf("fault counts diverged: %+v vs %+v", status2.Chaos, status.Chaos)
	}
}
