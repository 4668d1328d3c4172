package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/router"
	"repro/internal/server"
)

func loadTarget(t *testing.T) string {
	t.Helper()
	s := server.New(server.Config{Concurrency: 2, QueueDepth: 64})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown()
	})
	return ts.URL
}

func TestRunAgainstLiveServer(t *testing.T) {
	url := loadTarget(t)
	var stdout bytes.Buffer
	args := []string{
		"-addr", url, "-n", "18", "-c", "4",
		"-matrices", "poisson2d:100,tridiag:120",
		"-solvers", "cg,pcg,bicgstab",
		"-schemes", "abft-correction,unprotected",
		"-json", "-check", "-q",
	}
	if err := run(args, &stdout, io.Discard); err != nil {
		t.Fatalf("resload: %v", err)
	}
	var rec Record
	if err := json.Unmarshal(stdout.Bytes(), &rec); err != nil {
		t.Fatalf("decoding record: %v\n%s", err, stdout.String())
	}
	if rec.Schema != Schema {
		t.Errorf("schema %d, want %d", rec.Schema, Schema)
	}
	if rec.OK != 18 || rec.Requests != 18 {
		t.Errorf("ok=%d requests=%d, want 18/18 (record: %+v)", rec.OK, rec.Requests, rec)
	}
	if !rec.Deterministic {
		t.Error("mix reported nondeterministic hashes")
	}
	if rec.Throughput <= 0 {
		t.Errorf("throughput %g, want > 0", rec.Throughput)
	}
	if rec.Latency.P99Ms < rec.Latency.P50Ms {
		t.Errorf("latency summary inconsistent: %+v", rec.Latency)
	}
	// 12 cells, 18 requests round-robin: the first six cells fire twice.
	// Every cell that fired at least once must have exactly one hash.
	if len(rec.Mix) != 12 {
		t.Fatalf("mix has %d cells, want 12", len(rec.Mix))
	}
	for _, cell := range rec.Mix {
		if cell.OK > 0 && cell.DistinctHashes != 1 {
			t.Errorf("cell %s: %d distinct hashes", cell.Name, cell.DistinctHashes)
		}
	}
}

func TestRunTextSummary(t *testing.T) {
	url := loadTarget(t)
	var stdout bytes.Buffer
	args := []string{
		"-addr", url, "-n", "4", "-c", "2",
		"-matrices", "poisson2d:64", "-solvers", "cg", "-schemes", "abft-correction",
		"-q",
	}
	if err := run(args, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"requests=4", "deterministic=true", "cg/abft-correction/poisson2d:64"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestRunCheckFailsOnDeadServer(t *testing.T) {
	args := []string{"-addr", "http://127.0.0.1:1", "-n", "2", "-c", "1", "-check", "-q"}
	if err := run(args, io.Discard, io.Discard); err == nil {
		t.Fatal("expected -check to fail against a dead server")
	}
}

func TestBuildMixSkipsInvalidCombos(t *testing.T) {
	mix, err := buildMix("poisson2d:64", "cg,bicgstab", "online-detection,abft-correction", 0, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// bicgstab × online-detection is unsupported and must be dropped.
	if len(mix) != 3 {
		names := make([]string, len(mix))
		for i, m := range mix {
			names[i] = m.name
		}
		t.Fatalf("mix has %d cells %v, want 3", len(mix), names)
	}
	for _, m := range mix {
		if strings.Contains(m.name, "bicgstab/online-detection") {
			t.Errorf("invalid cell survived: %s", m.name)
		}
	}
}

func TestBuildMixRejectsBadMatrices(t *testing.T) {
	for _, bad := range []string{"poisson2d", "poisson2d:x", "warp:64", ""} {
		if _, err := buildMix(bad, "cg", "unprotected", 0, 1, 1, 0); err == nil {
			t.Errorf("buildMix(%q) accepted", bad)
		}
	}
}

// TestSummarizePercentiles pins the nearest-rank estimator on known
// inputs: the q-quantile of n sorted samples is the ⌈q·n⌉-th (1-based).
// The rounding form int(q·n+0.5)−1 it replaced read one sample too low
// whenever frac(q·n) ∈ (0, 0.5) — the n=26 row catches exactly that.
func TestSummarizePercentiles(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	cases := []struct {
		name               string
		in                 []float64
		p50, p90, p99, max float64
	}{
		{"empty", nil, 0, 0, 0, 0},
		{"single", seq(1), 1, 1, 1, 1},
		{"n=4", seq(4), 2, 4, 4, 4},
		{"n=26", seq(26), 13, 24, 26, 26}, // p90 rank ⌈23.4⌉=24; rounding gave 23
		{"n=100", seq(100), 50, 90, 99, 100},
		{"n=200", seq(200), 100, 180, 198, 200},
	}
	for _, tc := range cases {
		in := append([]float64(nil), tc.in...)
		got := summarize(in)
		if got.P50Ms != tc.p50 || got.P90Ms != tc.p90 || got.P99Ms != tc.p99 || got.MaxMs != tc.max {
			t.Errorf("%s: got p50=%v p90=%v p99=%v max=%v, want %v/%v/%v/%v",
				tc.name, got.P50Ms, got.P90Ms, got.P99Ms, got.MaxMs, tc.p50, tc.p90, tc.p99, tc.max)
		}
	}
	// Percentiles must never exceed the maximum or fall below the minimum.
	s := summarize(seq(26))
	if s.P99Ms > s.MaxMs || s.P50Ms < 1 {
		t.Errorf("bounds violated: %+v", s)
	}
}

// TestRunBatchedMix drives the batched endpoint end to end: every cell is
// a 3-RHS batch, and the built-in cross-check re-solves each RHS alone and
// requires bit-identical hashes.
func TestRunBatchedMix(t *testing.T) {
	url := loadTarget(t)
	var stdout bytes.Buffer
	args := []string{
		"-addr", url, "-n", "8", "-c", "2",
		"-matrices", "poisson2d:100", "-solvers", "cg", "-schemes", "abft-correction,unprotected",
		"-batch", "3", "-json", "-check", "-q",
	}
	if err := run(args, &stdout, io.Discard); err != nil {
		t.Fatalf("resload -batch: %v", err)
	}
	var rec Record
	if err := json.Unmarshal(stdout.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.OK != 8 || !rec.Deterministic {
		t.Fatalf("ok=%d deterministic=%v, want 8/true", rec.OK, rec.Deterministic)
	}
	if rec.Batch == nil || rec.Batch.Checks != 6 || rec.Batch.Mismatches != 0 || rec.Batch.Errors != 0 {
		t.Fatalf("batch cross-check %+v, want 6 clean checks (2 cells × 3 RHS)", rec.Batch)
	}
	for _, cl := range rec.Mix {
		if !strings.Contains(cl.Name, "/k3") {
			t.Errorf("cell %s: missing batch suffix", cl.Name)
		}
		if cl.OK > 0 && strings.Count(cl.ResidualHash, "+") != 2 {
			t.Errorf("cell %s: hash %q does not join 3 per-RHS hashes", cl.Name, cl.ResidualHash)
		}
	}
}

var updateGolden = flag.Bool("update", false, "re-record the golden replay campaign")

// routerTarget boots three real solve-service shards behind an
// in-process router configured by cfg (its probes idle unless cfg paces
// them) and returns the router URL, the shard URLs and a kill function for
// the first shard.
func routerTarget(t *testing.T, cfg router.Config) (string, []string, func()) {
	t.Helper()
	names := []string{"s0", "s1", "s2"}
	shardURLs := make([]string, len(names))
	shards := make([]router.Shard, len(names))
	var killFirst func()
	for i, name := range names {
		s := server.New(server.Config{Concurrency: 2, QueueDepth: 64, ShardLabel: name})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			s.Shutdown()
		})
		shardURLs[i] = ts.URL
		shards[i] = router.Shard{Name: name, Addr: ts.URL}
		if i == 0 {
			killFirst = func() {
				ts.CloseClientConnections()
				ts.Close()
			}
		}
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour
	}
	rt, err := router.New(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		rts.Close()
		rt.Shutdown()
	})
	return rts.URL, shardURLs, killFirst
}

// load runs resload with args and -json -q, and returns its record; a run
// that fails (under -check, any failed gate) fails the test.
func load(t *testing.T, args ...string) Record {
	t.Helper()
	var stdout bytes.Buffer
	if err := run(append(args, "-json", "-q"), &stdout, io.Discard); err != nil {
		t.Fatalf("resload %s: %v", strings.Join(args, " "), err)
	}
	var rec Record
	if err := json.Unmarshal(stdout.Bytes(), &rec); err != nil {
		t.Fatalf("decoding record: %v\n%s", err, stdout.String())
	}
	return rec
}

// TestRunRouterMode drives the sharded determinism gate end to end: a
// routed campaign with a direct-shard cross-check, batched and streamed
// solves through the router, then a shard kill and a replay of the
// recorded campaign whose every hash must still reproduce through the
// failover path, and last the same replay through a router whose shard
// traffic runs a seeded fault plan.
func TestRunRouterMode(t *testing.T) {
	routerURL, shardURLs, killFirst := routerTarget(t, router.Config{})
	campaign := filepath.Join(t.TempDir(), "campaign.json")
	shards := strings.Join(shardURLs, ",")

	// Phase 1: all shards healthy. Record the campaign, cross-check
	// routed hashes against direct serving on every shard.
	rec1 := load(t, "-addr", routerURL, "-router", "-shards", shards,
		"-n", "24", "-c", "4",
		"-matrices", "poisson2d:100,poisson2d:144,tridiag:120,tridiag:160",
		"-solvers", "cg", "-schemes", "abft-correction,unprotected",
		"-record", campaign, "-check")
	if rec1.Router == nil || rec1.Router.Shards != 3 || rec1.Router.HealthyShards != 3 {
		t.Fatalf("phase 1 router summary %+v, want 3/3 shards", rec1.Router)
	}
	if rec1.Direct == nil || rec1.Direct.Checks == 0 || rec1.Direct.Mismatches != 0 || rec1.Direct.Errors != 0 {
		t.Fatalf("phase 1 direct check %+v, want clean checks > 0", rec1.Direct)
	}
	if rec1.Router.DistinctKeys != 4 {
		t.Errorf("router saw %d distinct keys, want 4", rec1.Router.DistinctKeys)
	}

	// The batched mix through the router: every right-hand side must
	// answer what a single solve does, and every batched cell what the
	// shards answer it directly.
	recB := load(t, "-addr", routerURL, "-router", "-shards", shards,
		"-n", "6", "-c", "2", "-matrices", "poisson2d:100,tridiag:120",
		"-solvers", "cg", "-schemes", "abft-correction", "-batch", "3", "-check")
	if recB.Batch == nil || recB.Batch.Checks != 6 || recB.Batch.Mismatches != 0 || recB.Batch.Errors != 0 {
		t.Errorf("routed batch cross-check %+v, want 6 clean checks (2 cells × 3 RHS)", recB.Batch)
	}
	if recB.Direct == nil || recB.Direct.Checks != 2 || recB.Direct.Mismatches != 0 || recB.Direct.Errors != 0 {
		t.Errorf("routed batch direct check %+v, want 2 clean checks", recB.Direct)
	}

	// Streams pass through the router: every terminal hash must equal a
	// buffered re-issue of its cell.
	recS := load(t, "-addr", routerURL, "-router", "-stream",
		"-n", "8", "-c", "2", "-matrices", "poisson2d:100,tridiag:120",
		"-solvers", "cg", "-schemes", "abft-correction,unprotected", "-check")
	if st := recS.Stream; st == nil || st.Requests != 8 || st.Events < st.Requests ||
		st.Checks != 4 || st.Mismatches != 0 || st.Errors != 0 {
		t.Errorf("stream cross-check %+v, want 8 streamed requests with a frame each and 4 clean checks", recS.Stream)
	}

	// Phase 2: kill a shard, replay the recorded campaign through the
	// router. Its keys fail over; every recorded hash must reproduce.
	killFirst()
	rec2 := load(t, "-addr", routerURL, "-router",
		"-shards", strings.Join(shardURLs[1:], ","),
		"-replay", campaign, "-check")
	if rec2.Replay == nil || rec2.Replay.RecordedCells == 0 || rec2.Replay.Mismatches != 0 {
		t.Fatalf("phase 2 replay %+v, want recorded cells with 0 mismatches", rec2.Replay)
	}
	if rec2.Requests != 24 || rec2.OK != 24 {
		t.Errorf("phase 2 replay shape: ok=%d/%d, want the campaign's 24", rec2.OK, rec2.Requests)
	}
	if rec2.Direct == nil || rec2.Direct.Mismatches != 0 || rec2.Direct.Errors != 0 {
		t.Errorf("phase 2 direct check %+v, want clean", rec2.Direct)
	}
	// The killed shard owns keys of the campaign, so the replay must have
	// failed over; without a failover the gate above proves nothing.
	if rec2.Router.Failovers <= recS.Router.Failovers {
		t.Errorf("failovers %d → %d across the kill: the killed shard served no key of the replay",
			recS.Router.Failovers, rec2.Router.Failovers)
	}
	// The recorded hashes equal phase 1's observed hashes by
	// construction, so zero replay mismatches IS the cross-failover
	// determinism gate; double-check one cell explicitly.
	for i, cl := range rec2.Mix {
		if cl.RecordedHash == "" || cl.ResidualHash != cl.RecordedHash {
			t.Errorf("cell %d (%s): replayed hash %q vs recorded %q", i, cl.Name, cl.ResidualHash, cl.RecordedHash)
		}
	}

	// Phase 3: the campaign replayed one request at a time through a
	// router over fresh shards that resets, truncates, corrupts and
	// refuses their answers. -chaos -check requires the router's chaos
	// section and every injected bit flip caught; every hash reproduces.
	plan := chaos.Plan{Schema: 1, Seed: 1234, PReset: 0.05, PTruncate: 0.05, PBitFlip: 0.15, P503: 0.05}
	inj := chaos.New(plan, nil)
	chaosURL, _, _ := routerTarget(t, router.Config{
		Transport: inj, ChaosStats: inj.Stats, RetryBudget: 8, RetryBackoff: time.Millisecond})
	rec3 := load(t, "-addr", chaosURL, "-router", "-chaos", "-replay", campaign, "-c", "1", "-check")
	if rec3.Replay == nil || rec3.Replay.RecordedCells == 0 || rec3.Replay.Mismatches != 0 {
		t.Errorf("chaos replay %+v, want recorded cells with 0 mismatches", rec3.Replay)
	}
	ch, in := rec3.Router.Chaos, rec3.Router.Integrity
	if ch == nil || ch.Resets == 0 || ch.Truncations == 0 || ch.BitFlips == 0 || ch.Storms503 == 0 {
		t.Fatalf("chaos counters %+v: the plan injected no fault of some class", ch)
	}
	if in.CorruptResponses < ch.BitFlips || in.BudgetExhausted != 0 {
		t.Errorf("integrity %+v after %d bit flips: want every flip caught and the budget never exhausted", in, ch.BitFlips)
	}
}

// TestRecordReplayRoundTrip pins the campaign file semantics against a
// plain (router-less) service: a recorded mix replays to the same
// per-cell hash set and reuses the recorded run shape.
func TestRecordReplayRoundTrip(t *testing.T) {
	url := loadTarget(t)
	campaign := filepath.Join(t.TempDir(), "campaign.json")

	var stdout bytes.Buffer
	if err := run([]string{
		"-addr", url, "-n", "12", "-c", "3",
		"-matrices", "poisson2d:64,tridiag:80", "-solvers", "cg,bicgstab", "-schemes", "abft-correction",
		"-record", campaign, "-json", "-check", "-q",
	}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	var recorded Record
	if err := json.Unmarshal(stdout.Bytes(), &recorded); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(campaign)
	if err != nil {
		t.Fatal(err)
	}
	var camp Campaign
	if err := json.Unmarshal(raw, &camp); err != nil {
		t.Fatal(err)
	}
	if camp.Schema != Schema || camp.Requests != 12 || camp.Concurrency != 3 || len(camp.Cells) != 4 {
		t.Fatalf("campaign %+v: want schema %d, 12 requests, 3 workers, 4 cells", camp, Schema)
	}
	for _, cc := range camp.Cells {
		if cc.ResidualHash == "" {
			t.Errorf("cell %s recorded no hash", cc.Name)
		}
	}

	stdout.Reset()
	if err := run([]string{"-addr", url, "-replay", campaign, "-json", "-check", "-q"}, &stdout, io.Discard); err != nil {
		t.Fatalf("replay: %v", err)
	}
	var replayed Record
	if err := json.Unmarshal(stdout.Bytes(), &replayed); err != nil {
		t.Fatal(err)
	}
	if replayed.Requests != 12 || replayed.Replay == nil || replayed.Replay.RecordedCells != 4 || replayed.Replay.Mismatches != 0 {
		t.Fatalf("replay record %+v (replay %+v), want 12 requests, 4 recorded cells, 0 mismatches",
			replayed, replayed.Replay)
	}
	for i := range recorded.Mix {
		if recorded.Mix[i].ResidualHash != replayed.Mix[i].ResidualHash {
			t.Errorf("cell %s: replay hash %s != recorded run hash %s",
				recorded.Mix[i].Name, replayed.Mix[i].ResidualHash, recorded.Mix[i].ResidualHash)
		}
	}
}

// TestReplayInlineCampaign replays a campaign whose cells carry their
// matrix inline, a single and a batch: every request must be answered (a
// 400 fails -check), and the campaign it records back holds the same
// operands.
func TestReplayInlineCampaign(t *testing.T) {
	url := loadTarget(t)
	dir := t.TempDir()
	const inline = `{"rows":3,"cols":3,"rowidx":[0,2,5,7],"colid":[0,1,0,1,2,1,2],"val":[4,-1,-1,4,-1,-1,4]}`
	campaign := filepath.Join(dir, "inline.json")
	if err := os.WriteFile(campaign, []byte(`{"schema":1,"requests":4,"concurrency":2,"cells":[`+
		`{"name":"single","request":{"inline":`+inline+`,"seed":3}},`+
		`{"name":"batch","request":{"inline":`+inline+`},"rhs":[{"seed":1},{"seed":2}]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	recorded := filepath.Join(dir, "recorded.json")
	var stdout bytes.Buffer
	if err := run([]string{"-addr", url, "-replay", campaign, "-record", recorded, "-json", "-check", "-q"}, &stdout, io.Discard); err != nil {
		t.Fatalf("replay: %v", err)
	}
	var rec Record
	if err := json.Unmarshal(stdout.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Requests != 4 || rec.OK != 4 {
		t.Errorf("replay answered %d of %d requests", rec.OK, rec.Requests)
	}
	sent, err := loadCampaign(campaign)
	if err != nil {
		t.Fatal(err)
	}
	back, err := loadCampaign(recorded)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sent.Cells {
		if !reflect.DeepEqual(back.Cells[i].Request.Inline, sent.Cells[i].Request.Inline) {
			t.Errorf("cell %s recorded operand %+v, sent %+v", sent.Cells[i].Name, back.Cells[i].Request.Inline, sent.Cells[i].Request.Inline)
		}
	}
}

// TestReplayGoldenFile replays the committed campaign: the per-cell
// residual hashes pinned in testdata must reproduce on a live service.
// Regenerate deliberately with: go test ./cmd/resload -run Golden -update
func TestReplayGoldenFile(t *testing.T) {
	golden := filepath.Join("testdata", "replay_golden.json")
	url := loadTarget(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{
			"-addr", url, "-n", "12", "-c", "2",
			"-matrices", "poisson2d:100,tridiag:120", "-solvers", "cg,pcg", "-schemes", "abft-correction,unprotected",
			"-record", golden, "-check", "-q",
		}, io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		// Fold one batched cell into the golden campaign so the replay gate
		// also pins the batch endpoint's per-RHS hashes.
		batched := filepath.Join(t.TempDir(), "batched.json")
		if err := run([]string{
			"-addr", url, "-n", "2", "-c", "1",
			"-matrices", "poisson2d:100", "-solvers", "cg", "-schemes", "abft-correction",
			"-batch", "3", "-record", batched, "-check", "-q",
		}, io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		base, err := loadCampaign(golden)
		if err != nil {
			t.Fatal(err)
		}
		extra, err := loadCampaign(batched)
		if err != nil {
			t.Fatal(err)
		}
		base.Cells = append(base.Cells, extra.Cells...)
		raw, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout bytes.Buffer
	if err := run([]string{"-addr", url, "-replay", golden, "-json", "-check", "-q"}, &stdout, io.Discard); err != nil {
		t.Fatalf("golden replay diverged (intentional? regenerate with -update): %v", err)
	}
	var rec Record
	if err := json.Unmarshal(stdout.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Replay.RecordedCells == 0 || rec.Replay.Mismatches != 0 {
		t.Errorf("golden replay %+v, want recorded cells with 0 mismatches", rec.Replay)
	}
}

func TestLoadCampaignRejectsBad(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := map[string]string{
		"not json":    "{",
		"bad schema":  `{"schema":99,"cells":[{"name":"x","request":{"matrix":{"gen":"poisson2d","n":16}}}]}`,
		"no cells":    `{"schema":1,"cells":[]}`,
		"bad request": `{"schema":1,"cells":[{"name":"x","request":{"solver":"warp","matrix":{"gen":"poisson2d","n":16}}}]}`,
	}
	for name, body := range cases {
		if _, err := loadCampaign(write("bad.json", body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := loadCampaign(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestLoadCampaignNamesTruncationOffset is the crash-mid-write contract:
// replaying a truncated or partially-written record file must fail with
// a clean error naming the byte offset — never a panic, never a
// half-loaded campaign.
func TestLoadCampaignNamesTruncationOffset(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "replay_golden.json"))
	if err != nil {
		t.Skip("no golden campaign recorded yet")
	}
	dir := t.TempDir()
	write := func(name string, body []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	for _, frac := range []float64{0.25, 0.5, 0.9} {
		cut := int(frac * float64(len(golden)))
		p := write("truncated.json", golden[:cut])
		_, err := loadCampaign(p)
		if err == nil {
			t.Fatalf("%d%% truncation accepted", int(frac*100))
		}
		msg := err.Error()
		if !strings.Contains(msg, "byte offset") || !strings.Contains(msg, "truncated") {
			t.Errorf("%d%% truncation error %q: want the byte offset and a truncation hint", int(frac*100), msg)
		}
	}

	// A zero-length file (open() happened, write() never did) gets its own
	// diagnosis instead of a bare JSON EOF.
	if _, err := loadCampaign(write("empty.json", nil)); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("empty file error = %v, want an empty-file diagnosis", err)
	}

	// Type-level corruption (valid JSON, wrong shape) names the field and
	// offset rather than failing opaquely.
	bad := []byte(`{"schema":1,"cells":[{"name":"x","request":{"matrix":{"gen":"poisson2d","n":"sixteen"}}}]}`)
	if _, err := loadCampaign(write("badtype.json", bad)); err == nil || !strings.Contains(err.Error(), "byte offset") {
		t.Errorf("type corruption error = %v, want the byte offset named", err)
	}
}
