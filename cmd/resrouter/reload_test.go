package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/router"
)

func writeTopology(t *testing.T, path string, names ...string) {
	t.Helper()
	replaceFile(t, path, topologyJSON(t, names...))
}

func topologyJSON(t *testing.T, names ...string) []byte {
	t.Helper()
	topo := router.Topology{Schema: router.TopologySchemaVersion}
	for _, n := range names {
		topo.Shards = append(topo.Shards, router.Shard{Name: n})
	}
	blob, err := json.Marshal(topo)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// replaceFile moves content into place at path with a modification time
// later than the one it replaces, so a watcher sees exactly one change and
// never half a file — two writes a few milliseconds apart can otherwise
// carry one timestamp.
func replaceFile(t *testing.T, path string, content []byte) {
	t.Helper()
	next := path + ".next"
	if err := os.WriteFile(next, content, 0o644); err != nil {
		t.Fatal(err)
	}
	mtime := time.Now()
	if old, err := os.Stat(path); err == nil && !mtime.After(old.ModTime()) {
		mtime = old.ModTime().Add(time.Millisecond)
	}
	if err := os.Chtimes(next, mtime, mtime); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(next, path); err != nil {
		t.Fatal(err)
	}
}

// routerz fetches the router section of /v1/statusz.
func routerz(t *testing.T, base string) api.RouterzResponse {
	t.Helper()
	sz, err := api.NewClient(base).Statusz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sz.Router == nil {
		t.Fatalf("statusz tier %q carries no router section", sz.Tier)
	}
	return *sz.Router
}

func routerzShards(t *testing.T, base string) []api.ShardStatus {
	t.Helper()
	return routerz(t, base).Shards
}

// waitFor polls cond until it holds; the test fails, naming what it waited
// for, if that takes longer than 20 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func shardSet(t *testing.T, base string) string {
	t.Helper()
	var names []string
	for _, s := range routerzShards(t, base) {
		names = append(names, s.Name)
	}
	return strings.Join(names, ",")
}

func waitForShardSet(t *testing.T, base string, want ...string) {
	t.Helper()
	set := strings.Join(want, ",")
	waitFor(t, "shard set "+set, func() bool { return shardSet(t, base) == set })
}

// logLines is the router's log stream, kept for a test to wait on: a reload
// says in it that it was applied or rejected, and why it ran.
type logLines struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logLines) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logLines) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// count returns how many lines hold every one of the fragments.
func (l *logLines) count(fragments ...string) int {
	n := 0
lines:
	for _, line := range strings.Split(l.String(), "\n") {
		for _, f := range fragments {
			if !strings.Contains(line, f) {
				continue lines
			}
		}
		n++
	}
	return n
}

// TestTopologyMtimeReload boots with a fast mtime watch and grows, then
// shrinks, the shard set purely by rewriting the topology file.
func TestTopologyMtimeReload(t *testing.T) {
	topo := filepath.Join(t.TempDir(), "topo.json")
	writeTopology(t, topo, "a", "b")
	base, cancel, _ := boot(t, []string{
		"-addr", "127.0.0.1:0", "-topology", topo, "-topology-watch", "25ms", "-q"})
	defer cancel()

	waitForShardSet(t, base, "a", "b")
	writeTopology(t, topo, "a", "b", "c")
	waitForShardSet(t, base, "a", "b", "c")

	// The grown ring serves — including keys that now live on c.
	for n := 16; n <= 48; n += 4 {
		resp, raw := postJSON(t, base+"/v1/solve", `{"matrix":{"gen":"tridiag","n":`+jsonInt(n)+`},"seed":5}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("n=%d after grow: status %d: %s", n, resp.StatusCode, raw)
		}
	}

	writeTopology(t, topo, "a", "b")
	waitForShardSet(t, base, "a", "b")
}

// TestTopologyWatchComparesContent pins what the watch fires on — the
// file's bytes, not its timestamp. A rewrite that keeps the mtime (two
// writes inside one timestamp granule look like that) is still applied —
// here one that drains a shard — and a rewrite of the same bytes with a new
// mtime — a touch, a config push that changed nothing — is not a reload.
func TestTopologyWatchComparesContent(t *testing.T) {
	const tick = 25 * time.Millisecond
	topo := filepath.Join(t.TempDir(), "topo.json")
	writeTopology(t, topo, "a", "b")
	log := &logLines{}
	base, cancel, _ := bootLogging(t, log, []string{
		"-addr", "127.0.0.1:0", "-topology", topo, "-topology-watch", tick.String()})
	defer cancel()
	waitForShardSet(t, base, "a", "b")

	// New content, old mtime — moved into place already carrying it.
	before, err := os.Stat(topo)
	if err != nil {
		t.Fatal(err)
	}
	drainB, err := json.Marshal(router.Topology{Schema: router.TopologySchemaVersion,
		Shards: []router.Shard{{Name: "a"}, {Name: "b", Drained: true}, {Name: "c"}}})
	if err != nil {
		t.Fatal(err)
	}
	next := topo + ".next"
	if err := os.WriteFile(next, drainB, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(next, before.ModTime(), before.ModTime()); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(next, topo); err != nil {
		t.Fatal(err)
	}
	waitForShardSet(t, base, "a", "b", "c")

	// Old content, new mtime.
	reloads := log.count("topology reload")
	same, err := os.ReadFile(topo)
	if err != nil {
		t.Fatal(err)
	}
	replaceFile(t, topo, same)
	time.Sleep(10 * tick) // nothing to wait for: the claim is that nothing happens
	if n := log.count("topology reload"); n != reloads {
		t.Errorf("%d reloads after a rewrite of identical bytes, want none:\n%s", n-reloads, log)
	}
	for _, s := range routerzShards(t, base) {
		if s.Name == "b" && s.State != api.ShardDraining {
			t.Errorf("shard b is %q after a rewrite of identical bytes, want it drained as the file says", s.State)
		}
	}
}

// TestSIGHUPReload disables the mtime watch and reloads by signal only.
func TestSIGHUPReload(t *testing.T) {
	topo := filepath.Join(t.TempDir(), "topo.json")
	writeTopology(t, topo, "a", "b")
	log := &logLines{}
	base, cancel, _ := bootLogging(t, log, []string{
		"-addr", "127.0.0.1:0", "-topology", topo, "-topology-watch", "0"})
	defer cancel()
	waitForShardSet(t, base, "a", "b")

	// Rewriting the file alone must do nothing without the watch: the one
	// reload of this run is the signal's.
	writeTopology(t, topo, "a", "b", "c")
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the SIGHUP reload", func() bool { return log.count("topology reload applied", "reason=SIGHUP") == 1 })
	if got := shardSet(t, base); got != "a,b,c" {
		t.Errorf("shard set %s after the SIGHUP reload, want a,b,c", got)
	}
	if n := log.count("topology reload"); n != 1 {
		t.Errorf("%d reloads logged, want the SIGHUP one alone:\n%s", n, log)
	}
}

// TestMalformedRewriteKeepsPreviousRing rewrites the watched topology to
// garbage: the reload is rejected, the old ring keeps serving, and the
// watcher stays alive to apply the next good rewrite.
func TestMalformedRewriteKeepsPreviousRing(t *testing.T) {
	topo := filepath.Join(t.TempDir(), "topo.json")
	writeTopology(t, topo, "a", "b")
	log := &logLines{}
	base, cancel, _ := bootLogging(t, log, []string{
		"-addr", "127.0.0.1:0", "-topology", topo, "-topology-watch", "25ms", "-q"})
	defer cancel()
	waitForShardSet(t, base, "a", "b")

	for i, garbage := range []string{
		"{not json",
		`{"schema":99,"shards":[{"name":"a"}]}`,
		`{"schema":1,"shards":[{"name":"a"},{"name":"a"}]}`,
	} {
		// One rewrite, one rejected reload.
		replaceFile(t, topo, []byte(garbage))
		waitFor(t, "the watcher to reject "+garbage, func() bool {
			return log.count("topology reload rejected", "reason=mtime") == i+1
		})
		if got := routerzShards(t, base); len(got) != 2 {
			t.Fatalf("malformed rewrite %q changed the shard set to %d", garbage, len(got))
		}
		resp, raw := postJSON(t, base+"/v1/solve", `{"matrix":{"gen":"poisson2d","n":36},"seed":5}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve after malformed rewrite: status %d: %s", resp.StatusCode, raw)
		}
	}

	// The watcher survived all of it: a good rewrite still applies.
	writeTopology(t, topo, "a", "b", "c")
	waitForShardSet(t, base, "a", "b", "c")
}

// findShardPID scans /proc for a supervised child of bin serving the
// named shard and returns its pid (0 if none).
func findShardPID(t *testing.T, bin, shard string) int {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		raw, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if err != nil {
			continue
		}
		argv := strings.Split(string(raw), "\x00")
		if len(argv) == 0 || argv[0] != bin {
			continue
		}
		for i, a := range argv {
			if a == "-shard" && i+1 < len(argv) && argv[i+1] == shard {
				return pid
			}
		}
	}
	return 0
}

// TestSuperviseRestartsKilledShard is the watchdog end-to-end: real
// resilientd children under -shard-bin, one killed with SIGKILL, a fresh
// process comes back on the same port, is re-admitted by the health
// probes, and serves the same keys with bit-identical residual hashes. A
// second router then kills a child through its chaos plan (-chaos-plan with
// p_kill), the path that runs procRuntime.KillByAddr.
func TestSuperviseRestartsKilledShard(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real child processes")
	}
	bin := filepath.Join(t.TempDir(), "resilientd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/resilientd").CombinedOutput(); err != nil {
		t.Fatalf("building resilientd: %v\n%s", err, out)
	}

	base, cancel, done := boot(t, []string{
		"-addr", "127.0.0.1:0", "-spawn", "2", "-shard-bin", bin,
		"-restart-backoff", "50ms", "-restart-max", "250ms",
		"-probe-interval", "100ms", "-q"})
	defer cancel()

	// Baseline: owners and residual hashes per matrix.
	type record struct{ owner, hash string }
	baseline := map[int]record{}
	solve := func(n int) (int, record) {
		resp, raw := postJSON(t, base+"/v1/solve", `{"matrix":{"gen":"tridiag","n":`+jsonInt(n)+`},"seed":5}`)
		var sr api.SolveResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(raw, &sr); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, record{owner: resp.Header.Get("X-Resilient-Shard"), hash: sr.Result.ResidualHash}
	}
	sizes := []int{16, 20, 24, 28, 32, 36, 40, 44}
	for _, n := range sizes {
		code, rec := solve(n)
		if code != http.StatusOK {
			t.Fatalf("baseline n=%d: status %d", n, code)
		}
		baseline[n] = rec
	}

	victim := baseline[sizes[0]].owner
	pid := findShardPID(t, bin, victim)
	if pid == 0 {
		t.Fatalf("no child process found for shard %s", victim)
	}
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}

	// The supervisor must bring up a replacement process (new pid, same
	// shard name, same port) and the probes re-admit it.
	waitFor(t, "the killed shard to restart", func() bool {
		np := findShardPID(t, bin, victim)
		return np != 0 && np != pid
	})
	waitFor(t, "restarted shard "+victim+" to take its keys back", func() bool {
		code, rec := solve(sizes[0])
		return code == http.StatusOK && rec.owner == victim
	})

	// Determinism across the whole episode: every key answers with its
	// baseline hash, and the victim's keys are served by the victim again.
	for _, n := range sizes {
		code, rec := solve(n)
		if code != http.StatusOK {
			t.Errorf("n=%d after restart: status %d", n, code)
			continue
		}
		if rec.hash != baseline[n].hash {
			t.Errorf("n=%d: hash %s after restart, want %s", n, rec.hash, baseline[n].hash)
		}
		if rec.owner != baseline[n].owner {
			t.Errorf("n=%d: owner %s after restart, want %s", n, rec.owner, baseline[n].owner)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not drain after cancel")
	}
	// Drain stops the supervised children for good.
	if p := findShardPID(t, bin, victim); p != 0 {
		t.Errorf("shard %s (pid %d) still running after drain", victim, p)
	}

	// The chaos injector's kill: under a plan with p_kill, the attempt that
	// draws it SIGKILLs the supervised child serving it mid-request. The
	// router retries elsewhere, the watchdog restarts the child, and every
	// answer keeps its fault-free hash. solve posts to base, from here on
	// this second router.
	plan := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(plan, []byte(`{"schema":1,"seed":7,"p_kill":0.1,"max_kills":1,"p_truncate":0.2,"p_reset":0.05}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base, cancel, done = boot(t, []string{
		"-addr", "127.0.0.1:0", "-spawn", "2", "-shard-bin", bin,
		"-restart-backoff", "50ms", "-restart-max", "250ms", "-probe-interval", "100ms",
		"-chaos-plan", plan, "-retry-budget", "8", "-retry-backoff", "1ms", "-q"})
	// Drain even when an assertion below fails, so no child outlives the test.
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("run returned %v after drain", err)
		}
	})
	for range 3 {
		for _, n := range sizes {
			code, rec := solve(n)
			if code != http.StatusOK {
				t.Fatalf("n=%d under the kill plan: status %d", n, code)
			}
			if rec.hash != baseline[n].hash {
				t.Errorf("n=%d under the kill plan: hash %s, want %s", n, rec.hash, baseline[n].hash)
			}
		}
	}
	if ch := routerz(t, base).Chaos; ch == nil || ch.Kills < 1 || ch.Truncations == 0 {
		t.Errorf("chaos counters %+v, want a kill and truncations", ch)
	}
	waitFor(t, "the watchdog to restart the child the plan killed", func() bool {
		return supervisorRestarts(t, base) >= 1
	})
}

// supervisorRestarts reads the router's count of supervised-child
// relaunches off its /metrics page.
func supervisorRestarts(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	const series = "resilient_router_supervisor_restarts_total "
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, series); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s%q: %v", series, v, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %s series", series)
	return 0
}
