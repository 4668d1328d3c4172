package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

// mockRouter builds a router whose shards are all MockRuntime-managed
// mock processes, plus an HTTP front end — the contract-test rig for the
// admin surface, no real solver processes involved.
func mockRouter(t *testing.T, cfg Config, names ...string) (*Router, *MockRuntime, *httptest.Server) {
	t.Helper()
	rt := NewMockRuntime()
	cfg.Runtime = rt
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour // probes by hand in tests
	}
	shards := make([]Shard, len(names))
	for i, n := range names {
		shards[i] = Shard{Name: n}
	}
	r, err := New(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		ts.Close()
		r.Shutdown()
		rt.StopAll()
	})
	return r, rt, ts
}

func adminClient(base string) *api.Client {
	return api.NewClient(base, api.WithAdminToken("sekrit"), api.WithTimeout(10*time.Second))
}

// asAPIError asserts err is the typed envelope and returns it.
func asAPIError(t *testing.T, err error) *api.Error {
	t.Helper()
	var e *api.Error
	if !errors.As(err, &e) {
		t.Fatalf("error %v (%T), want *api.Error", err, err)
	}
	return e
}

// TestAdminAuth pins the auth contract: a router without a token answers
// 403 on the whole surface, a wrong (or missing) bearer token answers
// 401, and the right token passes — all in the schema-stamped envelope.
func TestAdminAuth(t *testing.T) {
	_, _, tsOff := mockRouter(t, Config{}, "s0")
	e := asAPIError(t, func() error {
		_, err := api.NewClient(tsOff.URL).AdminTopology(context.Background())
		return err
	}())
	if e.Code != api.CodeForbidden || e.Schema != api.SchemaVersion {
		t.Errorf("disabled admin: %+v, want code %q schema %d", e, api.CodeForbidden, api.SchemaVersion)
	}

	_, _, ts := mockRouter(t, Config{AdminToken: "sekrit"}, "s0")
	for _, cl := range []*api.Client{
		api.NewClient(ts.URL),                                // no token
		api.NewClient(ts.URL, api.WithAdminToken("wrong")),   // bad token
		api.NewClient(ts.URL, api.WithAdminToken("sekrit2")), // near miss
	} {
		e := asAPIError(t, func() error { _, err := cl.AdminTopology(context.Background()); return err }())
		if e.Code != api.CodeUnauthorized {
			t.Errorf("bad token: code %q, want %q", e.Code, api.CodeUnauthorized)
		}
	}

	topo, err := adminClient(ts.URL).AdminTopology(context.Background())
	if err != nil {
		t.Fatalf("good token: %v", err)
	}
	if topo.Schema != api.SchemaVersion || len(topo.Shards) != 1 || topo.Shards[0].State != api.ShardActive {
		t.Errorf("topology %+v, want schema %d, one active shard", topo, api.SchemaVersion)
	}
}

// TestAdminDrainAddRemoveLifecycle walks a shard through the whole admin
// state machine: active → drained (off the ring, keys move, probes keep
// watching) → re-added (back on the ring, keys return) → drained →
// removed (process stopped). Throughout, the surviving shards keep their
// keys — drain moves only the drained shard's keys.
func TestAdminDrainAddRemoveLifecycle(t *testing.T) {
	r, rt, ts := mockRouter(t, Config{AdminToken: "sekrit"}, "s0", "s1", "s2")
	cl := adminClient(ts.URL)
	ctx := context.Background()

	// Route a spread of keys and remember each placement.
	owner := func(n int) string {
		code, shard, _ := postRouted(t, ts.URL, solveBody(t, "tridiag", n))
		if code != http.StatusOK {
			t.Fatalf("n=%d: status %d", n, code)
		}
		return shard
	}
	sizes := []int{16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60}
	before := map[int]string{}
	for _, n := range sizes {
		before[n] = owner(n)
	}
	keysBefore := r.routerz().Keys.PerShard

	// Drain s1: response says draining, topology agrees, statusz shows
	// it off the ring (vnodes 0) but still visible.
	sh, err := cl.AdminDrainShard(ctx, "s1")
	if err != nil {
		t.Fatal(err)
	}
	if sh.Shard.State != api.ShardDraining {
		t.Errorf("drain answered state %q, want %q", sh.Shard.State, api.ShardDraining)
	}
	sz, err := cl.Statusz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sz.Router.Shards {
		if s.Name == "s1" && (s.State != api.ShardDraining || s.VNodes != 0) {
			t.Errorf("routerz s1: state %q vnodes %d, want draining/0", s.State, s.VNodes)
		}
		if s.Name != "s1" && s.VNodes == 0 {
			t.Errorf("routerz %s: lost its vnodes on someone else's drain", s.Name)
		}
	}
	// The drain forgets s1's key attributions at once; replays attribute
	// them to the new owners.
	if n := sz.Router.Keys.PerShard["s1"]; n != 0 {
		t.Errorf("drained shard s1 still attributed %d keys", n)
	}

	// Idempotent: draining a drained shard re-answers its state.
	if sh, err = cl.AdminDrainShard(ctx, "s1"); err != nil || sh.Shard.State != api.ShardDraining {
		t.Errorf("second drain: %+v, %v", sh, err)
	}

	// Only s1's keys move; every key that lived on s0 or s2 stays put,
	// and nothing routes to s1 any more.
	served := rt.Get("s1").Solves()
	moved := 0
	for _, n := range sizes {
		now := owner(n)
		if now == "s1" {
			t.Errorf("n=%d still routed to the drained shard", n)
		}
		if before[n] != "s1" && now != before[n] {
			t.Errorf("n=%d moved %s→%s though neither was drained", n, before[n], now)
		}
		if before[n] == "s1" {
			moved++
		}
	}
	if moved == 0 {
		t.Skip("hash spread put no test key on s1; widen sizes")
	}
	if got := rt.Get("s1").Solves(); got != served {
		t.Errorf("drained shard served %d new solves", got-served)
	}
	keysAfter := r.routerz().Keys.PerShard
	for _, s := range []string{"s0", "s2"} {
		if keysAfter[s] < keysBefore[s] {
			t.Errorf("shard %s attributed %d keys before s1's drain, %d after", s, keysBefore[s], keysAfter[s])
		}
	}

	// Re-add through the same name: latch clears, the synchronous probe
	// re-admits, and every key returns to its original owner.
	add, err := cl.AdminAddShard(ctx, "s1", "")
	if err != nil {
		t.Fatal(err)
	}
	if add.Shard.State != api.ShardActive || !add.Shard.Healthy {
		t.Errorf("re-add answered %+v, want active+healthy", add.Shard)
	}
	for _, n := range sizes {
		if now := owner(n); now != before[n] {
			t.Errorf("n=%d: owner %s after re-add, want %s", n, now, before[n])
		}
	}

	// Adding an active shard conflicts.
	_, err = cl.AdminAddShard(ctx, "s1", "")
	if e := asAPIError(t, err); e.Code != api.CodeConflict {
		t.Errorf("add of active shard: code %q, want %q", e.Code, api.CodeConflict)
	}
	// Unknown names 404 on drain and remove.
	_, err = cl.AdminDrainShard(ctx, "nope")
	if e := asAPIError(t, err); e.Code != api.CodeNotFound {
		t.Errorf("drain unknown: code %q, want %q", e.Code, api.CodeNotFound)
	}
	_, err = cl.AdminRemoveShard(ctx, "nope")
	if e := asAPIError(t, err); e.Code != api.CodeNotFound {
		t.Errorf("remove unknown: code %q, want %q", e.Code, api.CodeNotFound)
	}

	// The last-routable guard: drain down to one shard, then refuse.
	if _, err := cl.AdminDrainShard(ctx, "s0"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AdminDrainShard(ctx, "s2"); err != nil {
		t.Fatal(err)
	}
	_, err = cl.AdminDrainShard(ctx, "s1")
	if e := asAPIError(t, err); e.Code != api.CodeConflict {
		t.Errorf("drain of last shard: code %q, want %q", e.Code, api.CodeConflict)
	}
	if err := func() error { _, err := cl.AdminRemoveShard(ctx, "s1"); return err }(); err == nil {
		t.Error("remove of last routable shard succeeded")
	}

	// Removing a drained shard stops its managed process.
	if _, err := cl.AdminRemoveShard(ctx, "s0"); err != nil {
		t.Fatal(err)
	}
	if rt.Get("s0") != nil {
		t.Error("removed shard's process still running")
	}
	topo, err := cl.AdminTopology(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Shards) != 2 {
		t.Errorf("topology has %d shards after remove, want 2", len(topo.Shards))
	}
}

// TestAdminAddMaterializesViaRuntime adds a brand-new shard with no addr:
// the router must ask its runtime for a process and start routing to it.
func TestAdminAddMaterializesViaRuntime(t *testing.T) {
	r, rt, ts := mockRouter(t, Config{AdminToken: "sekrit"}, "s0", "s1")
	cl := adminClient(ts.URL)

	add, err := cl.AdminAddShard(context.Background(), "s2", "")
	if err != nil {
		t.Fatal(err)
	}
	if add.Shard.State != api.ShardActive || add.Shard.Addr == "" {
		t.Errorf("added shard %+v, want active with an addr", add.Shard)
	}
	if rt.Get("s2") == nil {
		t.Fatal("runtime did not materialise the shard")
	}
	// Route a spread of keys: the new shard must end up serving some.
	for n := 16; n <= 120; n += 4 {
		code, _, _ := postRouted(t, ts.URL, solveBody(t, "tridiag", n))
		if code != http.StatusOK {
			t.Fatalf("n=%d: status %d", n, code)
		}
	}
	if rt.Get("s2").Solves() == 0 {
		t.Error("new shard never served a key")
	}
	if n := r.routerz().Keys.PerShard["s2"]; n == 0 {
		t.Error("statusz attributes no key to the new shard")
	}
}

// TestAdminUnknownEndpoint pins the catch-all: anything else under
// /v1/admin/ is a schema-stamped 404 envelope, still behind auth.
func TestAdminUnknownEndpoint(t *testing.T) {
	_, _, ts := mockRouter(t, Config{AdminToken: "sekrit"}, "s0")

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/admin/bogus", nil)
	req.Header.Set("Authorization", "Bearer sekrit")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e api.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound || e.Code != api.CodeNotFound || e.Schema != api.SchemaVersion {
		t.Errorf("unknown admin path: status %d envelope %+v", resp.StatusCode, e)
	}

	// Unauthenticated, the same path leaks nothing but 401.
	resp2, err := http.Get(ts.URL + "/v1/admin/bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated unknown admin path: status %d, want 401", resp2.StatusCode)
	}
}

// TestAdminAddRefusesInvalidShard: an add the topology file would refuse
// — an addr that is not an http(s) base URL, a weight outside (0, 16] — is
// the client's 400 through the real handler, and the shard set is as it
// was: not a joined shard, not a 500.
func TestAdminAddRefusesInvalidShard(t *testing.T) {
	r, _, ts := mockRouter(t, Config{AdminToken: "sekrit"}, "s0")
	before := ringOwners(r, 64)
	for _, body := range []string{
		`{"name":"bad","addr":"not a url at all"}`,
		`{"name":"ftp","addr":"ftp://x/y"}`,
		`{"name":"nohost","addr":"http://"}`,
		`{"name":"neg","vnode_weight":-1}`,
		`{"name":"big","vnode_weight":16.5}`,
		`{"addr":"http://127.0.0.1:9"}`,
	} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/admin/shards", strings.NewReader(body))
		req.Header.Set("Authorization", "Bearer sekrit")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e api.Error
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeBadRequest {
			t.Errorf("add %s: status %d envelope %+v (%v), want 400 %s", body, resp.StatusCode, e, err, api.CodeBadRequest)
		}
	}
	if topo := r.CurrentTopology(); len(topo.Shards) != 1 || topo.Shards[0].Name != "s0" {
		t.Errorf("refused adds changed the shard set: %+v", topo.Shards)
	}
	if got := ringOwners(r, 64); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Error("refused adds disturbed the ring")
	}
}

// TestAdminAddJoinProbeDecides: the synchronous join probe is the shard's
// first health verdict. One failure is enough — a shard that does not
// answer joins ejected, so its keys go to their healthy successors at once
// instead of paying failover retries for failThreshold probe rounds — and
// the first good probe re-admits it like any other ejection. A live shard
// joins active.
func TestAdminAddJoinProbeDecides(t *testing.T) {
	r, _, ts := mockRouter(t, Config{AdminToken: "sekrit"}, "s0")
	cl := adminClient(ts.URL)
	ctx := context.Background()

	late := newFakeShard(t, "late")
	late.setHealthy(false)
	add, err := cl.AdminAddShard(ctx, "late", late.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if add.Shard.State != api.ShardEjected || add.Shard.Healthy {
		t.Errorf("shard failing its join probe answered %+v, want ejected and unhealthy", add.Shard)
	}
	late.setHealthy(true)
	r.probeAll()
	for _, sh := range r.CurrentTopology().Shards {
		if sh.State != api.ShardActive || !sh.Healthy {
			t.Errorf("shard %s is %q after a good probe round, want active", sh.Name, sh.State)
		}
	}

	dead, err := cl.AdminAddShard(ctx, "dead", "http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	if dead.Shard.State != api.ShardEjected || dead.Shard.Healthy {
		t.Errorf("dead addr joined as %+v, want ejected and unhealthy", dead.Shard)
	}

	live := newFakeShard(t, "live")
	add, err = cl.AdminAddShard(ctx, "live", live.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if add.Shard.State != api.ShardActive || !add.Shard.Healthy {
		t.Errorf("live shard joined as %+v, want active and healthy", add.Shard)
	}
}
