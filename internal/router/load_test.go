package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/harness"
)

// modelBound is the bounded-load ceiling written out apart from spills, in
// integers: ⌈1.25·(T + w)/N⌉ = ⌈5·(T + w) / 4N⌉.
func modelBound(total, w int64, n int) int64 {
	return (5*(total+w) + 4*int64(n) - 1) / (4 * int64(n))
}

// loadModel is what the rule needs to know of a router: every shard's
// in-flight right-hand sides, their total, and which shards are ejected or
// drained.
type loadModel struct {
	load             map[string]int64
	total            int64
	ejected, drained map[string]bool
}

// choose is the reference of candidates' first pick for a request of w
// right-hand sides whose ring successors are succ over onRing shards: the
// owner — the first routable successor, or the owner anyway when neither is
// routable — unless it would pass the bound and the other routable one
// would not, or neither fits and the other holds less.
func (m *loadModel) choose(succ []string, w int64, onRing int) (pick string, up []string) {
	for _, s := range succ {
		if !m.ejected[s] && !m.drained[s] {
			up = append(up, s)
		}
	}
	if len(up) == 0 {
		return succ[0], up
	}
	if len(up) == 2 {
		b := modelBound(m.total, w, onRing)
		owner, next := m.load[up[0]], m.load[up[1]]
		if owner+w > b && (next+w <= b || next < owner) {
			return up[1], up
		}
	}
	return up[0], up
}

// TestBoundedLoadMatchesModel runs random interleavings of arrivals (a key
// and a width of 1–64), completions, ejections, re-admissions and drains on
// rings of one to five shards, and holds every pick candidates makes to the
// model's, and to the rule's properties: an idle ring routes to the owner,
// and the pick is within the bound or, when neither candidate fits, the less
// loaded one, the owner on ties. It first pins the two cases the rule was
// sized for (boundedLoadPairs).
func TestBoundedLoadMatchesModel(t *testing.T) {
	boundedLoadPairs(t)
	var seen [3]int // picks of the owner, of the successor within the bound, past the bound
	for seed := int64(1); seed <= 60; seed++ {
		boundedLoadAgainstModel(t, seed, 300, &seen)
	}
	if seen[0] == 0 || seen[1] == 0 || seen[2] == 0 {
		t.Errorf("owner, spill and overflow picks seen %v times: the walk misses a branch of the rule", seen)
	}
}

func boundedLoadAgainstModel(t *testing.T, seed int64, steps int, seen *[3]int) {
	rng := rand.New(rand.NewSource(seed))
	topo := make([]Shard, 1+rng.Intn(5))
	for i := range topo {
		// Nothing is forwarded: the addresses are never dialed.
		topo[i] = Shard{Name: fmt.Sprintf("s%d", i), Addr: fmt.Sprintf("http://127.0.0.1:%d", 9+i)}
	}
	r, err := New(Config{ProbeInterval: time.Hour}, topo)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown()
	shard := func(name string) *shardState {
		r.ringMu.RLock()
		defer r.ringMu.RUnlock()
		return r.shards[name]
	}
	m := &loadModel{load: map[string]int64{}, ejected: map[string]bool{}, drained: map[string]bool{}}
	type flight struct {
		name string
		w    int64
	}
	var inFlight []flight
	for step := 0; step < steps; step++ {
		what := fmt.Sprintf("seed %d step %d (%d shards)", seed, step, len(topo))
		switch x := rng.Intn(20); {
		case x < 10: // arrival
			key := fmt.Sprintf("key-%d", rng.Intn(24))
			w := int64(1 + rng.Intn(64))
			cands, spilled := r.candidates(key, w)
			r.ringMu.RLock()
			succ, onRing := r.ring.successors(key, replicas), r.ring.size()
			r.ringMu.RUnlock()
			want, up := m.choose(succ, w, onRing)
			got := cands[0].name
			if got != want {
				t.Fatalf("%s: key %s w=%d loads %v total %d up %v: picked %s, model %s", what, key, w, m.load, m.total, up, got, want)
			}
			if spilled != (len(up) > 0 && got != up[0]) {
				t.Fatalf("%s: spilled=%v for a pick of %s among %v", what, spilled, got, up)
			}
			if len(cands) != len(succ) || (len(up) == 2 && cands[1].name != up[0] && cands[1].name != up[1]) {
				t.Fatalf("%s: failover sequence %v, ring successors %v", what, names(cands), succ)
			}
			if m.total == 0 && len(up) > 0 && got != up[0] {
				t.Fatalf("%s: an idle ring routed %s past its owner %s", what, key, up[0])
			}
			b := modelBound(m.total, w, onRing)
			switch {
			case len(up) < 2:
			case m.load[got]+w > b:
				seen[2]++
			case got == up[0]:
				seen[0]++
			default:
				seen[1]++
			}
			if len(up) == 2 && m.load[got]+w > b {
				other := up[0]
				if got == up[0] {
					other = up[1]
				}
				if m.load[other]+w <= b || m.load[other] < m.load[got] || (m.load[other] == m.load[got] && got != up[0]) {
					t.Fatalf("%s: %s past the bound %d while %s held %d", what, got, b, other, m.load[other])
				}
			}
			r.carry(cands[0], w)
			m.load[got] += w
			m.total += w
			inFlight = append(inFlight, flight{got, w})
		case x < 16: // completion
			if len(inFlight) == 0 {
				continue
			}
			i := rng.Intn(len(inFlight))
			f := inFlight[i]
			inFlight = append(inFlight[:i], inFlight[i+1:]...)
			r.carry(shard(f.name), -f.w)
			m.load[f.name] -= f.w
			m.total -= f.w
		case x < 18: // ejection or re-admission
			name := topo[rng.Intn(len(topo))].Name
			s := shard(name)
			s.mu.Lock()
			s.healthy = m.ejected[name]
			s.mu.Unlock()
			m.ejected[name] = !m.ejected[name]
		case x < 19: // a reload that drains one more shard; one that drains them all is refused
			name := topo[rng.Intn(len(topo))].Name
			file, allDrained := make([]Shard, len(topo)), true
			for i, sh := range topo {
				sh.Drained = m.drained[sh.Name] || sh.Name == name
				allDrained = allDrained && sh.Drained
				file[i] = sh
			}
			if _, err := r.Apply(Topology{Shards: file}); (err != nil) != allDrained {
				t.Fatalf("%s: draining %s by file: err %v, every shard drained: %v", what, name, err, allDrained)
			} else if err == nil {
				m.drained[name] = true
			}
		default: // a reload names every shard: the drained re-join the ring
			if _, err := r.Apply(Topology{Shards: topo}); err != nil {
				t.Fatal(err)
			}
			m.drained = map[string]bool{}
		}
		for name, want := range m.load {
			if got := shard(name).load.Load(); got != want {
				t.Fatalf("%s: %s carries %d, model %d", what, name, got, want)
			}
		}
		if got := r.load.Load(); got != m.total {
			t.Fatalf("%s: router carries %d, model %d", what, got, m.total)
		}
	}
}

func names(cands []*shardState) []string {
	out := make([]string, len(cands))
	for i, s := range cands {
		out[i] = s.name
	}
	return out
}

// boundedLoadPairs holds two shards and every pair of keys to the cases the
// rule was sized for: two concurrent singles never spill (⌈1.25·2/2⌉ = 2),
// and a single whose owner holds a k=4 batch always does (⌈1.25·5/2⌉ = 4).
func boundedLoadPairs(t *testing.T) {
	r, err := New(Config{ProbeInterval: time.Hour}, []Shard{{Name: "a", Addr: "http://127.0.0.1:9"}, {Name: "b", Addr: "http://127.0.0.1:10"}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown()
	for i := 0; i < 16; i++ {
		first := fmt.Sprintf("key-%d", i)
		for j := 0; j < 16; j++ {
			second := fmt.Sprintf("key-%d", j)
			cands, _ := r.candidates(first, 1)
			r.carry(cands[0], 1)
			if _, spilled := r.candidates(second, 1); spilled {
				t.Errorf("single %s spilled beside a single %s", second, first)
			}
			r.carry(cands[0], -1)

			cands, _ = r.candidates(first, 4)
			r.carry(cands[0], 4)
			next, spilled := r.candidates(second, 1)
			if sameOwner := r.ring.Lookup(first) == r.ring.Lookup(second); spilled != sameOwner || next[0].load.Load() != 0 {
				t.Errorf("single %s: spilled=%v to a shard holding %d, its owner holding a k=4 batch: %v", second, spilled, next[0].load.Load(), sameOwner)
			}
			r.carry(cands[0], -4)
		}
	}
}

// settled waits until no right-hand side is carried anywhere in r.
func settled(t *testing.T, r *Router) {
	t.Helper()
	waitFor(t, func() bool {
		r.ringMu.RLock()
		defer r.ringMu.RUnlock()
		for _, s := range r.shards {
			if s.load.Load() != 0 {
				return false
			}
		}
		return r.load.Load() == 0
	})
}

// batchBody is a batch of k right-hand sides on solveBody's matrix.
func batchBody(t *testing.T, gen string, n, k int) []byte {
	t.Helper()
	spec, err := harness.NewMatrixSpec(gen, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	breq := api.BatchSolveRequest{SolveRequest: api.SolveRequest{Matrix: &spec, Seed: 7}, RHS: make([]api.BatchRHS, k)}
	for i := range breq.RHS {
		breq.RHS[i].Seed = int64(i + 1)
	}
	body, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestLoadSettlesAtZero holds every shard's load and the router's total to
// zero once traffic stops, on every way a forward can end: a batch that
// carries its width while in flight, failover after a kill, a 429 spill, a
// client that cancels, and a stream that dies mid-stream.
func TestLoadSettlesAtZero(t *testing.T) {
	body := solveBody(t, "poisson2d", 16)
	t.Run("batch width", func(t *testing.T) {
		r, rt, ts := mockRouter(t, Config{}, "s0", "s1")
		owner := ownerOf(t, ts.URL, body)
		rt.Get(owner).SetDelay(300 * time.Millisecond)
		batch := batchBody(t, "poisson2d", 16, 3)
		done := make(chan int, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/v1/solve/batch", "application/json", bytes.NewReader(batch))
			if err != nil {
				done <- 0
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode
		}()
		waitFor(t, func() bool { return r.shards[owner].load.Load() == 3 && r.load.Load() == 3 })
		if st := r.shards[owner].status(0); st.Load != 3 || st.Inflight != 1 {
			t.Errorf("statusz of the owner reads load %d inflight %d, want 3 and 1", st.Load, st.Inflight)
		}
		if code := <-done; code != http.StatusOK {
			t.Errorf("batch answered %d", code)
		}
		settled(t, r)
	})
	t.Run("failover after kill", func(t *testing.T) {
		r, rt, ts := mockRouter(t, Config{}, "s0", "s1")
		owner := ownerOf(t, ts.URL, body)
		rt.Get(owner).Kill()
		if code, shard, _ := postRouted(t, ts.URL, body); code != http.StatusOK || shard == owner {
			t.Fatalf("solve after kill: %d from %s", code, shard)
		}
		settled(t, r)
	})
	t.Run("429 spill", func(t *testing.T) {
		r, rt, ts := mockRouter(t, Config{}, "s0", "s1")
		owner := ownerOf(t, ts.URL, body)
		rt.Get(owner).SetSaturated(true)
		if code, shard, _ := postRouted(t, ts.URL, body); code != http.StatusOK || shard == owner {
			t.Fatalf("solve past a saturated owner: %d from %s", code, shard)
		}
		settled(t, r)
	})
	t.Run("client cancels", func(t *testing.T) {
		r, rt, ts := mockRouter(t, Config{}, "s0", "s1")
		owner := ownerOf(t, ts.URL, body)
		rt.Get(owner).SetDelay(5 * time.Second)
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for r.load.Load() != 1 {
				time.Sleep(time.Millisecond)
			}
			cancel()
		}()
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			t.Fatalf("a canceled request answered %d", resp.StatusCode)
		}
		settled(t, r)
		// A canceled fetch says nothing about the shard: no passive failure.
		if st := r.shards[owner].status(0); st.Inflight != 0 || st.ConsecutiveFailures != 0 || st.Errors != 0 {
			t.Errorf("after a client cancel the owner reads inflight %d, consecutive failures %d, errors %d; want 0, 0, 0", st.Inflight, st.ConsecutiveFailures, st.Errors)
		}
	})
	t.Run("stream dies mid-stream", func(t *testing.T) {
		r, rt, ts := mockRouter(t, Config{}, "s0", "s1")
		owner := ownerOf(t, ts.URL, body)
		rt.Get(owner).KillMidStream()
		if _, err := api.NewClient(ts.URL).SolveStream(context.Background(), solveRequestOf(t, body), nil); err == nil {
			t.Fatal("a stream whose shard died answered no error")
		}
		settled(t, r)
	})
}

// TestSpillKeepsAttribution sends a single to a key whose owner holds a k=4
// batch: the successor answers it, statusz and /metrics count one spill, and
// the key stays attributed to its owner.
func TestSpillKeepsAttribution(t *testing.T) {
	r, rt, ts := mockRouter(t, Config{}, "s0", "s1")
	body := solveBody(t, "poisson2d", 16)
	owner := ownerOf(t, ts.URL, body)
	rt.Get(owner).SetDelay(300 * time.Millisecond)
	batch := batchBody(t, "poisson2d", 16, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.Post(ts.URL+"/v1/solve/batch", "application/json", bytes.NewReader(batch)); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return r.shards[owner].load.Load() == 4 })
	code, shard, _ := postRouted(t, ts.URL, body)
	<-done
	if code != http.StatusOK || shard == owner {
		t.Fatalf("single beside a batch on its owner: %d from %s, want 200 from the successor", code, shard)
	}
	rz := r.routerz()
	if rz.Spilled != 1 || rz.Failovers != 0 {
		t.Errorf("spilled %d failovers %d, want 1 and 0", rz.Spilled, rz.Failovers)
	}
	if rz.Keys.Distinct != 1 || rz.Keys.PerShard[owner] != 1 {
		t.Errorf("key distribution %+v, want the key on its owner %s", rz.Keys, owner)
	}
	if m := scrapeRouterMetrics(t, ts.URL); m["resilient_router_spilled_total"] != 1 {
		t.Errorf("resilient_router_spilled_total = %v, want 1", m["resilient_router_spilled_total"])
	}
	settled(t, r)
}

// TestShardConnectionsAreReused sends two bursts of eight concurrent
// forwards to one slow shard: the second burst rides the first's
// connections, so the shard accepts at most eight.
func TestShardConnectionsAreReused(t *testing.T) {
	_, rt, ts := mockRouter(t, Config{}, "s0")
	shard := rt.Get("s0")
	shard.SetDelay(100 * time.Millisecond)
	body := solveBody(t, "poisson2d", 16)
	for burst := 0; burst < 2; burst++ {
		var wg sync.WaitGroup
		codes := make([]int, 8)
		for i := range codes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body)); err == nil {
					codes[i] = resp.StatusCode
					resp.Body.Close()
				}
			}()
		}
		wg.Wait()
		for i, code := range codes {
			if code != http.StatusOK {
				t.Fatalf("burst %d forward %d answered %d", burst, i, code)
			}
		}
		time.Sleep(50 * time.Millisecond) // the answered connections return to the idle pool
	}
	if got := shard.Conns(); got > 8 {
		t.Errorf("two bursts of 8 forwards opened %d connections to the shard, want at most 8", got)
	}
}
