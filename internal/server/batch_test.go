package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"repro/internal/api"
)

// postBatch posts the batch request and decodes the body into out (a
// *api.BatchSolveResponse for 200, *api.Error otherwise). Returns the
// status.
func postBatch(t *testing.T, url string, req *api.BatchSolveRequest, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/solve/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %d response: %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

// TestBatchSolveMatchesSingles is the batch-path determinism gate: every
// right-hand side of a batched solve must answer the exact residual hash
// the equivalent single request answers, for cg under ABFT and unprotected
// and for pcg, and a repeated batch must reproduce itself bit for bit.
func TestBatchSolveMatchesSingles(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 2, QueueDepth: 16})

	for _, tc := range []struct{ solver, scheme string }{
		{"cg", "abft-correction"},
		{"cg", "unprotected"},
		{"pcg", "abft-correction"},
	} {
		name := tc.solver + "/" + tc.scheme
		breq := &api.BatchSolveRequest{
			SolveRequest: *poisson2DRequest(225),
			RHS:          []api.BatchRHS{{Seed: 1}, {Seed: 2}, {Seed: 3}},
		}
		breq.Solver, breq.Scheme = tc.solver, tc.scheme

		var first, second api.BatchSolveResponse
		if code := postBatch(t, ts.URL, breq, &first); code != http.StatusOK {
			t.Fatalf("%s: status %d", name, code)
		}
		if code := postBatch(t, ts.URL, breq, &second); code != http.StatusOK {
			t.Fatalf("%s repeat: status %d", name, code)
		}
		if len(first.Results) != 3 || len(second.Results) != 3 {
			t.Fatalf("%s: %d/%d results, want 3", name, len(first.Results), len(second.Results))
		}
		if first.Coalesced != 3 {
			t.Errorf("%s: coalesced %d, want 3", name, first.Coalesced)
		}
		for i := range first.Results {
			br := first.Results[i]
			if br.SolveError != "" {
				t.Fatalf("%s rhs %d: solve error %s", name, i, br.SolveError)
			}
			if br.Result.ResidualHash != second.Results[i].Result.ResidualHash {
				t.Errorf("%s rhs %d: repeated batch hash %s != %s",
					name, i, second.Results[i].Result.ResidualHash, br.Result.ResidualHash)
			}
			if got := br.Result.Scenario.Seed; got != int64(i+1) {
				t.Errorf("%s rhs %d: scenario seed %d, want %d", name, i, got, i+1)
			}

			single := poisson2DRequest(225)
			single.Solver, single.Scheme, single.Seed = tc.solver, tc.scheme, int64(i+1)
			var sr api.SolveResponse
			if code := postSolve(t, ts.URL, single, &sr); code != http.StatusOK {
				t.Fatalf("%s rhs %d single: status %d", name, i, code)
			}
			if sr.Result.ResidualHash != br.Result.ResidualHash {
				t.Errorf("%s rhs %d: batch hash %s != single hash %s",
					name, i, br.Result.ResidualHash, sr.Result.ResidualHash)
			}
		}
	}
}

func TestBatchValidation(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 1})

	var er api.Error
	empty := &api.BatchSolveRequest{SolveRequest: *poisson2DRequest(16)}
	if code := postBatch(t, ts.URL, empty, &er); code != http.StatusBadRequest {
		t.Errorf("empty rhs: status %d, want 400", code)
	}

	over := &api.BatchSolveRequest{SolveRequest: *poisson2DRequest(16), RHS: make([]api.BatchRHS, api.MaxBatchRHS+1)}
	if code := postBatch(t, ts.URL, over, &er); code != http.StatusBadRequest {
		t.Errorf("oversized rhs: status %d, want 400", code)
	}

	resp, err := http.Get(ts.URL + "/v1/solve/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}
}

// TestCoalescingMergesQueuedSingles pins the scheduler-level coalescer:
// single requests sharing a matrix and scenario axes that queue behind a
// busy solver are merged into one blocked solve, each answering its own
// response with the coalesced width — and with exactly the hash it would
// answer alone.
func TestCoalescingMergesQueuedSingles(t *testing.T) {
	s, ts := testServer(t, Config{Concurrency: 1, QueueDepth: 8})
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s.testHookPreSolve = func() {
		entered <- struct{}{}
		<-release
	}

	// The blocker occupies the only solver slot on a different matrix, so
	// it can never merge with the requests queuing behind it.
	blocker := poisson2DRequest(64)
	results := make(chan api.SolveResponse, 4)
	async := func(req *api.SolveRequest) {
		go func() {
			var resp api.SolveResponse
			if code := postSolve(t, ts.URL, req, &resp); code != http.StatusOK {
				t.Errorf("status %d, want 200", code)
			}
			results <- resp
		}()
	}
	async(blocker)
	<-entered

	// Three same-identity singles with distinct seeds queue up.
	const merged = 3
	for i := 0; i < merged; i++ {
		req := poisson2DRequest(225)
		req.Seed = int64(i + 1)
		async(req)
	}
	waitFor(t, func() bool { return s.sched.depth() >= merged })
	close(release)

	coalescedWidths := map[int]int{}
	hashes := map[int64]string{}
	for i := 0; i < merged+1; i++ {
		resp := <-results
		if resp.Result.Scenario.Matrix.N == 225 {
			coalescedWidths[resp.Coalesced]++
			hashes[resp.Result.Scenario.Seed] = resp.Result.ResidualHash
		}
	}
	if coalescedWidths[merged] != merged {
		t.Fatalf("coalesced widths %v, want all %d requests merged into one %d-wide block",
			coalescedWidths, merged, merged)
	}
	// Every merged request must answer the hash it answers when solved
	// alone (warm, uncontended server: no coalescing now).
	for seed, want := range hashes {
		req := poisson2DRequest(225)
		req.Seed = seed
		var resp api.SolveResponse
		if code := postSolve(t, ts.URL, req, &resp); code != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, code)
		}
		if resp.Coalesced > 1 {
			t.Errorf("seed %d: uncontended solve reports coalesced=%d", seed, resp.Coalesced)
		}
		if resp.Result.ResidualHash != want {
			t.Errorf("seed %d: merged hash %s != solo hash %s", seed, want, resp.Result.ResidualHash)
		}
	}
}

// TestCoalescingRespectsMaxCoalesce pins the cap: a queued task joins a
// group only if the group's width stays within maxCoalesce. A same-key
// 16-RHS batch queued behind a single does not fit a cap of 4 — the single
// solves alone and the batch, wider than the cap by itself, leads the next
// group.
func TestCoalescingRespectsMaxCoalesce(t *testing.T) {
	s, ts := testServer(t, Config{Concurrency: 1, QueueDepth: 8, maxCoalesce: 4})
	entered, release := holdWorkers(s)

	blocked := make(chan int, 1)
	go func() { blocked <- postSolve(t, ts.URL, poisson2DRequest(64), nil) }()
	<-entered

	single := make(chan api.SolveResponse, 1)
	go func() {
		var resp api.SolveResponse
		if code := postSolve(t, ts.URL, poisson2DRequest(225), &resp); code != http.StatusOK {
			t.Errorf("single: status %d, want 200", code)
		}
		single <- resp
	}()
	waitFor(t, func() bool { return s.sched.depth() >= 1 })
	const wide = 16
	breq := &api.BatchSolveRequest{SolveRequest: *poisson2DRequest(225), RHS: make([]api.BatchRHS, wide)}
	for i := range breq.RHS {
		breq.RHS[i].Seed = int64(i + 1)
	}
	batch := make(chan api.BatchSolveResponse, 1)
	go func() {
		var resp api.BatchSolveResponse
		if code := postBatch(t, ts.URL, breq, &resp); code != http.StatusOK {
			t.Errorf("batch: status %d, want 200", code)
		}
		batch <- resp
	}()
	waitFor(t, func() bool { return s.sched.depth() >= 2 })
	close(release)

	if code := <-blocked; code != http.StatusOK {
		t.Errorf("blocker: status %d, want 200", code)
	}
	if got := (<-single).Coalesced; got != 1 {
		t.Errorf("single: coalesced %d, want 1 (the batch does not fit a cap of 4)", got)
	}
	if got := (<-batch).Coalesced; got != wide {
		t.Errorf("batch: coalesced %d, want %d (its own group)", got, wide)
	}
}

// TestCoalesceMixedDeadlines pins the corner the merge must not break:
// when same-identity requests with different deadlines queue together and
// one expires before a solver frees, that request alone answers 504 — the
// coalescing scan drops it — while the others merge and succeed.
func TestCoalesceMixedDeadlines(t *testing.T) {
	s, ts := testServer(t, Config{Concurrency: 1, QueueDepth: 8})
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s.testHookPreSolve = func() {
		entered <- struct{}{}
		<-release
	}

	blocker := poisson2DRequest(64)
	okCodes := make(chan api.SolveResponse, 4)
	go func() {
		var resp api.SolveResponse
		postSolve(t, ts.URL, blocker, &resp)
		okCodes <- resp
	}()
	<-entered

	// Two patient same-identity singles and one with a 50ms deadline.
	for i := 0; i < 2; i++ {
		req := poisson2DRequest(225)
		req.Seed = int64(i + 1)
		go func() {
			var resp api.SolveResponse
			if code := postSolve(t, ts.URL, req, &resp); code != http.StatusOK {
				t.Errorf("patient request: status %d, want 200", code)
			}
			okCodes <- resp
		}()
	}
	timed := poisson2DRequest(225)
	timed.Seed = 99
	timed.TimeoutMillis = 50
	timedCode := make(chan int, 1)
	go func() {
		var er api.Error
		timedCode <- postSolve(t, ts.URL, timed, &er)
	}()
	waitFor(t, func() bool { return s.sched.depth() >= 3 })

	// The short deadline fires while everything is still queued.
	if code := <-timedCode; code != http.StatusGatewayTimeout {
		t.Fatalf("expired request: status %d, want 504", code)
	}
	close(release)

	for i := 0; i < 3; i++ {
		resp := <-okCodes
		if n := resp.Result.Scenario.Matrix.N; n == 225 && resp.Coalesced != 2 {
			t.Errorf("survivor (seed %d): coalesced %d, want 2 (expired lane dropped)",
				resp.Result.Scenario.Seed, resp.Coalesced)
		}
	}
	if got := s.expired.Load(); got != 1 {
		t.Errorf("expired = %d, want 1", got)
	}
	if got := s.completed.Load(); got != 3 {
		t.Errorf("completed = %d, want 3", got)
	}
}

// TestBatchSurvivesMidQueueEviction pins the second coalescing corner: a
// queued batch whose matrix entry is evicted while it waits still solves
// on the entry it holds, and a fresh request for the evicted matrix
// rebuilds it with unchanged hashes.
func TestBatchSurvivesMidQueueEviction(t *testing.T) {
	s, ts := testServer(t, Config{Concurrency: 1, QueueDepth: 8, cacheEntries: 1})
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s.testHookPreSolve = func() {
		entered <- struct{}{}
		<-release
	}

	blocker := poisson2DRequest(64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var resp api.SolveResponse
		postSolve(t, ts.URL, blocker, &resp)
	}()
	<-entered

	// The batch queues holding its materialised entry.
	breq := &api.BatchSolveRequest{
		SolveRequest: *poisson2DRequest(225),
		RHS:          []api.BatchRHS{{Seed: 1}, {Seed: 2}},
	}
	var batchResp api.BatchSolveResponse
	batchDone := make(chan int, 1)
	go func() {
		batchDone <- postBatch(t, ts.URL, breq, &batchResp)
	}()
	waitFor(t, func() bool { return s.sched.depth() >= 1 })

	// A third matrix displaces the batch's entry from the 1-slot cache
	// while the batch is still queued.
	other := poisson2DRequest(100)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var resp api.SolveResponse
		postSolve(t, ts.URL, other, &resp)
	}()
	waitFor(t, func() bool { return s.sched.depth() >= 2 })

	close(release)
	if code := <-batchDone; code != http.StatusOK {
		t.Fatalf("evicted-entry batch: status %d, want 200", code)
	}
	wg.Wait()
	for i, br := range batchResp.Results {
		if br.SolveError != "" {
			t.Fatalf("rhs %d: solve error %s", i, br.SolveError)
		}
	}

	// Refetch: the matrix rebuilds from its spec and must hash identically.
	var again api.BatchSolveResponse
	if code := postBatch(t, ts.URL, breq, &again); code != http.StatusOK {
		t.Fatalf("refetch batch: status %d", code)
	}
	if again.CacheHit {
		// The entry was evicted, so the refetch must have been a miss —
		// unless the eviction raced the earlier solves; either way the
		// hashes below are the real gate.
		t.Log("refetch reported a cache hit")
	}
	for i := range again.Results {
		if got, want := again.Results[i].Result.ResidualHash, batchResp.Results[i].Result.ResidualHash; got != want {
			t.Errorf("rhs %d: refetched hash %s != pre-eviction hash %s", i, got, want)
		}
	}
}

// TestBatchCacheAccounting pins the footprint-weighted eviction rule for
// blocked solves: an entry that served a k-wide batch weighs its base
// footprint plus k per-lane arenas, the charge grows monotonically with
// the high-water width, and widening can push the cache over its byte
// budget and evict colder entries.
func TestBatchCacheAccounting(t *testing.T) {
	s := New(Config{Concurrency: 1})
	defer s.Shutdown()

	req := poisson2DRequest(100)
	ent, _ := warmEntry(t, s, req)
	s.cache.noteMaterialised(ent)
	base := s.cache.stats().Bytes
	if base != entryFootprint(ent.a) {
		t.Fatalf("materialised bytes %d, want entryFootprint %d", base, entryFootprint(ent.a))
	}

	s.cache.noteBatchWidth(ent, 4)
	want := base + 4*perRHSFootprint(ent.a)
	if got := s.cache.stats().Bytes; got != want {
		t.Errorf("after k=4: bytes %d, want %d (base + 4 lanes)", got, want)
	}
	// Narrower and repeated widths never shrink or double-charge.
	s.cache.noteBatchWidth(ent, 2)
	s.cache.noteBatchWidth(ent, 4)
	if got := s.cache.stats().Bytes; got != want {
		t.Errorf("after re-noting ≤ widths: bytes %d, want unchanged %d", got, want)
	}
	// Widening charges only the delta.
	s.cache.noteBatchWidth(ent, 6)
	want = base + 6*perRHSFootprint(ent.a)
	if got := s.cache.stats().Bytes; got != want {
		t.Errorf("after k=6: bytes %d, want %d", got, want)
	}

	// Eviction on the byte budget: a second entry fits beside the first
	// only until the first widens past the budget.
	budget := entryFootprint(ent.a) + 6*perRHSFootprint(ent.a) + 2*entryFootprint(ent.a)
	s2 := New(Config{Concurrency: 1, cacheBytes: budget})
	defer s2.Shutdown()
	entA, _ := warmEntry(t, s2, poisson2DRequest(100))
	s2.cache.noteMaterialised(entA)
	entB, _ := warmEntry(t, s2, poisson2DRequest(64))
	s2.cache.noteMaterialised(entB)
	if got := s2.cache.stats().Entries; got != 2 {
		t.Fatalf("both entries admitted: got %d", got)
	}
	// entA is the LRU entry; widening it overflows the budget and the
	// eviction loop drops from the LRU end, so entA itself goes and the
	// MRU entry survives.
	s2.cache.noteBatchWidth(entA, 64)
	st := s2.cache.stats()
	if st.Entries != 1 || st.Evictions == 0 {
		t.Errorf("after over-budget widening: %+v, want 1 entry and an eviction", st)
	}
	if _, hit := s2.cache.get(entB.key, entB.label, entB.spec); !hit {
		t.Error("survivor is not the MRU entry")
	}
}
