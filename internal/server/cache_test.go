package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sparse"
)

func specFor(t *testing.T, gen string, n int) harness.MatrixSpec {
	t.Helper()
	spec, err := harness.NewMatrixSpec(gen, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2, cacheBytes, cacheTTL)
	defer c.close()
	var spec harness.MatrixSpec

	if _, hit := c.get("k1", "k1", spec); hit {
		t.Fatal("k1: hit on empty cache")
	}
	c.get("k2", "k2", spec)
	if _, hit := c.get("k1", "k1", spec); !hit {
		t.Fatal("k1: expected hit")
	}
	// k1 was just refreshed, so inserting k3 must evict k2 (the LRU)...
	c.get("k3", "k3", spec)
	if _, hit := c.get("k2", "k2", spec); hit {
		t.Error("k2 survived eviction")
	}
	// ...and that miss re-inserted k2, evicting k1 in turn.
	st := c.stats()
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2 (capacity)", st.Entries)
	}
}

func TestEntryMaterialiseOnce(t *testing.T) {
	c := newCache(4, cacheBytes, cacheTTL)
	defer c.close()
	ent, _ := c.get("k", "k", harness.MatrixSpec{})

	var builds int
	var mu sync.Mutex
	build := func() (*sparse.CSR, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		return sparse.Poisson2D(8, 8), nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ent.materialise(build); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Errorf("build ran %d times, want 1", builds)
	}
	if ent.a == nil || ent.a.Rows != 64 {
		t.Errorf("entry matrix not materialised: %+v", ent.a)
	}
}

func TestEntryMaterialiseErrorSticky(t *testing.T) {
	c := newCache(4, cacheBytes, cacheTTL)
	defer c.close()
	ent, _ := c.get("bad", "bad", harness.MatrixSpec{})
	boom := errors.New("boom")
	if err := ent.materialise(func() (*sparse.CSR, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failed build must not rerun; the error is the entry's state.
	if err := ent.materialise(func() (*sparse.CSR, error) { return sparse.Poisson2D(4, 4), nil }); !errors.Is(err, boom) {
		t.Fatalf("second materialise: err = %v, want sticky boom", err)
	}
}

// TestEntryMaterialisePanicIsStickyError: a build that panics becomes the
// entry's sticky error, so no later request for the key reaches a solve
// with no matrix and an unarmed context pool.
func TestEntryMaterialisePanicIsStickyError(t *testing.T) {
	c := newCache(4, cacheBytes, cacheTTL)
	defer c.close()
	ent, _ := c.get("panics", "panics", harness.MatrixSpec{})
	build := func() (*sparse.CSR, error) { panic("generator bug") }
	for call := 1; call <= 2; call++ {
		err := ent.materialise(build)
		if err == nil || !strings.Contains(err.Error(), "generator bug") {
			t.Fatalf("call %d: err = %v, want the build's panic", call, err)
		}
	}
	if ent.a != nil {
		t.Fatalf("panicked build left a matrix: %+v", ent.a)
	}
}

func TestEntryRHSCaching(t *testing.T) {
	c := newCache(4, cacheBytes, cacheTTL)
	defer c.close()
	ent, _ := c.get("k", "k", harness.MatrixSpec{})
	if err := ent.materialise(func() (*sparse.CSR, error) { return sparse.Poisson2D(6, 6), nil }); err != nil {
		t.Fatal(err)
	}

	b1 := ent.rhsFor(3)
	b2 := ent.rhsFor(3)
	if &b1[0] != &b2[0] {
		t.Error("same seed returned a rebuilt RHS")
	}
	b4 := ent.rhsFor(4)
	if &b1[0] == &b4[0] {
		t.Error("different seeds share an RHS")
	}

	// Overflow the per-entry bound: the cache resets but stays correct —
	// the rebuilt RHS is bitwise identical (deterministic in the seed).
	for seed := int64(10); seed < int64(10+maxRHSPerEntry); seed++ {
		ent.rhsFor(seed)
	}
	b1again := ent.rhsFor(3)
	if &b1[0] == &b1again[0] {
		t.Error("RHS cache did not reset after overflow")
	}
	for i := range b1 {
		if b1[i] != b1again[i] {
			t.Fatalf("rebuilt RHS differs at %d: %g != %g", i, b1again[i], b1[i])
		}
	}
}

func TestEntryPrecondAndIntervalCaching(t *testing.T) {
	c := newCache(4, cacheBytes, cacheTTL)
	defer c.close()
	ent, _ := c.get("k", "k", harness.MatrixSpec{})
	if err := ent.materialise(func() (*sparse.CSR, error) { return sparse.Poisson2D(8, 8), nil }); err != nil {
		t.Fatal(err)
	}

	m1, err := ent.precondFor("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := ent.precondFor("jacobi")
	if m1 != m2 {
		t.Error("jacobi preconditioner rebuilt instead of cached")
	}
	if mn, err := ent.precondFor("neumann"); err != nil || mn == m1 {
		t.Errorf("neumann preconditioner: m=%p err=%v", mn, err)
	}

	wantD, wantS := core.OptimalIntervals(ent.a, core.ABFTCorrection, 0.01, core.DefaultCostParams())
	for i := 0; i < 2; i++ {
		if d, s := ent.intervalsFor(core.ABFTCorrection, 0.01); d != wantD || s != wantS {
			t.Errorf("intervalsFor = (%d, %d), want (%d, %d)", d, s, wantD, wantS)
		}
	}
}

// TestInlineFingerprintKeying pins the identity of an inline operand: its
// key is the SHA-256 of its bytes, prefixed by their length as
// api.InlineBytes.Sum hashes them (one vector pinned), so equal operands key
// alike, and the body a client sends for an operand keys as ResolveIdentity
// keys it in memory; perturbing any single word of the operand — a
// dimension, a row pointer, a column index or one bit of a value — changes
// the key. Another encoding of the same matrix is another key, and its
// parse gives the same matrix. The label stays the FNV-1a fingerprint of
// the parsed matrix.
func TestInlineFingerprintKeying(t *testing.T) {
	inline := func() *api.InlineCSR {
		return &api.InlineCSR{
			Rows: 2, Cols: 2,
			Rowidx: []int{0, 2, 3},
			Colid:  []int{0, 1, 1},
			Val:    []float64{4, -1, 4},
		}
	}
	resolve := func(ic *api.InlineCSR) Identity {
		t.Helper()
		id, err := ResolveIdentity(&api.SolveRequest{Inline: ic})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	decode := func(body string) Identity {
		t.Helper()
		var req api.SolveRequest
		id, err := Decode([]byte(body), &req, &req)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	parse := func(id Identity) Identity {
		t.Helper()
		parsed, err := id.parse()
		if err != nil {
			t.Fatal(err)
		}
		return parsed
	}
	id := resolve(inline())
	if resolve(inline()).Key != id.Key {
		t.Error("identical inline matrices keyed differently")
	}

	// The key vector: SHA-256 of the operand's JSON, in its word form, after
	// its length as 8 little-endian bytes.
	const js = `{"rows":2,"cols":2,"rowidx":"AAAAAAIAAAADAAAA","colid":"AAAAAAEAAAABAAAA","val":"AAAAAAAAEEAAAAAAAADwvwAAAAAAABBA"}`
	sum := sha256.Sum256(append(binary.LittleEndian.AppendUint64(nil, uint64(len(js))), js...))
	const pinned = "inline:sha256:20895259f5a38fc41f673170c8afd24c095fdb7c9612dd7b80b6ed2868cf5e30"
	if want := "inline:sha256:" + hex.EncodeToString(sum[:]); id.Key != want || id.Key != pinned {
		t.Errorf("key %q, want %q (pinned %q)", id.Key, want, pinned)
	}
	if sent := decode(`{"seed":3,"inline":` + js + `}`); sent.Key != id.Key {
		t.Errorf("the body a client sends keys %q, in memory %q", sent.Key, id.Key)
	}
	parsed := parse(id)
	if want := "inline:5d90883957143fd9"; parsed.Label != want || parsed.Spec != (harness.MatrixSpec{Gen: "inline", N: 2}) {
		t.Errorf("parsed %q %+v, want the fingerprint %q and n=2", parsed.Label, parsed.Spec, want)
	}
	spaced := decode(`{"inline": {"rows": 2, "cols": 2, "rowidx": "AAAAAAIAAAADAAAA", "colid": "AAAAAAEAAAABAAAA", "val": "AAAAAAAAEEAA\nAAAAAADwvwAAAAAAABBA"}}`)
	if again := parse(spaced); spaced.Key == id.Key || again.Label != parsed.Label || again.Spec != parsed.Spec {
		t.Errorf("another encoding keyed %q and parsed to %q %+v; first %q, %q %+v",
			spaced.Key, again.Label, again.Spec, id.Key, parsed.Label, parsed.Spec)
	}

	// Every single-word perturbation of the operand, valid or not, keys apart
	// from the original and from every other perturbation.
	seen := map[string]string{id.Key: "original"}
	perturb := func(name string, edit func(ic *api.InlineCSR)) {
		ic := inline()
		edit(ic)
		k := resolve(ic).Key
		if prev, ok := seen[k]; ok {
			t.Errorf("%s keys like %s: %s", name, prev, k)
		}
		seen[k] = name
	}
	base := inline()
	perturb("rows", func(ic *api.InlineCSR) { ic.Rows++ })
	perturb("cols", func(ic *api.InlineCSR) { ic.Cols++ })
	for i := range base.Rowidx {
		perturb(fmt.Sprintf("rowidx[%d]", i), func(ic *api.InlineCSR) { ic.Rowidx[i] ^= 1 << 30 })
	}
	for i := range base.Colid {
		perturb(fmt.Sprintf("colid[%d]", i), func(ic *api.InlineCSR) { ic.Colid[i]++ })
	}
	for i := range base.Val {
		perturb(fmt.Sprintf("val[%d]", i), func(ic *api.InlineCSR) {
			ic.Val[i] = math.Float64frombits(math.Float64bits(ic.Val[i]) ^ 1)
		})
	}
}

// TestSpecKeyingDistinguishesParameters pins the named-spec identity: the
// same generator with different parameters must not share artifacts.
func TestSpecKeyingDistinguishesParameters(t *testing.T) {
	keyOf := func(spec harness.MatrixSpec) string {
		t.Helper()
		id, err := ResolveIdentity(&api.SolveRequest{Matrix: &spec})
		if err != nil {
			t.Fatal(err)
		}
		return id.Key
	}
	a := specFor(t, "poisson2d", 100)
	b := specFor(t, "poisson2d", 144)
	c := specFor(t, "tridiag", 100)
	if keyOf(a) == keyOf(b) || keyOf(a) == keyOf(c) {
		t.Errorf("spec keys collide: %q %q %q", keyOf(a), keyOf(b), keyOf(c))
	}
	if keyOf(a) != keyOf(specFor(t, "poisson2d", 100)) {
		t.Error("identical specs keyed differently")
	}
}

// materialised inserts a matrix of the given grid side under key and
// charges its footprint, mirroring the handler's get → materialise →
// noteMaterialised sequence.
func materialised(t *testing.T, c *cache, key string, side int) *entry {
	t.Helper()
	ent, _ := c.get(key, key, harness.MatrixSpec{})
	if err := ent.materialise(func() (*sparse.CSR, error) { return sparse.Poisson2D(side, side), nil }); err != nil {
		t.Fatal(err)
	}
	c.noteMaterialised(ent)
	return ent
}

// TestCacheWeightEviction pins the footprint-weighted admission policy:
// the byte budget evicts by resident size, not entry count, and the
// eviction order is LRU.
func TestCacheWeightEviction(t *testing.T) {
	small := materialisedWeight(16)
	budget := 2*materialisedWeight(16) + materialisedWeight(16)/2
	c := newCache(64, budget, cacheTTL)
	defer c.close()

	materialised(t, c, "a", 16)
	materialised(t, c, "b", 16)
	st := c.stats()
	if st.Evictions != 0 || st.Bytes != 2*small {
		t.Fatalf("two small entries: stats %+v, want 0 evictions, %d bytes", st, 2*small)
	}

	// Refresh a, then admit c: the budget fits only two small matrices,
	// so the LRU entry b must go — weight decides, order is LRU.
	c.get("a", "a", harness.MatrixSpec{})
	materialised(t, c, "c", 16)
	if _, hit := c.get("b", "b", harness.MatrixSpec{}); hit {
		t.Error("b survived a byte-budget eviction that should have taken the LRU entry")
	}

	// One huge matrix blows the whole budget: everything else is evicted,
	// but the newest entry itself stays resident and keeps serving.
	materialised(t, c, "huge", 64)
	st = c.stats()
	if st.Entries != 1 {
		t.Fatalf("after over-budget admission: %d entries, want 1 (stats %+v)", st.Entries, st)
	}
	if ent, hit := c.get("huge", "huge", harness.MatrixSpec{}); !hit || ent.a == nil {
		t.Error("the over-budget entry itself was evicted")
	}
}

// materialisedWeight is the charged footprint of a side×side Poisson grid.
func materialisedWeight(side int) int64 {
	return entryFootprint(sparse.Poisson2D(side, side))
}

// TestCacheWeightAccounting verifies charges and refunds: bytes grows on
// materialisation, shrinks on eviction, and an entry evicted while still
// building is never charged.
func TestCacheWeightAccounting(t *testing.T) {
	c := newCache(2, cacheBytes, cacheTTL)
	defer c.close()
	materialised(t, c, "a", 8)
	materialised(t, c, "b", 8)
	if got, want := c.stats().Bytes, 2*materialisedWeight(8); got != want {
		t.Fatalf("bytes = %d, want %d", got, want)
	}
	materialised(t, c, "c", 8) // evicts a
	if got, want := c.stats().Bytes, 2*materialisedWeight(8); got != want {
		t.Errorf("bytes after eviction = %d, want %d", got, want)
	}

	// An entry that lost its slot before materialising finishes must not
	// charge the budget it is no longer part of.
	ent, _ := c.get("late", "late", harness.MatrixSpec{})
	c.get("d", "d", harness.MatrixSpec{})
	materialised(t, c, "e", 8) // "late" is now evicted
	if err := ent.materialise(func() (*sparse.CSR, error) { return sparse.Poisson2D(8, 8), nil }); err != nil {
		t.Fatal(err)
	}
	c.noteMaterialised(ent)
	if got, want := c.stats().Bytes, materialisedWeight(8); got != want {
		t.Errorf("evicted-while-building entry charged the budget: bytes = %d, want %d", got, want)
	}
}

// TestCacheTTLExpiry pins idle aging: entries idle past the TTL are swept
// (oldest first), fresh entries and recently-hit entries survive.
func TestCacheTTLExpiry(t *testing.T) {
	c := newCache(8, cacheBytes, time.Minute)
	defer c.close()
	materialised(t, c, "idle", 8)
	materialised(t, c, "fresh", 8)

	// Refresh "fresh" at t+45s, then sweep at t+70s: "idle" is 70s idle
	// (expired), "fresh" only 25s (kept).
	base := time.Now()
	c.mu.Lock()
	c.entries["idle"].Value.(*entry).lastUsed = base.Add(-70 * time.Second)
	c.entries["fresh"].Value.(*entry).lastUsed = base.Add(-25 * time.Second)
	c.mu.Unlock()
	c.sweepOnce(base)

	if _, hit := c.get("idle", "idle", harness.MatrixSpec{}); hit {
		t.Error("idle entry survived the TTL sweep")
	}
	if _, hit := c.get("fresh", "fresh", harness.MatrixSpec{}); !hit {
		t.Error("fresh entry was swept")
	}
	st := c.stats()
	if st.TTLEvictions != 1 {
		t.Errorf("ttl_evictions = %d, want 1", st.TTLEvictions)
	}
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1 (TTL evictions are a subset)", st.Evictions)
	}

	// A get refreshes lastUsed: sweeping right after must keep the entry.
	c.get("fresh", "fresh", harness.MatrixSpec{})
	c.sweepOnce(time.Now())
	if _, hit := c.get("fresh", "fresh", harness.MatrixSpec{}); !hit {
		t.Error("just-touched entry was swept")
	}
}

// heapHeld returns the bytes of heap that build's result keeps alive. The
// two collections before the first reading empty the victim caches of the
// sync.Pools earlier tests filled, which would otherwise be freed during
// the measurement.
func heapHeld(build func() any) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	held := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(held)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestEntryFootprintCoversHeldBytes holds the byte budget's estimate to what
// an entry keeps alive — its matrix, right-hand sides and cached intervals,
// measured as heapHeld measures it, without the solve context that served
// it (the server's, not the entry's) — on a matrix of the benchmark's
// denserow size and one of its inline operands' size, after a single solve
// and after a k = 4 batch: the charge is at least what is held and at most
// twice that.
func TestEntryFootprintCoversHeldBytes(t *testing.T) {
	// One P: a sync.Pool keeps a context per P, and the Get below must find
	// the one the solve put back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, spec := range []harness.MatrixSpec{
		{Gen: "suite", ID: 341, N: 2880},
		{Gen: "randomspd", N: 1024, Seed: 7},
	} {
		for _, k := range []int{1, 4} {
			s := New(Config{Concurrency: 1})
			req := &api.SolveRequest{Matrix: &spec, Solver: "cg", Scheme: "abft-correction", Seed: 3}
			var ent *entry
			held := heapHeld(func() any {
				var sc harness.Scenario
				ent, sc = warmEntry(t, s, req)
				s.cache.noteMaterialised(ent)
				s.runGroup(ent, sc, []*task{newTask("", seeds(k))})
				s.ctxs.Get() // takes the solve's context out of the pool, and drops it
				return ent
			})
			s.cache.mu.Lock()
			charge := ent.weight
			s.cache.mu.Unlock()
			s.Shutdown()
			t.Logf("%s k=%d: held %d bytes, charged %d (%.2f×)", ent.label, k, held, charge, float64(charge)/float64(held))
			if held < int64(8*ent.a.MemoryWords()) {
				t.Fatalf("%s k=%d: %d bytes held, less than the matrix itself: the measurement is broken", ent.label, k, held)
			}
			if charge < held || charge > 2*held {
				t.Errorf("%s k=%d: charged %d bytes for %d held, want within [1, 2]× of it", ent.label, k, charge, held)
			}
		}
	}
}

// seeds returns k right-hand sides of trial seeds 1…k.
func seeds(k int) []api.BatchRHS {
	rhs := make([]api.BatchRHS, k)
	for j := range rhs {
		rhs[j].Seed = int64(j + 1)
	}
	return rhs
}

// TestEntriesDoNotHoldSolveContexts holds a shard's solve scratch to the
// solves it runs at once, not to its resident entries: after 8 entries of a
// Concurrency 1 server each served a k = 4 batch, what the server keeps
// alive stays below the cache's charges for them plus one warm context.
func TestEntriesDoNotHoldSolveContexts(t *testing.T) {
	// One P, as in TestEntryFootprintCoversHeldBytes: on two, the pool may
	// keep a context for each.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := New(Config{Concurrency: 1})
	defer s.Shutdown()
	var ents []*entry
	var scs []harness.Scenario
	held := heapHeld(func() any {
		for side := 4; side < 12; side++ {
			req := poisson2DRequest(side * side)
			req.Solver, req.Scheme = "bicgstab", "abft-correction"
			ent, sc := warmEntry(t, s, req)
			s.cache.noteMaterialised(ent)
			s.runGroup(ent, sc, []*task{newTask("", seeds(4))})
			ents, scs = append(ents, ent), append(scs, sc)
		}
		return ents
	})
	var charged int64
	s.cache.mu.Lock()
	for _, ent := range ents {
		charged += ent.weight
	}
	s.cache.mu.Unlock()
	last := len(ents) - 1
	warm := heapHeld(func() any { return warmContext(ents[last], scs[last], 4) })
	t.Logf("held %d bytes; charged %d, one warm context %d", held, charged, warm)
	if held >= charged+warm {
		t.Errorf("8 entries hold %d bytes, at least their charges (%d) plus one warm context (%d): they hold solve contexts of their own",
			held, charged, warm)
	}
}

// warmContext returns a fresh solve context warmed as runGroup warms one by
// a k-wide group of seeds 1…k on ent.
func warmContext(ent *entry, sc harness.Scenario, k int) *batchCtx {
	c := newBatchCtx()
	c.grow(k)
	for j := range k {
		c.bs[j], c.seeds[j] = ent.rhsFor(int64(j+1)), int64(j+1)
	}
	harness.SolveBlockWith(ent.a, c.bs[:k], sc, c.seeds[:k], harness.BlockOpts{Ws: c.ws, OnIteration: c.record}, c.sts[:k], c.errs[:k])
	return c
}
