package server

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sparse"
)

// maxRHSPerEntry and maxIntervalsPerEntry bound the seed- and
// alpha-keyed artifact maps cached per matrix; past the bound the
// cheapest correct policy is to drop them all (they rebuild
// deterministically). Both keys are client-supplied, so unbounded maps
// would let a parameter sweep grow a resident entry forever.
const (
	maxRHSPerEntry       = 16
	maxIntervalsPerEntry = 32
)

// cache is the per-matrix artifact cache: an LRU of entries keyed by the
// canonical matrix identity (the spec's JSON for named matrices, the
// SHA-256 of the operand's bytes for inline ones). Admission is bounded
// twice — by entry count and by the estimated memory footprint of the
// resident matrices — and entries idle past the TTL age out on a background
// sweeper. Eviction only drops references — requests holding an evicted
// entry finish on it undisturbed.
type cache struct {
	mu           sync.Mutex
	capacity     int
	bytesCap     int64
	ttl          time.Duration
	bytes        int64
	entries      map[string]*list.Element
	ll           *list.List // of *entry; front = most recently used
	hits         int64
	misses       int64
	evictions    int64
	ttlEvictions int64

	closeOnce sync.Once
	stop      chan struct{}
	sweeping  sync.WaitGroup
}

func newCache(capacity int, bytesCap int64, ttl time.Duration) *cache {
	c := &cache{
		capacity: capacity,
		bytesCap: bytesCap,
		ttl:      ttl,
		entries:  make(map[string]*list.Element),
		ll:       list.New(),
		stop:     make(chan struct{}),
	}
	// Sweep well inside the TTL so an idle entry overstays by at most ~25%,
	// without ticking hot enough to matter. The ticker is built here, not in
	// the goroutine, so the sweeper performs all its setup allocation before
	// newCache returns (the warm solve path is gated at zero allocations
	// process-wide).
	c.sweeping.Add(1)
	go c.sweepLoop(time.NewTicker(max(ttl/4, time.Second)))
	return c
}

func (c *cache) sweepLoop(t *time.Ticker) {
	defer c.sweeping.Done()
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-t.C:
			c.sweepOnce(now)
		}
	}
}

// sweepOnce ages out every entry idle longer than the TTL. The LRU order
// makes this a walk from the back that stops at the first fresh entry.
func (c *cache) sweepOnce(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		back := c.ll.Back()
		if back == nil {
			return
		}
		e := back.Value.(*entry)
		if now.Sub(e.lastUsed) <= c.ttl {
			return
		}
		c.removeLocked(back)
		c.ttlEvictions++
	}
}

// close stops the TTL sweeper. Idempotent.
func (c *cache) close() {
	c.closeOnce.Do(func() { close(c.stop) })
	c.sweeping.Wait()
}

// get returns the entry for key, creating an unmaterialised skeleton on a
// miss and evicting least-recently-used entries beyond the count or byte
// budget. The second result reports whether the entry already existed.
func (c *cache) get(key, label string, spec harness.MatrixSpec) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.hitLocked(key); e != nil {
		return e, true
	}
	c.misses++
	e := &entry{key: key, label: label, spec: spec, lastUsed: time.Now()}
	c.entries[key] = c.ll.PushFront(e)
	c.evictOverBudgetLocked()
	return e, false
}

// lookup returns the entry for key and counts the hit, or reports a miss
// without counting it or admitting anything.
func (c *cache) lookup(key string) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.hitLocked(key)
	return e, e != nil
}

// hitLocked returns the entry for key, marked most recently used and
// counted as a hit, or nil.
func (c *cache) hitLocked(key string) *entry {
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*entry)
	e.lastUsed = time.Now()
	c.hits++
	return e
}

// noteMaterialised charges a freshly materialised entry's footprint to the
// byte budget (a skeleton weighs nothing until its matrix exists) and
// evicts if the admission overflowed it. Idempotent per entry; an entry
// evicted while it was still building is never charged.
func (c *cache) noteMaterialised(e *entry) {
	if e.a == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[e.key]
	if !ok || el.Value.(*entry) != e || e.weight != 0 {
		return
	}
	e.weight = entryFootprint(e.a)
	c.bytes += e.weight
	c.evictOverBudgetLocked()
}

// evictOverBudgetLocked drops LRU entries while either budget is
// exceeded. The most recently used entry always stays: a single matrix
// larger than the whole byte budget still serves (and is dropped as soon
// as anything else displaces it).
func (c *cache) evictOverBudgetLocked() {
	for c.ll.Len() > 1 && (c.ll.Len() > c.capacity || c.bytes > c.bytesCap) {
		c.removeLocked(c.ll.Back())
	}
}

func (c *cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.weight
	c.evictions++
}

// wordBytes is the size of a CSR word: a float64 value or an int index.
const wordBytes = 8

// entryFootprint estimates the resident bytes of one entry: its matrix,
// NNZ+rows words of values plus NNZ+rows+1 of indices, which every solve
// reads in place; up to maxRHSPerEntry cached right-hand sides of n words;
// and a Jacobi preconditioner, 3n+1 words. Solve scratch is not an entry's:
// the server's pool of warm contexts holds it (runGroup).
// TestEntryFootprintCoversHeldBytes holds it to what an entry keeps alive.
func entryFootprint(a *sparse.CSR) int64 {
	return wordBytes * int64(a.MemoryWords()+(maxRHSPerEntry+3)*a.Rows+1)
}

func (c *cache) stats() api.CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return api.CacheStats{
		Entries:       c.ll.Len(),
		Capacity:      c.capacity,
		Bytes:         c.bytes,
		CapacityBytes: c.bytesCap,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		TTLEvictions:  c.ttlEvictions,
	}
}

// entry holds every reusable artifact of one matrix. It is created as a
// skeleton by cache.get and materialised exactly once (concurrent first
// requests block on the build instead of duplicating it); the
// seed-dependent artifacts fill in lazily under mu.
type entry struct {
	key   string
	label string
	spec  harness.MatrixSpec

	// weight and lastUsed belong to the owning cache (guarded by its mu):
	// the charged footprint in bytes (0 until materialised and charged) and
	// the admission/last-hit time driving TTL aging.
	weight   int64
	lastUsed time.Time

	once sync.Once
	err  error
	a    *sparse.CSR

	mu        sync.Mutex
	rhs       map[int64][]float64
	preconds  map[string]*sparse.CSR
	intervals map[intervalKey][2]int
}

// intervalKey identifies one cached model-optimal (d, s) pair.
type intervalKey struct {
	scheme core.Scheme
	alpha  float64
}

// materialise builds the matrix exactly once. Safe for concurrent callers;
// the first error is sticky. A build that panics is that error too: an
// entry left with no matrix and no error would hand the next request for
// its key a nil matrix.
func (e *entry) materialise(build func() (*sparse.CSR, error)) error {
	e.once.Do(func() {
		defer func() {
			if p := recover(); p != nil {
				e.err = fmt.Errorf("matrix %s: build panicked: %v", e.label, p)
			}
		}()
		a, err := build()
		if err != nil {
			e.err = fmt.Errorf("matrix %s: %w", e.label, err)
			return
		}
		e.a = a
	})
	return e.err
}

// rhsFor returns the cached manufactured right-hand side for the seed,
// building and caching it on first use (the only allocating path; warm
// requests take the map hit only).
func (e *entry) rhsFor(seed int64) []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if b, ok := e.rhs[seed]; ok {
		return b
	}
	if e.rhs == nil {
		e.rhs = make(map[int64][]float64, maxRHSPerEntry)
	} else if len(e.rhs) >= maxRHSPerEntry {
		clear(e.rhs)
	}
	b, _ := harness.RHS(e.a, seed)
	e.rhs[seed] = b
	return b
}

// precondFor returns the cached explicit preconditioner of the given kind,
// building it on first use — the same construction the harness would
// perform per solve, hoisted to once per matrix.
func (e *entry) precondFor(kind string) (*sparse.CSR, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if m, ok := e.preconds[kind]; ok {
		return m, nil
	}
	m, err := harness.BuildPrecond(e.a, kind)
	if err != nil {
		return nil, err
	}
	if e.preconds == nil {
		e.preconds = make(map[string]*sparse.CSR, 2)
	}
	e.preconds[kind] = m
	return m, nil
}

// intervalsFor returns the cached model-optimal (d, s) for the scheme at
// fault rate alpha — the exact values the drivers would recompute per
// solve from the same inputs, hoisted to once per (matrix, scheme, alpha).
func (e *entry) intervalsFor(scheme core.Scheme, alpha float64) (d, s int) {
	k := intervalKey{scheme: scheme, alpha: alpha}
	e.mu.Lock()
	defer e.mu.Unlock()
	if ds, ok := e.intervals[k]; ok {
		return ds[0], ds[1]
	}
	d, s = core.OptimalIntervals(e.a, scheme, alpha, core.DefaultCostParams())
	if e.intervals == nil {
		e.intervals = make(map[intervalKey][2]int, 4)
	} else if len(e.intervals) >= maxIntervalsPerEntry {
		clear(e.intervals)
	}
	e.intervals[k] = [2]int{d, s}
	return d, s
}

// artifactsFor resolves what a solve of sc on this matrix needs beyond the
// matrix and its right-hand sides, from the entry's caches: the explicit
// preconditioner for pcg, and — where the request left d or s open on a
// protected scheme — the model-optimal intervals, the same values the
// drivers would derive per solve from the same inputs.
func (e *entry) artifactsFor(sc harness.Scenario) (harness.Scenario, *sparse.CSR, error) {
	var m *sparse.CSR
	if sc.Solver == "pcg" {
		var err error
		if m, err = e.precondFor(sc.Precond); err != nil {
			return sc, nil, err
		}
	}
	if scheme, _ := harness.ParseScheme(sc.Scheme); scheme != core.Unprotected && (sc.D == 0 || sc.S == 0) {
		d, s := e.intervalsFor(scheme, sc.Alpha)
		if sc.D == 0 {
			sc.D = d
		}
		if sc.S == 0 {
			sc.S = s
		}
	}
	return sc, m, nil
}
