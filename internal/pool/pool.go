// Package pool implements the worker-pool execution engine of the one level
// at which this repository is parallel: independent solves — the trial
// fan-out of the campaigns (internal/harness, internal/sim). No kernel of a
// solve runs on it; a solve is one goroutine from its first product to its
// last.
//
// The engine is a fixed set of resident worker goroutines (sized by
// runtime.GOMAXPROCS by default) fed over an unbuffered channel. Every
// parallel operation is expressed as a chunked range [0, n): the caller's
// goroutine always participates in draining the chunk queue, and work is
// only handed to a resident worker that is ready to receive it. Two
// properties follow:
//
//   - No deadlock under nesting. Work running on a worker may itself call
//     into the pool; if no worker is idle the nested call simply degrades to
//     inline execution on the calling goroutine.
//   - No unbounded goroutine growth. The pool never spawns per-call
//     goroutines; concurrency is bounded by the resident worker count.
//
// Chunk boundaries depend only on (n, grain), never on the worker count or
// the scheduling order, so work that writes disjoint ranges produces
// bitwise-identical results whether it runs on one goroutine or many.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a reusable worker-pool execution engine. The zero value is not
// usable; construct with New. A Pool may be shared freely between
// goroutines; Run/ForEach/RunRanges are safe for concurrent use. Close is the
// only exception: it must not overlap an in-flight Run.
type Pool struct {
	workers int
	start   sync.Once
	stop    sync.Once
	closed  atomic.Bool
	tasks   chan func()
}

// New returns a pool with the given number of resident workers. workers <= 0
// selects runtime.GOMAXPROCS(0). Workers are started lazily on first use.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide shared pool, sized by GOMAXPROCS at first
// use: the conventional choice when the caller has no reason to isolate its
// parallelism.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = New(0) })
	return defaultPool
}

// Workers returns the resident worker count.
func (p *Pool) Workers() int { return p.workers }

// Close releases the resident worker goroutines of a dedicated pool. After
// Close, Run and friends still work but execute sequentially on the caller.
// Close must not be called while a Run is in flight, and must not be called
// on the shared Default pool (which lives for the process). Closing an
// already-closed or never-started pool is a no-op.
func (p *Pool) Close() {
	p.stop.Do(func() {
		p.closed.Store(true)
		// Ensure the started state is settled so workers (if any) observe
		// the close instead of a later Run racing ensureStarted.
		p.start.Do(func() {})
		if p.tasks != nil {
			close(p.tasks)
		}
	})
}

// ensureStarted launches the resident workers exactly once.
func (p *Pool) ensureStarted() {
	p.start.Do(func() {
		p.tasks = make(chan func())
		for i := 0; i < p.workers; i++ {
			go func() {
				for task := range p.tasks {
					task()
				}
			}()
		}
	})
}

// chunksFor splits [0, n) into equal chunks of at least grain indices,
// capped at a small multiple of the worker count so the dynamic scheduler
// can balance skewed chunks without drowning in dispatch overhead. The
// returned chunk size depends only on (n, grain, workers).
func (p *Pool) chunksFor(n, grain int) (nchunks, size int) {
	if grain < 1 {
		grain = 1
	}
	nchunks = (n + grain - 1) / grain
	if cap := 4 * p.workers; nchunks > cap {
		nchunks = cap
	}
	if nchunks < 1 {
		nchunks = 1
	}
	size = (n + nchunks - 1) / nchunks
	nchunks = (n + size - 1) / size
	return nchunks, size
}

// job carries the dispatch state of one Run/RunRanges call. Jobs are
// recycled through a sync.Pool and each job's task closure is built once at
// allocation, so steady-state dispatches perform no heap allocation of
// their own (the caller's fn closure is the only per-call capture).
type job struct {
	cursor  atomic.Int64
	wg      sync.WaitGroup
	n, size int
	nchunks int
	bounds  []int // non-nil: explicit chunk boundaries (RunRanges)
	fn      func(lo, hi int)
	task    func()
}

var jobPool = sync.Pool{New: func() any {
	j := &job{}
	j.task = func() {
		j.drain()
		j.wg.Done()
	}
	return j
}}

// drain claims chunks off the job's atomic cursor until none remain.
func (j *job) drain() {
	for {
		c := int(j.cursor.Add(1) - 1)
		if c >= j.nchunks {
			return
		}
		var lo, hi int
		if j.bounds != nil {
			lo, hi = j.bounds[c], j.bounds[c+1]
		} else {
			lo = c * j.size
			hi = lo + j.size
			if hi > j.n {
				hi = j.n
			}
		}
		j.fn(lo, hi)
	}
}

// Run partitions [0, n) into chunks of at least grain indices and executes
// fn(lo, hi) over the chunks concurrently, blocking until every chunk has
// completed. Chunks are claimed dynamically (an atomic cursor), so uneven
// chunk costs — e.g. nonzero-count skew across matrix row blocks — balance
// across workers. fn must be safe to call concurrently for disjoint ranges.
//
// The calling goroutine always processes chunks itself, and idle resident
// workers join it; if the pool is saturated the call degrades gracefully to
// sequential execution instead of blocking.
func (p *Pool) Run(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	nchunks, size := p.chunksFor(n, grain)
	if nchunks == 1 || p.workers == 1 || p.closed.Load() {
		fn(0, n)
		return
	}
	p.dispatch(nchunks, n, size, nil, fn)
}

// RunRanges executes fn over the explicit consecutive chunks
// [bounds[c], bounds[c+1]) for c in [0, len(bounds)-1), claimed dynamically
// exactly like Run's uniform chunks. The caller provides the boundaries —
// typically a precomputed work-balanced partition (see sparse.Partition) —
// so dispatch does no per-call planning. A single chunk, a single-worker
// pool or a closed pool runs inline on the caller. Its last caller is
// sparse.MulVecParallel, which bench/probes.go's
// sparse.mulvec_parallel_speedup.large keeps; it goes with that probe.
func (p *Pool) RunRanges(bounds []int, fn func(lo, hi int)) {
	nchunks := len(bounds) - 1
	if nchunks <= 0 {
		return
	}
	if nchunks == 1 || p.workers == 1 || p.closed.Load() {
		fn(bounds[0], bounds[nchunks])
		return
	}
	p.dispatch(nchunks, 0, 0, bounds, fn)
}

// dispatch hands the chunk queue to idle resident workers and drains it on
// the calling goroutine, blocking until every chunk completed.
func (p *Pool) dispatch(nchunks, n, size int, bounds []int, fn func(lo, hi int)) {
	p.ensureStarted()

	j := jobPool.Get().(*job)
	j.cursor.Store(0)
	j.n, j.size, j.nchunks = n, size, nchunks
	j.bounds, j.fn = bounds, fn

	helpers := p.workers - 1
	if helpers > nchunks-1 {
		helpers = nchunks - 1
	}
	j.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		select {
		case p.tasks <- j.task:
		default:
			// Every resident worker is busy (e.g. nested parallelism):
			// the caller drains the queue alone rather than waiting.
			j.wg.Done()
		}
	}
	j.drain()
	j.wg.Wait()

	j.fn = nil
	j.bounds = nil
	jobPool.Put(j)
}

// ForEach executes fn(i) for every i in [0, n) across the pool, blocking
// until all calls return. Each index is an independent unit of work; indices
// are grouped into chunks internally and each chunk runs its indices in
// ascending order.
func (p *Pool) ForEach(n int, fn func(i int)) {
	p.Run(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}
