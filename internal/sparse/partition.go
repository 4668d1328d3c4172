package sparse

import (
	"sort"
	"sync"
)

// This file implements precomputed NNZ-balanced partition plans for the
// parallel CSR kernels. The uniform row chunking used previously assigns
// every chunk the same number of rows, which load-balances badly on
// matrices with skewed nonzero distributions (banded suite matrices whose
// bandwidth varies across the row range, graph Laplacians with hub
// vertices): one chunk can own several times the nonzeros of another, and
// the dynamic chunk claiming in internal/pool can only mop up so much skew
// when there are few chunks per worker. A partition plan instead cuts the
// row range so every chunk owns approximately the same number of stored
// nonzeros — i.e. the same amount of SpMxV work — by binary-searching the
// Rowidx prefix sums. Plans depend only on (Rowidx, chunk count), are
// cached on the matrix per chunk count, and are invalidated by CopyFrom
// (the rollback path) and invalidatePlans.
//
// Correctness never depends on a plan: chunk boundaries are row indices
// covering [0, Rows) exactly once, every row is still computed by the same
// per-row kernel, and rows are written to disjoint slices of y — so the
// product stays bitwise identical to the sequential kernel for any plan,
// any worker count, and even a plan gone stale through in-place mutation
// of the matrix (it merely balances suboptimally until re-planned).
//
// Last caller: MulVecParallel, itself kept only for bench/probes.go's
// sparse.mulvec_parallel_speedup.large (see parallel.go); the file goes with
// that probe.

// partition is a precomputed row partition: chunk c covers rows
// [Bounds[c], Bounds[c+1]). Bounds is strictly increasing with
// Bounds[0] == 0 and Bounds[len-1] == Rows.
type partition struct {
	Bounds []int
}

// nnzPartition splits the matrix rows into at most chunks ranges of
// approximately equal stored nonzeros. Cut points are found by binary
// search on the Rowidx prefix sums, so planning costs
// O(chunks · log rows). Degenerate inputs (chunks < 1, empty matrices,
// fewer rows than chunks) collapse to fewer chunks; the result always
// covers [0, Rows) exactly.
func (m *CSR) nnzPartition(chunks int) partition {
	rows := m.Rows
	if chunks < 1 {
		chunks = 1
	}
	if chunks > rows {
		chunks = rows
	}
	if rows <= 0 {
		return partition{Bounds: []int{0, 0}}
	}
	total := m.Rowidx[rows]
	bounds := make([]int, 1, chunks+1)
	bounds[0] = 0
	prev := 0
	for c := 1; c < chunks; c++ {
		// Smallest row ≥ prev whose prefix nnz reaches the c-th equal share.
		target := int64(total) * int64(c) / int64(chunks)
		cut := prev + sort.Search(rows-prev, func(i int) bool {
			return int64(m.Rowidx[prev+i]) >= target
		})
		// Keep bounds strictly increasing: empty-row runs or heavy single
		// rows can pull successive cuts onto the same row.
		if cut <= prev {
			cut = prev + 1
		}
		if cut >= rows {
			break
		}
		bounds = append(bounds, cut)
		prev = cut
	}
	bounds = append(bounds, rows)
	return partition{Bounds: bounds}
}

// planCache memoises partition plans per chunk count. The zero value is
// ready to use; access is synchronised because parallel products on a
// shared matrix may race to plan it.
type planCache struct {
	mu    sync.Mutex
	plans map[int]partition
}

// planFor returns the cached NNZ-balanced plan with the chunk count the
// parallel kernels use for the given worker count (the same 4×workers
// oversubscription as the pool's dynamic scheduler, capped by the
// parallelRowGrain minimum chunk size), computing and caching it on first
// use.
func (m *CSR) planFor(workers int) partition {
	chunks := planChunks(m.Rows, workers)
	m.plan.mu.Lock()
	defer m.plan.mu.Unlock()
	if p, ok := m.plan.plans[chunks]; ok {
		return p
	}
	p := m.nnzPartition(chunks)
	if m.plan.plans == nil {
		m.plan.plans = make(map[int]partition)
	}
	m.plan.plans[chunks] = p
	return p
}

// planChunks mirrors pool.chunksFor's sizing: enough chunks for dynamic
// balancing (4 per worker) without dropping below the grain that keeps
// dispatch overhead negligible.
func planChunks(rows, workers int) int {
	chunks := rows / parallelRowGrain
	if cap := 4 * workers; chunks > cap {
		chunks = cap
	}
	if chunks < 1 {
		chunks = 1
	}
	return chunks
}

// invalidatePlans drops the cached partition plans. Callers that mutate
// the matrix structure in place (beyond the silent bit flips of the fault
// model, which plans tolerate by construction) should invalidate so the
// next parallel product re-balances.
func (m *CSR) invalidatePlans() {
	m.plan.mu.Lock()
	m.plan.plans = nil
	m.plan.mu.Unlock()
}
