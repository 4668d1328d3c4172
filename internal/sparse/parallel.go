package sparse

import (
	"fmt"
	"sync"

	"repro/internal/pool"
)

// No solve runs a product on the pool any more: the system is parallel over
// solves, never inside one (docs/PERFORMANCE.md, "Parallelism").
// MulVecParallel, the partition plan behind it (partition.go) and
// pool.RunRanges are kept for their last caller, bench/probes.go's
// sparse.mulvec_parallel_speedup.large, and go with it.

// parallelMinRows is the row-count cutoff below which the parallel product
// falls back to its sequential counterpart: under it the SpMxV fits in
// cache and pool dispatch costs more than it saves.
const parallelMinRows = 2048

// parallelRowGrain is the minimum number of rows per scheduled chunk,
// bounding the NNZ-balanced partition's chunk count so dispatch overhead
// stays negligible on small matrices.
const parallelRowGrain = 256

// MulVecParallel computes y ← Ax with the row range executed across the
// pool, chunked by the matrix's cached NNZ-balanced partition plan (see
// partition.go) so every chunk carries approximately equal work even under
// skewed nonzero distributions. Every output row is computed by exactly the
// same left-to-right accumulation as MulVec, and rows are written to
// disjoint slices of y, so the result is bitwise identical to the
// sequential product for any worker count and any plan. A nil pool, a
// single-worker pool or a small matrix all run sequentially.
func (m *CSR) MulVecParallel(p *pool.Pool, y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVecParallel dimensions: A is %dx%d, len(x)=%d, len(y)=%d",
			m.Rows, m.Cols, len(x), len(y)))
	}
	if p == nil || p.Workers() == 1 || m.Rows < parallelMinRows {
		m.MulVec(y, x)
		return
	}
	op := rangeOps.Get().(*rangeOp)
	op.m, op.y, op.x = m, y, x
	p.RunRanges(m.planFor(p.Workers()).Bounds, op.strict)
	op.release()
}

// rangeOp holds the operands of one pool product in flight, where the pool's
// workers read them through a closure built once — so a pool product
// allocates nothing. Ops are recycled rather than kept on the matrix because
// one matrix may serve several products at a time.
type rangeOp struct {
	m      *CSR
	y, x   []float64
	strict func(lo, hi int)
}

var rangeOps = sync.Pool{New: func() any {
	op := &rangeOp{}
	op.strict = func(lo, hi int) { op.m.mulRows(op.y, op.x, lo, hi) }
	return op
}}

// release drops the operands, so a recycled op pins no vectors, and returns
// the op to the pool.
func (op *rangeOp) release() {
	op.m, op.y, op.x = nil, nil, nil
	rangeOps.Put(op)
}
