// The race detector makes sync.Pool drop a quarter of what is Put into it, so
// a gate on code that recycles through one (the worker pool's jobs, the voted
// update's per-range scratch, the pool products' operands) can only hold
// without it.

//go:build !race

package repro

import (
	"testing"

	"repro/internal/pool"
	"repro/internal/sparse"
)

// TestZeroAllocTMRVectorOpsPooled is TestZeroAllocTMRVectorOps across a
// worker pool: the range closure is built once and the per-range replica
// scratch recycled.
func TestZeroAllocTMRVectorOpsPooled(t *testing.T) {
	p := pool.New(4)
	defer p.Close()
	assertZeroAllocTMRVectorOps(t, p)
}

// TestZeroAllocPoolProducts gates the two pool products above the row
// cutoff: their range closures are built once per recycled operand holder,
// not per call.
func TestZeroAllocPoolProducts(t *testing.T) {
	p := pool.New(4)
	defer p.Close()
	a := sparse.Poisson2D(64, 64) // 4096 rows ≥ sparse.ParallelMinRows
	x, y := randVec(a.Cols, 1), make([]float64, a.Rows)
	assertZeroAllocs(t, "MulVecParallel", func() { a.MulVecParallel(p, y, x) })
	assertZeroAllocs(t, "MulVecRobustParallel", func() { a.MulVecRobustParallel(p, y, x) })
}
