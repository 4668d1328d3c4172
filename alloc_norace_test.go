// The race detector makes sync.Pool drop a quarter of what is Put into it, so
// a gate on code that recycles through one (the worker pool's jobs, the pool
// product's operands) can only hold without it.

//go:build !race

package repro

import (
	"testing"

	"repro/internal/pool"
	"repro/internal/sparse"
)

// TestZeroAllocPoolProducts gates the pool product above the row cutoff: its
// range closure is built once per recycled operand holder, not per call.
func TestZeroAllocPoolProducts(t *testing.T) {
	p := pool.New(4)
	defer p.Close()
	a := sparse.Poisson2D(64, 64) // 4096 rows, above the parallel product's 2048-row cutoff
	x, y := randVec(a.Cols, 1), make([]float64, a.Rows)
	assertZeroAllocs(t, "MulVecParallel", func() { a.MulVecParallel(p, y, x) })
}
