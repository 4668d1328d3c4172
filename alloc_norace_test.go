// The race detector makes sync.Pool drop a quarter of what is Put into it, so
// a gate on code that recycles through one (the worker pool's jobs, the voted
// update's per-range scratch) can only hold without it.

//go:build !race

package repro

import (
	"testing"

	"repro/internal/pool"
)

// TestZeroAllocTMRVectorOpsPooled is TestZeroAllocTMRVectorOps across a
// worker pool: the range closure is built once and the per-range replica
// scratch recycled.
func TestZeroAllocTMRVectorOpsPooled(t *testing.T) {
	p := pool.New(4)
	defer p.Close()
	assertZeroAllocTMRVectorOps(t, p)
}
