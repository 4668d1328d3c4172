package repro

import (
	"math"
	"testing"

	"repro/internal/harness"
	"repro/internal/pool"
	"repro/internal/sparse"
)

// This file pins the bitwise contract of the pool product on every matrix
// of the paper suite: it must produce exactly the sequential bits at every
// worker count.

// suiteInstances generates a small instance of each of the nine paper
// suite matrices (scale keeps the row counts in the low thousands so the
// parallel paths engage without slowing the suite down).
func suiteInstances(tb testing.TB) map[int]*sparse.CSR {
	tb.Helper()
	out := make(map[int]*sparse.CSR, len(harness.PaperSuite))
	for _, sm := range harness.PaperSuite {
		out[sm.ID] = sm.Generate(8)
	}
	return out
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestParallelProductsBitwiseAcrossWorkers(t *testing.T) {
	for id, a := range suiteInstances(t) {
		x := randVec(a.Cols, int64(id))
		yRef := make([]float64, a.Rows)
		a.MulVec(yRef, x)

		for _, workers := range []int{1, 2, 3, 4, 8} {
			p := pool.New(workers)
			y := make([]float64, a.Rows)
			a.MulVecParallel(p, y, x)
			if !bitsEqual(yRef, y) {
				t.Errorf("matrix %d: MulVecParallel differs at %d workers", id, workers)
			}
			p.Close()
		}
	}
}
