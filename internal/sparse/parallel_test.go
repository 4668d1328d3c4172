package sparse

import (
	"math/rand"
	"testing"

	"repro/internal/pool"
)

func randX(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// TestMulVecParallelMatchesSequential: every row is accumulated in the same
// order as the sequential kernel and rows write disjoint outputs, so the
// parallel product must be bitwise identical for any worker count and any
// matrix size straddling the cutoff.
func TestMulVecParallelMatchesSequential(t *testing.T) {
	for _, side := range []int{20, 50, 80} { // n = 400, 2500, 6400: below and above parallelMinRows
		a := Poisson2D(side, side)
		x := randX(a.Cols, int64(side))
		want := make([]float64, a.Rows)
		a.MulVec(want, x)
		for _, workers := range []int{1, 2, 4} {
			p := pool.New(workers)
			got := make([]float64, a.Rows)
			a.MulVecParallel(p, got, x)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("side=%d workers=%d: row %d: %v != %v", side, workers, i, got[i], want[i])
				}
			}
		}
		got := make([]float64, a.Rows)
		a.MulVecParallel(nil, got, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("side=%d nil pool: row %d differs", side, i)
			}
		}
	}
}

func TestMulVecParallelDimensionPanic(t *testing.T) {
	a := Poisson2D(10, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("MulVecParallel must panic on dimension mismatch")
		}
	}()
	a.MulVecParallel(nil, make([]float64, 3), make([]float64, a.Cols))
}
