package core

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/pool"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// poissonSystem manufactures b = A·xTrue on a 2D Poisson grid big enough to
// cross the sparse.ParallelMinRows cutoff, so the pooled code paths really
// execute.
func poissonSystem(side int, seed int64) (*sparse.CSR, []float64) {
	a := sparse.Poisson2D(side, side)
	rng := rand.New(rand.NewSource(seed))
	xTrue := make([]float64, a.Rows)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, a.Rows)
	a.MulVec(b, xTrue)
	return a, b
}

// history records the (iteration, rho) trajectory of a solve.
type history struct {
	its  []int
	rhos []float64
}

func (h *history) hook() func(int, float64) {
	return func(it int, rho float64) {
		h.its = append(h.its, it)
		h.rhos = append(h.rhos, rho)
	}
}

func (h *history) equal(o *history) bool {
	if len(h.its) != len(o.its) {
		return false
	}
	for i := range h.its {
		if h.its[i] != o.its[i] || h.rhos[i] != o.rhos[i] {
			return false
		}
	}
	return true
}

// TestParallelSolveBitwiseIdentical is the acceptance test for the engine
// rewiring: for every scheme, a faulty solve run sequentially and the same
// solve run across worker pools of several sizes must produce bitwise
// identical residual histories, solutions and statistics. The kernels use
// deterministic blocked arithmetic, so the pool may only change wall-clock
// time — never a single bit of the trajectory.
func TestParallelSolveBitwiseIdentical(t *testing.T) {
	a, b := poissonSystem(52, 11) // n = 2704 > sparse.ParallelMinRows

	for _, scheme := range Schemes {
		var seqHist history
		xSeq, stSeq, errSeq := Solve(a, b, Config{
			Scheme:      scheme,
			Tol:         1e-8,
			Injector:    fault.New(fault.Config{Alpha: 1.0 / 16, Seed: 5}),
			OnIteration: seqHist.hook(),
		})
		if errSeq != nil {
			t.Fatalf("%v: sequential solve failed: %v", scheme, errSeq)
		}
		for _, workers := range []int{2, 4} {
			var parHist history
			xPar, stPar, errPar := Solve(a, b, Config{
				Scheme:      scheme,
				Tol:         1e-8,
				Injector:    fault.New(fault.Config{Alpha: 1.0 / 16, Seed: 5}),
				Pool:        pool.New(workers),
				OnIteration: parHist.hook(),
			})
			if errPar != nil {
				t.Fatalf("%v workers=%d: parallel solve failed: %v", scheme, workers, errPar)
			}
			if !seqHist.equal(&parHist) {
				t.Fatalf("%v workers=%d: residual history diverged (%d vs %d iterations)",
					scheme, workers, len(seqHist.its), len(parHist.its))
			}
			if !vec.Equal(xSeq, xPar) {
				t.Fatalf("%v workers=%d: solutions not bitwise identical", scheme, workers)
			}
			if stSeq != stPar {
				t.Fatalf("%v workers=%d: stats differ:\nseq %+v\npar %+v", scheme, workers, stSeq, stPar)
			}
		}
	}
}

// TestParallelPCGBitwiseIdentical extends the identity to the
// preconditioned driver, where the pool also carries the M-product.
func TestParallelPCGBitwiseIdentical(t *testing.T) {
	a, b := poissonSystem(48, 13)
	m, err := precond.Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}

	var seqHist history
	xSeq, stSeq, errSeq := Solve(a, b, Config{
		Scheme:      ABFTCorrection,
		M:           m,
		Tol:         1e-9,
		Injector:    fault.New(fault.Config{Alpha: 1.0 / 32, Seed: 17}),
		OnIteration: seqHist.hook(),
	})
	if errSeq != nil {
		t.Fatalf("sequential PCG failed: %v", errSeq)
	}
	var parHist history
	xPar, stPar, errPar := Solve(a, b, Config{
		Scheme:      ABFTCorrection,
		M:           m,
		Tol:         1e-9,
		Injector:    fault.New(fault.Config{Alpha: 1.0 / 32, Seed: 17}),
		Pool:        pool.New(3),
		OnIteration: parHist.hook(),
	})
	if errPar != nil {
		t.Fatalf("parallel PCG failed: %v", errPar)
	}
	if !seqHist.equal(&parHist) {
		t.Fatal("PCG residual history diverged between sequential and pooled execution")
	}
	if !vec.Equal(xSeq, xPar) || stSeq != stPar {
		t.Fatal("PCG solution or stats diverged between sequential and pooled execution")
	}
}

// TestParallelBiCGstabBitwiseIdentical covers the third driver: both
// protected products and the TMR kernels ride the pool.
func TestParallelBiCGstabBitwiseIdentical(t *testing.T) {
	a, b := poissonSystem(48, 19)

	xSeq, stSeq, errSeq := SolveBiCGstab(a, b, Config{
		Scheme:   ABFTCorrection,
		Tol:      1e-8,
		Injector: fault.New(fault.Config{Alpha: 1.0 / 32, Seed: 23}),
	})
	if errSeq != nil {
		t.Fatalf("sequential BiCGstab failed: %v", errSeq)
	}
	xPar, stPar, errPar := SolveBiCGstab(a, b, Config{
		Scheme:   ABFTCorrection,
		Tol:      1e-8,
		Injector: fault.New(fault.Config{Alpha: 1.0 / 32, Seed: 23}),
		Pool:     pool.New(4),
	})
	if errPar != nil {
		t.Fatalf("parallel BiCGstab failed: %v", errPar)
	}
	if !vec.Equal(xSeq, xPar) || stSeq != stPar {
		t.Fatal("BiCGstab solution or stats diverged between sequential and pooled execution")
	}
}
