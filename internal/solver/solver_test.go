package solver

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// manufactured returns (A, b, xTrue) with b = A·xTrue for a known solution.
func manufactured(a *sparse.CSR, seed int64) (b, xTrue []float64) {
	rng := rand.New(rand.NewSource(seed))
	n := a.Rows
	xTrue = make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b = make([]float64, n)
	a.MulVec(b, xTrue)
	return b, xTrue
}

func checkSolution(t *testing.T, a *sparse.CSR, x, xTrue, b []float64, tol float64) {
	t.Helper()
	if d := vec.MaxAbsDiff(x, xTrue); d > tol*(1+vec.NormInf(xTrue)) {
		t.Fatalf("solution error %v exceeds %v", d, tol)
	}
	r := make([]float64, len(b))
	a.MulVec(r, x)
	vec.Sub(r, b, r)
	if rn := vec.Norm2(r); rn > tol*vec.Norm2(b) {
		t.Fatalf("residual %v exceeds %v·‖b‖", rn, tol)
	}
}

func TestCGPoisson2D(t *testing.T) {
	a := sparse.Poisson2D(20, 20)
	b, xTrue := manufactured(a, 1)
	res := CG(a, nil, b, 1e-10, 10*a.Rows)
	if !res.Converged {
		t.Fatal("not converged")
	}
	checkSolution(t, a, res.X, xTrue, b, 1e-6)
}

func TestCGTridiag(t *testing.T) {
	a := sparse.Tridiag(100, 2, -1)
	b, xTrue := manufactured(a, 2)
	res := CG(a, nil, b, 1e-10, 10*a.Rows)
	checkSolution(t, a, res.X, xTrue, b, 1e-5)
}

func TestCGRandomSPD(t *testing.T) {
	a := sparse.RandomSPD(sparse.RandomSPDOptions{N: 300, Density: 0.05, DiagShift: 0.5, Seed: 3})
	b, xTrue := manufactured(a, 3)
	res := CG(a, nil, b, 1e-12, 10*a.Rows)
	checkSolution(t, a, res.X, xTrue, b, 1e-7)
	if res.Iterations <= 1 {
		t.Fatal("suspiciously fast convergence")
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := sparse.Tridiag(50, 2, -1)
	b := make([]float64, 50)
	res := CG(a, nil, b, 1e-10, 500)
	if !res.Converged || vec.Norm2(res.X) != 0 {
		t.Fatal("zero rhs must give zero solution from zero guess")
	}
}

func TestCGWarmStart(t *testing.T) {
	a := sparse.Poisson2D(15, 15)
	// The zero guess is the exact solution of Ax = 0: 0 iterations.
	res := CG(a, nil, make([]float64, a.Rows), 1e-10, 10*a.Rows)
	if res.Iterations != 0 {
		t.Fatalf("warm start took %d iterations", res.Iterations)
	}
}

func TestCGMaxIterError(t *testing.T) {
	a := sparse.Poisson2D(20, 20)
	b, _ := manufactured(a, 6)
	if res := CG(a, nil, b, 1e-14, 2); res.Converged || res.Iterations != 2 {
		t.Fatalf("a budget of 2 iterations: %d iterations, converged = %v", res.Iterations, res.Converged)
	}
}

func TestCGDimensionMismatch(t *testing.T) {
	a := sparse.Poisson2D(4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("a mismatch is a programming error in a test: expected a panic")
		}
	}()
	CG(a, nil, make([]float64, 3), 1e-10, 10)
}

func TestCGNonSPDBreakdown(t *testing.T) {
	// Indefinite matrix: CG must stop on the breakdown, not loop.
	a := sparse.Dense(2, 2, []float64{1, 0, 0, -1})
	b := []float64{1, 1}
	if res := CG(a, nil, b, 1e-10, 1000); res.Converged || res.Iterations > 2 {
		t.Fatalf("indefinite matrix: %d iterations, converged = %v", res.Iterations, res.Converged)
	}
}

// jacobiPCG is CG under the explicit Jacobi preconditioner.
func jacobiPCG(a *sparse.CSR, b []float64, tol float64, maxIter int) (Result, error) {
	m, err := precond.Jacobi(a)
	if err != nil {
		return Result{}, err
	}
	return CG(a, m, b, tol, maxIter), nil
}

func TestPCGPoisson(t *testing.T) {
	a := sparse.Poisson2D(20, 20)
	b, xTrue := manufactured(a, 7)
	res, err := jacobiPCG(a, b, 1e-10, 10*a.Rows)
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, a, res.X, xTrue, b, 1e-6)
}

func TestPCGBeatsOrMatchesCGOnSkewedDiagonal(t *testing.T) {
	// Jacobi helps when the diagonal is badly scaled.
	n := 200
	c := sparse.NewCOO(n, n)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < n; i++ {
		scale := math.Pow(10, 4*rng.Float64()) // diagonal spread 1..1e4
		c.Add(i, i, scale)
		if i > 0 {
			c.Add(i, i-1, -0.1)
			c.Add(i-1, i, -0.1)
		}
	}
	a := c.ToCSR()
	b, _ := manufactured(a, 9)
	cg := CG(a, nil, b, 1e-10, 5000)
	pcg, err := jacobiPCG(a, b, 1e-10, 5000)
	if err != nil || !cg.Converged || !pcg.Converged {
		t.Fatalf("err %v, converged: CG %v, PCG %v", err, cg.Converged, pcg.Converged)
	}
	if pcg.Iterations > cg.Iterations {
		t.Fatalf("PCG (%d iters) slower than CG (%d iters) on skewed diagonal", pcg.Iterations, cg.Iterations)
	}
}

func TestPCGZeroDiagonal(t *testing.T) {
	a := sparse.Dense(2, 2, []float64{0, 1, 1, 0})
	if _, err := jacobiPCG(a, []float64{1, 1}, 1e-10, 20); err == nil {
		t.Fatal("expected zero-diagonal error")
	}
}

func TestBiCGstabNonsymmetric(t *testing.T) {
	// Convection–diffusion style: Poisson plus a skew part.
	base := sparse.Poisson2D(15, 15)
	c := sparse.NewCOO(base.Rows, base.Cols)
	for i := 0; i < base.Rows; i++ {
		for k := base.Rowidx[i]; k < base.Rowidx[i+1]; k++ {
			c.Add(i, base.Colid[k], base.Val[k])
		}
		if i+1 < base.Rows {
			c.Add(i, i+1, 0.3)
			c.Add(i+1, i, -0.3)
		}
	}
	a := c.ToCSR()
	b, xTrue := manufactured(a, 10)
	res := BiCGstab(a, b, 1e-10, 4000)
	checkSolution(t, a, res.X, xTrue, b, 1e-5)
}

func TestBiCGstabMatchesCGOnSPD(t *testing.T) {
	a := sparse.Poisson2D(12, 12)
	b, xTrue := manufactured(a, 11)
	res := BiCGstab(a, b, 1e-11, 10*a.Rows)
	checkSolution(t, a, res.X, xTrue, b, 1e-6)
}

func TestAllSolversAgree(t *testing.T) {
	a := sparse.Poisson2D(10, 10)
	b, _ := manufactured(a, 15)
	cg := CG(a, nil, b, 1e-11, 10*a.Rows)
	pcg, err := jacobiPCG(a, b, 1e-11, 10*a.Rows)
	bi := BiCGstab(a, b, 1e-11, 10*a.Rows)
	if err != nil || !cg.Converged || !pcg.Converged || !bi.Converged {
		t.Fatalf("err %v, converged: %v %v %v", err, cg.Converged, pcg.Converged, bi.Converged)
	}
	for _, other := range [][]float64{pcg.X, bi.X} {
		if d := vec.MaxAbsDiff(cg.X, other); d > 1e-6 {
			t.Fatalf("solvers disagree by %v", d)
		}
	}
}
