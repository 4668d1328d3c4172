package solver

import (
	"fmt"
	"math"

	"repro/internal/sparse"
	"repro/internal/vec"
)

// BiCGstab solves Ax = b for general (non-symmetric) A using the
// stabilised bi-conjugate gradient method. The paper lists BiCGstab among
// the solvers its protection scheme extends to; it uses exactly the kernels
// the scheme protects (SpMxV, dots, axpys).
func BiCGstab(a *sparse.CSR, b []float64, opt Options) (Result, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return Result{}, fmt.Errorf("solver: BiCGstab dimension mismatch: A %dx%d, len(b)=%d", a.Rows, a.Cols, len(b))
	}
	opt = opt.withDefaults(n)
	ws := opt.Ws.begin()

	x := ws.takeZero(n)
	r := ws.take(n)
	t := ws.take(n) // A·s later; r0 scratch now
	a.MulVec(t, x)
	vec.Sub(r, b, t)
	rHat := ws.take(n) // shadow residual, fixed
	copy(rHat, r)
	p := ws.take(n)
	v := ws.take(n)
	s := ws.take(n)
	for i := range n {
		p[i], v[i], s[i] = 0, 0, 0
	}

	normB := vec.Norm2(b)
	if normB == 0 {
		normB = 1
	}
	rho, alpha, omega := 1.0, 1.0, 1.0
	res := Result{X: x}

	for it := 0; it < opt.MaxIter; it++ {
		rNorm := vec.Norm2(r)
		if opt.OnIteration != nil {
			opt.OnIteration(it+1, rNorm)
		}
		if rNorm <= opt.Tol*normB {
			res.Iterations = it
			res.Converged = true
			res.Residual = trueResidualInto(t, a, x, b)
			return res, nil
		}

		rhoNew := vec.Dot(rHat, r)
		if rhoNew == 0 || math.IsNaN(rhoNew) {
			return res, fmt.Errorf("solver: BiCGstab breakdown (ρ = %v) at iteration %d", rhoNew, it)
		}
		if it == 0 {
			copy(p, r)
		} else {
			beta := (rhoNew / rho) * (alpha / omega)
			// p ← r + β (p − ω v)
			for i := range p {
				p[i] = r[i] + beta*(p[i]-omega*v[i])
			}
		}
		rho = rhoNew

		a.MulVec(v, p)
		den := vec.Dot(rHat, v)
		if den == 0 || math.IsNaN(den) {
			return res, fmt.Errorf("solver: BiCGstab breakdown (r̂ᵀv = %v) at iteration %d", den, it)
		}
		alpha = rho / den
		vec.AxpyTo(s, -alpha, v, r)

		// Early convergence on the half step.
		if vec.Norm2(s) <= opt.Tol*normB {
			vec.Axpy(alpha, p, x)
			res.Iterations = it + 1
			res.Converged = true
			res.Residual = trueResidualInto(t, a, x, b)
			return res, nil
		}

		a.MulVec(t, s)
		tt := vec.Norm2Sq(t)
		if tt == 0 || math.IsNaN(tt) {
			return res, fmt.Errorf("solver: BiCGstab breakdown (‖t‖ = 0) at iteration %d", it)
		}
		omega = vec.Dot(t, s) / tt
		if omega == 0 || math.IsNaN(omega) {
			return res, fmt.Errorf("solver: BiCGstab breakdown (ω = %v) at iteration %d", omega, it)
		}

		vec.Axpy(alpha, p, x)
		vec.Axpy(omega, s, x)
		vec.AxpyTo(r, -omega, t, s)
		res.Iterations = it + 1
	}
	res.Residual = trueResidualInto(t, a, x, b)
	res.Converged = res.Residual <= opt.Tol*normB
	if !res.Converged {
		return res, fmt.Errorf("%w: BiCGstab after %d iterations", ErrNotConverged, res.Iterations)
	}
	return res, nil
}
